package model

import (
	"errors"
	"strings"
	"testing"
)

// churnTestNetwork builds a 3-node line network v0 -> v1 -> v2 (and back)
// for churn unit tests.
func churnTestNetwork(t *testing.T) *Network {
	t.Helper()
	nodes := []Node{
		{ID: 0, Power: 1000},
		{ID: 1, Power: 2000},
		{ID: 2, Power: 4000},
	}
	links := []Link{
		{ID: 0, From: 0, To: 1, BWMbps: 100, MLDms: 1},
		{ID: 1, From: 1, To: 2, BWMbps: 200, MLDms: 1},
		{ID: 2, From: 2, To: 1, BWMbps: 100, MLDms: 1},
		{ID: 3, From: 1, To: 0, BWMbps: 200, MLDms: 1},
	}
	net, err := NewNetwork(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestApplyChurnBasics(t *testing.T) {
	r := NewResidualNetwork(churnTestNetwork(t))

	if err := r.ApplyChurn([]ChurnEvent{
		{Kind: NodeDown, Node: 1},
		{Kind: LinkDegrade, Link: 0, Factor: 0.25},
		{Kind: CapacityDrift, Target: TargetNode, Node: 2, Factor: 0.5},
		{Kind: CapacityDrift, Target: TargetLink, Link: 1, Factor: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	if !r.NodeIsDown(1) || r.NodeCapacity(1) != 0 {
		t.Errorf("node 1 should be down, capacity %v", r.NodeCapacity(1))
	}
	if got := r.LinkCapacity(0); got != 0.25 {
		t.Errorf("link 0 capacity = %v, want 0.25", got)
	}
	if got := r.NodeCapacity(2); got != 0.5 {
		t.Errorf("node 2 capacity = %v, want 0.5", got)
	}
	if got := r.LinkCapacity(1); got != 0.5 {
		t.Errorf("link 1 capacity = %v, want 0.5", got)
	}

	// Snapshot prices the down node out and scales the degraded elements.
	snap := r.Snapshot()
	if snap.Power(1) > r.Base().Power(1)*1e-8 {
		t.Errorf("down node power %v not floored", snap.Power(1))
	}
	if got, want := snap.Power(2), r.Base().Power(2)*0.5; !approxEq(got, want) {
		t.Errorf("drifted node power = %v, want %v", got, want)
	}
	if got, want := snap.Links[0].BWMbps, r.Base().Links[0].BWMbps*0.25; !approxEq(got, want) {
		t.Errorf("degraded link bw = %v, want %v", got, want)
	}

	// Restore everything; the view must return to nominal.
	if err := r.ApplyChurn([]ChurnEvent{
		{Kind: NodeUp, Node: 1},
		{Kind: LinkRestore, Link: 0},
		{Kind: CapacityDrift, Target: TargetNode, Node: 2, Factor: 2},
		{Kind: CapacityDrift, Target: TargetLink, Link: 1, Factor: 10},
	}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < r.Base().N(); v++ {
		if r.NodeCapacity(NodeID(v)) != 1 {
			t.Errorf("node %d capacity %v after full restore", v, r.NodeCapacity(NodeID(v)))
		}
	}
	for l := 0; l < r.Base().M(); l++ {
		if r.LinkCapacity(l) != 1 {
			t.Errorf("link %d capacity %v after full restore", l, r.LinkCapacity(l))
		}
	}
}

func TestApplyChurnUnknownTarget(t *testing.T) {
	r := NewResidualNetwork(churnTestNetwork(t))
	cases := []ChurnEvent{
		{Kind: NodeDown, Node: 99},
		{Kind: NodeDown, Node: -1},
		{Kind: NodeUp, Node: 3},
		{Kind: LinkDegrade, Link: 12, Factor: 0.5},
		{Kind: LinkRestore, Link: -2},
		{Kind: CapacityDrift, Target: TargetNode, Node: 7, Factor: 0.9},
		{Kind: CapacityDrift, Target: TargetLink, Link: 40, Factor: 0.9},
	}
	for _, ev := range cases {
		err := r.ApplyChurn([]ChurnEvent{ev})
		if !errors.Is(err, ErrUnknownTarget) {
			t.Errorf("%s: err = %v, want ErrUnknownTarget", ev, err)
		}
	}
}

func TestApplyChurnConflicts(t *testing.T) {
	r := NewResidualNetwork(churnTestNetwork(t))

	// NodeUp on a node that never went down.
	if err := r.ApplyChurn([]ChurnEvent{{Kind: NodeUp, Node: 0}}); !errors.Is(err, ErrChurnConflict) {
		t.Errorf("up-on-up err = %v, want ErrChurnConflict", err)
	}

	if err := r.ApplyChurn([]ChurnEvent{{Kind: NodeDown, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	// Double-down.
	if err := r.ApplyChurn([]ChurnEvent{{Kind: NodeDown, Node: 0}}); !errors.Is(err, ErrChurnConflict) {
		t.Errorf("double-down err = %v, want ErrChurnConflict", err)
	}
	// Drift on a down node.
	if err := r.ApplyChurn([]ChurnEvent{{Kind: CapacityDrift, Node: 0, Factor: 0.9}}); !errors.Is(err, ErrChurnConflict) {
		t.Errorf("drift-on-down err = %v, want ErrChurnConflict", err)
	}
	// Double-down within one batch conflicts too.
	if err := r.ApplyChurn([]ChurnEvent{
		{Kind: NodeDown, Node: 1},
		{Kind: NodeDown, Node: 1},
	}); !errors.Is(err, ErrChurnConflict) {
		t.Errorf("in-batch double-down err = %v, want ErrChurnConflict", err)
	}
	// LinkRestore of an undegraded link is idempotent, not a conflict.
	if err := r.ApplyChurn([]ChurnEvent{{Kind: LinkRestore, Link: 0}}); err != nil {
		t.Errorf("restore of nominal link: %v, want nil", err)
	}
}

func TestApplyChurnBadFactors(t *testing.T) {
	r := NewResidualNetwork(churnTestNetwork(t))
	for _, ev := range []ChurnEvent{
		{Kind: LinkDegrade, Link: 0, Factor: 0},
		{Kind: LinkDegrade, Link: 0, Factor: 1},
		{Kind: LinkDegrade, Link: 0, Factor: -0.5},
		{Kind: CapacityDrift, Node: 0, Factor: 0},
		{Kind: CapacityDrift, Node: 0, Factor: -1},
		{Kind: ChurnKind("meteor_strike"), Node: 0},
		{Kind: CapacityDrift, Target: ChurnTarget("path"), Node: 0, Factor: 0.5},
	} {
		if err := r.ApplyChurn([]ChurnEvent{ev}); err == nil {
			t.Errorf("%s: applied, want error", ev)
		}
	}
}

// TestApplyChurnTransactional verifies that a batch with a late invalid
// event leaves the view completely untouched.
func TestApplyChurnTransactional(t *testing.T) {
	r := NewResidualNetwork(churnTestNetwork(t))
	err := r.ApplyChurn([]ChurnEvent{
		{Kind: NodeDown, Node: 0},
		{Kind: LinkDegrade, Link: 1, Factor: 0.5},
		{Kind: NodeDown, Node: 99}, // invalid: aborts the batch
	})
	if !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v, want ErrUnknownTarget", err)
	}
	if r.NodeCapacity(0) != 1 || r.LinkCapacity(1) != 1 {
		t.Errorf("partial application leaked: node0=%v link1=%v",
			r.NodeCapacity(0), r.LinkCapacity(1))
	}
	if !strings.Contains(err.Error(), "event 2") {
		t.Errorf("error should name the offending event index: %v", err)
	}
}

// TestChurnFitsInteraction verifies Fits against reduced capacity factors.
func TestChurnFitsInteraction(t *testing.T) {
	r := NewResidualNetwork(churnTestNetwork(t))
	res := reservationOf(denseReservation{node: []float64{0.5, 0, 0}, link: []float64{0, 0, 0, 0}})
	if !r.Fits(res) {
		t.Fatal("half-load reservation must fit a nominal node")
	}
	if err := r.ApplyChurn([]ChurnEvent{{Kind: CapacityDrift, Node: 0, Factor: 0.4}}); err != nil {
		t.Fatal(err)
	}
	if r.Fits(res) {
		t.Error("0.5 load must not fit a node drifted to 0.4 capacity")
	}
	if err := r.ApplyChurn([]ChurnEvent{{Kind: NodeUp, Node: 0}}); !errors.Is(err, ErrChurnConflict) {
		t.Errorf("NodeUp on drifted-but-up node: err = %v, want conflict", err)
	}
	if err := r.ApplyChurn([]ChurnEvent{{Kind: CapacityDrift, Node: 0, Factor: 100}}); err != nil {
		t.Fatal(err)
	}
	if got := r.NodeCapacity(0); got != 1 {
		t.Errorf("drift up must clamp at nominal, got %v", got)
	}
	if !r.Fits(res) {
		t.Error("reservation must fit again after capacity returns")
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return d <= 1e-12*scale
}
