package fleet

import (
	"testing"

	"elpc/internal/model"
)

// contendedFleet builds a fleet with enough streaming tenants that the early
// releases leave real room to rebalance into, mirroring
// TestRebalanceImprovesAfterRelease's setup.
func contendedFleet(t *testing.T) *ShardedFleet {
	t.Helper()
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	var admitted []Deployment
	for i := 0; i < 50; i++ {
		d, err := f.Deploy(Request{
			Pipeline:  testPipeline(t, 6, uint64(i+1)),
			Src:       0,
			Dst:       9,
			Objective: model.MaxFrameRate,
			SLO:       SLO{MinRateFPS: 1},
		})
		if err != nil {
			break
		}
		admitted = append(admitted, d)
	}
	if len(admitted) < 3 {
		t.Fatalf("too few admissions (%d) to exercise rebalance", len(admitted))
	}
	for _, d := range admitted[:len(admitted)/2] {
		if err := f.Release(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestRebalanceParallelKeepsInvariants: a rebalance pass on a contended
// fleet must leave capacity accounting exact — every applied move's
// reservation fits, guards hold, and releasing everything returns the
// fleet to zero load bit-for-bit.
func TestRebalanceParallelKeepsInvariants(t *testing.T) {
	f := contendedFleet(t)
	rep := f.Rebalance(RebalanceOptions{MaxMoves: 8, MinGain: 0.01})
	for _, mv := range rep.Moves {
		if mv.Applied && mv.Gain < 0.01 {
			t.Errorf("applied move %s gained only %v, below the guard", mv.ID, mv.Gain)
		}
		if !mv.Applied && mv.Reason == "" {
			t.Errorf("skipped move %s has no reason", mv.ID)
		}
	}
	for _, d := range f.List() {
		if d.RateFPS+1e-9 < d.ReservedFPS {
			t.Errorf("%s sustains %v fps but reserves %v", d.ID, d.RateFPS, d.ReservedFPS)
		}
		if err := f.Release(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	node, link := f.Utilization()
	for v, u := range node {
		if u != 0 {
			t.Errorf("node %d utilization not restored after rebalance: %v", v, u)
		}
	}
	for l, u := range link {
		if u != 0 {
			t.Errorf("link %d utilization not restored after rebalance: %v", l, u)
		}
	}
}
