package churn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/model"
)

func testFleet(t testing.TB) *fleet.ShardedFleet {
	t.Helper()
	net, err := gen.Network(10, 60, gen.DefaultRanges(), gen.RNG(42))
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(net)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func deployN(t testing.TB, f *fleet.ShardedFleet, n int) []fleet.Deployment {
	t.Helper()
	out := make([]fleet.Deployment, 0, n)
	for i := 0; i < n; i++ {
		pl, err := gen.Pipeline(4+i%3, gen.DefaultRanges(), gen.RNG(uint64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		d, err := f.Deploy(fleet.Request{
			Tenant:    "t",
			Pipeline:  pl,
			Src:       model.NodeID(i % 10),
			Dst:       model.NodeID((i + 5) % 10),
			Objective: model.MaxFrameRate,
			SLO:       fleet.SLO{MinRateFPS: 1},
		})
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		out = append(out, d)
	}
	return out
}

func TestApplyRecordsAndLog(t *testing.T) {
	f := testFleet(t)
	deployN(t, f, 6)
	r := New(f, Options{})

	rec, err := r.Apply([]model.ChurnEvent{{Kind: model.NodeDown, Node: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 1 {
		t.Errorf("seq = %d, want 1", rec.Seq)
	}
	if rec.Kept+rec.Migrated+rec.Parked != rec.Affected {
		t.Errorf("record accounting broken: %+v", rec)
	}
	if rec.Displaced != rec.Migrated+rec.Parked {
		t.Errorf("displaced = %d, want %d", rec.Displaced, rec.Migrated+rec.Parked)
	}
	if rec.RepairMs < 0 {
		t.Errorf("negative repair latency %v", rec.RepairMs)
	}
	if got := r.Log(0); len(got) != 1 || got[0].Seq != 1 {
		t.Errorf("log = %+v, want the one record", got)
	}
	st := r.Stats()
	if st.Batches != 1 || st.EventsApplied != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestApplyErrorLeavesStateUntouched(t *testing.T) {
	f := testFleet(t)
	deployN(t, f, 3)
	r := New(f, Options{})

	before := f.SolveCount()
	_, err := r.Apply([]model.ChurnEvent{
		{Kind: model.NodeDown, Node: 1},
		{Kind: model.NodeDown, Node: 99}, // unknown: aborts the batch
	})
	if !errors.Is(err, model.ErrUnknownTarget) {
		t.Fatalf("err = %v, want ErrUnknownTarget", err)
	}
	if len(r.Log(0)) != 0 {
		t.Error("failed batch must not be logged")
	}
	if f.SolveCount() != before {
		t.Error("failed batch must not trigger repair solves")
	}
	nodeCap, _ := f.Capacity()
	if nodeCap[1] != 1 {
		t.Error("failed batch partially applied: node 1 down")
	}

	if _, err := r.Apply(nil); err == nil {
		t.Error("empty batch must error")
	}
	// Double-down through the reconciler surfaces the conflict.
	if _, err := r.Apply([]model.ChurnEvent{{Kind: model.NodeDown, Node: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply([]model.ChurnEvent{{Kind: model.NodeDown, Node: 1}}); !errors.Is(err, model.ErrChurnConflict) {
		t.Errorf("double-down err = %v, want ErrChurnConflict", err)
	}
}

// TestParkedRequeuedOnRestore is the parked-not-lost path end to end: a
// down destination parks a deployment; restoring the node re-admits it in
// the same Apply cycle.
func TestParkedRequeuedOnRestore(t *testing.T) {
	f := testFleet(t)
	pl, err := gen.Pipeline(4, gen.DefaultRanges(), gen.RNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(fleet.Request{
		Tenant: "cam", Pipeline: pl, Src: 0, Dst: 9,
		Objective: model.MaxFrameRate, SLO: fleet.SLO{MinRateFPS: 1},
	}); err != nil {
		t.Fatal(err)
	}
	r := New(f, Options{})

	rec, err := r.Apply([]model.ChurnEvent{{Kind: model.NodeDown, Node: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Parked != 1 {
		t.Fatalf("record = %+v, want 1 parked (dst down leaves no feasible placement)", rec)
	}
	if got := r.Parked(); len(got) != 1 || got[0].Tenant != "cam" {
		t.Fatalf("parked queue = %+v", got)
	}
	if st := f.Stats(); st.Deployments != 0 {
		t.Fatalf("fleet still has %d deployments", st.Deployments)
	}

	rec, err = r.Apply([]model.ChurnEvent{{Kind: model.NodeUp, Node: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requeued != 1 {
		t.Errorf("record = %+v, want 1 requeued", rec)
	}
	if got := r.Parked(); len(got) != 0 {
		t.Errorf("parked queue not drained: %+v", got)
	}
	if st := f.Stats(); st.Deployments != 1 {
		t.Errorf("fleet has %d deployments after requeue, want 1", st.Deployments)
	}
}

// TestBackgroundRequeueLoop parks a deployment, restores capacity directly
// on the fleet (no event batch), and waits for the background loop to
// re-admit it.
func TestBackgroundRequeueLoop(t *testing.T) {
	f := testFleet(t)
	pl, err := gen.Pipeline(4, gen.DefaultRanges(), gen.RNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(fleet.Request{
		Pipeline: pl, Src: 0, Dst: 9,
		Objective: model.MaxFrameRate, SLO: fleet.SLO{MinRateFPS: 1},
	}); err != nil {
		t.Fatal(err)
	}
	r := New(f, Options{RequeueInterval: 5 * time.Millisecond})
	if _, err := r.Apply([]model.ChurnEvent{{Kind: model.NodeDown, Node: 9}}); err != nil {
		t.Fatal(err)
	}
	if len(r.Parked()) != 1 {
		t.Fatal("expected one parked deployment")
	}
	// Capacity returns behind the reconciler's back.
	if err := f.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeUp, Node: 9}}); err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Start() // idempotent
	defer r.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for len(r.Parked()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never requeued the parked deployment")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := f.Stats(); st.Deployments != 1 {
		t.Errorf("fleet has %d deployments, want 1", st.Deployments)
	}
	r.Stop()
	r.Stop() // idempotent
}

// TestChurnRebalanceRaceStress mixes churn event batches, rebalance
// passes, deploys/releases, and stats reads; run under -race it checks the
// locking of the whole churn surface.
func TestChurnRebalanceRaceStress(t *testing.T) {
	f := testFleet(t)
	deployN(t, f, 6)
	r := New(f, Options{RequeueInterval: time.Millisecond})
	r.Start()
	defer r.Stop()

	const rounds = 25
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := r.Apply([]model.ChurnEvent{{Kind: model.NodeDown, Node: model.NodeID(1 + i%3)}}); err != nil {
				t.Errorf("down: %v", err)
				return
			}
			if _, err := r.Apply([]model.ChurnEvent{{Kind: model.NodeUp, Node: model.NodeID(1 + i%3)}}); err != nil {
				t.Errorf("up: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			f.Rebalance(fleet.RebalanceOptions{MaxMoves: 2})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			pl, err := gen.Pipeline(4, gen.DefaultRanges(), gen.RNG(uint64(500+i)))
			if err != nil {
				t.Errorf("gen: %v", err)
				return
			}
			d, err := f.Deploy(fleet.Request{
				Pipeline: pl, Src: 0, Dst: 9,
				Objective: model.MaxFrameRate, SLO: fleet.SLO{MinRateFPS: 0.5},
			})
			if err != nil {
				continue // rejection under churn is expected
			}
			_ = f.Release(d.ID)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_ = r.Stats()
			_ = r.Log(8)
			_ = f.Stats()
			_, _ = f.Capacity()
		}
	}()
	wg.Wait()

	// The fleet must end consistent: loads within capacity everywhere.
	nodeU, linkU := f.Utilization()
	nodeCap, linkCap := f.Capacity()
	const eps = 1e-9
	for v, u := range nodeU {
		if u > nodeCap[v]+eps {
			t.Errorf("node %d load %v exceeds capacity %v", v, u, nodeCap[v])
		}
	}
	for l, u := range linkU {
		if u > linkCap[l]+eps {
			t.Errorf("link %d load %v exceeds capacity %v", l, u, linkCap[l])
		}
	}
}
