package fleet

import (
	"fmt"
	"testing"

	"elpc/internal/engine"
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

// rebalanceFingerprint renders a report for comparison across runs.
func rebalanceFingerprint(rep Report) string {
	out := fmt.Sprintf("considered=%d applied=%d;", rep.Considered, rep.Applied)
	for _, mv := range rep.Moves {
		out += fmt.Sprintf(" %s applied=%t gain=%.9f;", mv.ID, mv.Applied, mv.Gain)
	}
	return out
}

// TestRebalanceParallelDeterministic: the concurrent proposal phase must be
// deterministic — identical fleets rebalanced with the same Workers > 1
// produce identical reports, regardless of pool size.
func TestRebalanceParallelDeterministic(t *testing.T) {
	var want string
	for run := 0; run < 3; run++ {
		f := contendedFleet(t)
		pool := engine.NewPool(1 + run*3) // 1, 4, 7: parallelism must not matter
		f.UsePool(pool)
		rep := f.Rebalance(RebalanceOptions{MaxMoves: 8, MinGain: 0.01, Workers: 4})
		pool.Close()
		got := rebalanceFingerprint(rep)
		if run == 0 {
			want = got
			if rep.Considered == 0 {
				t.Fatal("parallel rebalance considered nothing")
			}
		} else if got != want {
			t.Fatalf("run %d differs:\nwant %s\ngot  %s", run, want, got)
		}
	}
}

// TestRebalanceParallelKeepsInvariants: a parallel pass must leave capacity
// accounting exact — every applied move's reservation fits, guards hold,
// and releasing everything returns the fleet to zero load bit-for-bit.
func TestRebalanceParallelKeepsInvariants(t *testing.T) {
	f := contendedFleet(t)
	rep := f.Rebalance(RebalanceOptions{MaxMoves: 8, MinGain: 0.01, Workers: 4})
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
			t.Errorf("node %d utilization not restored after parallel rebalance: %v", v, u)
		}
	}
	for l, u := range link {
		if u != 0 {
			t.Errorf("link %d utilization not restored after parallel rebalance: %v", l, u)
		}
	}
}

// TestRebalanceParallelWithoutPool: Workers > 1 with no installed pool
// spins up a transient one and still works.
func TestRebalanceParallelWithoutPool(t *testing.T) {
	f := contendedFleet(t)
	rep := f.Rebalance(RebalanceOptions{MaxMoves: 4, MinGain: 0.01, Workers: 3})
	if rep.Considered == 0 {
		t.Fatal("transient-pool rebalance considered nothing")
	}
}
