package churn

import (
	"testing"

	"elpc/internal/fleet"
	"elpc/internal/model"
)

// BenchmarkChurnRepair measures one full reconciliation cycle — apply a
// node failure, identify the affected deployments, re-solve them, commit
// migrations/parks — on a 10-node/60-link fleet carrying 8 deployments.
// The fleet is rebuilt outside the timer each iteration so every cycle
// repairs the same pre-churn state. This is the bench-gate entry for the
// churn subsystem: its wall clock is the per-event repair latency the
// /v1/events endpoint pays.
func BenchmarkChurnRepair(b *testing.B) {
	// Pick a victim node some (not all) deployments touch.
	pick := func(f *fleet.ShardedFleet) model.NodeID {
		n := f.Network().N()
		counts := make([]int, n)
		deps := f.List()
		for _, d := range deps {
			seen := make(map[model.NodeID]bool)
			for _, v := range d.Assignment {
				if !seen[v] {
					seen[v] = true
					counts[v]++
				}
			}
		}
		for v, c := range counts {
			if c > 0 && c < len(deps) {
				return model.NodeID(v)
			}
		}
		return 0
	}

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := testFleet(b)
		deployN(b, f, 8)
		r := New(f, Options{})
		victim := pick(f)
		b.StartTimer()

		rec, err := r.Apply([]model.ChurnEvent{{Kind: model.NodeDown, Node: victim}})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Affected == 0 {
			b.Fatal("benchmark repaired nothing; victim selection broken")
		}
	}
}
