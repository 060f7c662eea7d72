package fleet

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
)

// This file holds repair and rebalance to the scores a full
// materialization gives. Both free each candidate's reservation before they
// score it; the reference below frees it the same way, materializes the
// whole ledger, and scores with model.TotalDelay and
// model.SharedBottleneck, where the fleet keeps its solves' scores and
// walks a kept path on the ledger.

// freedView frees deployment id's reservation, as repair and rebalance do
// for a candidate, and returns the whole ledger materialized then and the
// mapping a cold re-solve finds on it (on the region's sub-network when the
// deployment is regional, in global node IDs; nil when the solve fails).
// It then puts the reservation back, leaving every load bit for bit as it
// was.
func freedView(t *testing.T, s *ShardedFleet, id string) (snap *model.Network, resolved *model.Mapping) {
	t.Helper()
	f := s.regions[s.regionOf(id)]
	s.lockAll()
	defer s.unlockAll()
	d := f.deps[id]
	saved := d.reservation
	d.reservation = model.Reservation{}
	f.recomputeLocked()
	snap = f.residual.Snapshot()

	req := requestOf(d)
	req.warm = nil
	sub := snap
	if f.view != nil {
		sub = f.residual.RegionSnapshot(f.view)
		req.Src, req.Dst = model.NodeID(f.view.Local(req.Src)), model.NodeID(f.view.Local(req.Dst))
	}
	m, _, _, err := solve(sub, req, d.cost, nil)
	switch {
	case err == nil && f.view != nil:
		resolved = f.view.ToGlobal(m)
	case err == nil:
		resolved = m
	case !errors.Is(err, model.ErrInfeasible):
		t.Fatalf("%s: reference re-solve: %v", id, err)
	}

	d.reservation = saved
	f.recomputeLocked()
	return snap, resolved
}

// referenceScores scores assign, a mapping of d's pipeline, on snap: its
// Eq. 1 delay under d's cost options and its Eq. 2 shared-bottleneck rate.
func referenceScores(snap *model.Network, d Deployment, assign []model.NodeID) (delay, rate float64) {
	m := model.NewMapping(assign)
	return model.TotalDelay(snap, d.pipe, m, d.cost), model.FrameRate(model.SharedBottleneck(snap, d.pipe, m))
}

// sameBits reports whether x and y are the same float64, bit for bit.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// checkRepairScores repairs deployment id alone and requires a kept or
// migrated outcome to report the scores its surviving mapping has on the
// reference view with id freed, bit for bit.
func checkRepairScores(t *testing.T, s *ShardedFleet, id string, cover map[string]int) {
	t.Helper()
	before, ok := s.Describe(id)
	if !ok {
		t.Fatalf("%s: affected deployment is not live", id)
	}
	snap, _ := freedView(t, s, id)
	rep := s.Repair([]string{id})
	if len(rep.Outcomes) != 1 {
		t.Fatalf("%s: repair outcomes %+v, want one", id, rep.Outcomes)
	}
	out := rep.Outcomes[0]
	assign := before.Assignment
	switch out.Action {
	case RepairKept:
	case RepairMigrated:
		after, _ := s.Describe(id)
		assign = after.Assignment
	default:
		cover["parked"]++
		return
	}
	delay, rate := referenceScores(snap, before, assign)
	if !sameBits(out.DelayMs, delay) || !sameBits(out.RateFPS, rate) {
		t.Fatalf("%s %s on %v: repair scored delay %v rate %v, reference delay %v rate %v",
			id, out.Action, assign, out.DelayMs, out.RateFPS, delay, rate)
	}
	cover[out.Action]++
}

// checkRebalanceScores runs a rebalance pass of at most one move per shard
// and requires every move's OldValue and NewValue — the candidate's current
// mapping and its re-solve, scored on the view with the candidate freed —
// to equal the reference's bit for bit, and an applied move to place the
// re-solved mapping with its scores. Each shard's candidates score on the
// ledger as it stood before the pass: a pass restores every candidate it
// declines exactly, stops at its first move, and a move in one region
// changes no element a deployment of another region reads.
func checkRebalanceScores(t *testing.T, s *ShardedFleet, cover map[string]int) {
	t.Helper()
	type reference struct {
		d        Deployment
		snap     *model.Network
		resolved *model.Mapping
	}
	refs := make(map[string]reference)
	for _, d := range s.List() {
		if s.regionOf(d.ID) < s.part.K { // coordinator deployments are not rebalanced
			snap, resolved := freedView(t, s, d.ID)
			refs[d.ID] = reference{d, snap, resolved}
		}
	}
	rep := s.Rebalance(RebalanceOptions{MaxMoves: 1})
	for _, mv := range rep.Moves {
		ref, ok := refs[mv.ID]
		if !ok {
			t.Fatalf("rebalance considered %s, which is not a live regional deployment", mv.ID)
		}
		var oldValue, newValue float64
		if ref.resolved != nil {
			oldDelay, oldRate := referenceScores(ref.snap, ref.d, ref.d.Assignment)
			newDelay, newRate := referenceScores(ref.snap, ref.d, ref.resolved.Assign)
			oldValue, newValue = oldRate, newRate
			if ref.d.Objective == model.MinDelay {
				oldValue, newValue = oldDelay, newDelay
			}
			if mv.Applied {
				after, _ := s.Describe(mv.ID)
				if !slices.Equal(after.Assignment, ref.resolved.Assign) ||
					!sameBits(after.DelayMs, newDelay) || !sameBits(after.RateFPS, newRate) {
					t.Fatalf("%s: applied move placed %v scored delay %v rate %v, reference %v delay %v rate %v",
						mv.ID, after.Assignment, after.DelayMs, after.RateFPS, ref.resolved.Assign, newDelay, newRate)
				}
			}
		}
		if !sameBits(mv.OldValue, oldValue) || !sameBits(mv.NewValue, newValue) {
			t.Fatalf("%s: move %+v, reference old %v new %v", mv.ID, mv, oldValue, newValue)
		}
		switch {
		case mv.Applied:
			cover["move applied"]++
		case ref.resolved != nil:
			cover["move declined"]++
		}
	}
}

// TestRepairRebalanceScoresMatchReference drives K=1, 3 and 8 fleets through
// a populated fleet and a seeded gen.Churn trace, repairing each deployment
// an event touches on its own and rebalancing one move per shard after every
// fifth event, and requires every kept and migrated outcome and every
// rebalance move to carry the reference scores, bit for bit (see
// checkRepairScores, checkRebalanceScores). It fails unless the comparisons
// include kept and migrated outcomes and applied and declined moves.
func TestRepairRebalanceScoresMatchReference(t *testing.T) {
	spec := gen.ClusterSpec{Clusters: 8, Nodes: 6, Links: 20, InterLinks: 24}
	net, err := gen.ClusteredNetwork(spec, gen.DefaultRanges(), gen.RNG(17))
	if err != nil {
		t.Fatal(err)
	}
	cover := map[string]int{}
	for _, k := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			s, err := NewSharded(net, k)
			if err != nil {
				t.Fatal(err)
			}
			rng := gen.RNG(uint64(300 + k))
			for tag := 0; tag < 36; tag++ {
				if _, err := s.Deploy(diffRequest(t, s, spec, rng, tag)); err != nil && !errors.Is(err, ErrRejected) {
					t.Fatalf("deploy %d: %v", tag, err)
				}
			}
			checkRebalanceScores(t, s, cover)
			trace, err := gen.Churn(gen.DefaultChurnSpec(), net, gen.RNG(uint64(400+k)))
			if err != nil {
				t.Fatal(err)
			}
			for i, te := range trace {
				batch := []model.ChurnEvent{te.Event}
				if err := s.ApplyChurn(batch); err != nil {
					t.Fatalf("event %d %v: %v", i, te.Event, err)
				}
				for _, id := range s.Affected(batch) {
					checkRepairScores(t, s, id, cover)
				}
				if i%5 == 4 {
					checkRebalanceScores(t, s, cover)
				}
			}
		})
	}
	for _, regime := range []string{RepairKept, RepairMigrated, "move applied", "move declined"} {
		if cover[regime] == 0 {
			t.Errorf("no comparison covered %q (coverage %v)", regime, cover)
		}
	}
	t.Logf("coverage: %v", cover)
}
