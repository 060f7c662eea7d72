package fleet

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// TestFleetJournalEvents checks the journal threading: every admission,
// rejection, and release records exactly one typed event carrying the
// deployment identity, and the per-deployment timeline replays them in
// order.
func TestFleetJournalEvents(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	jr := journal.New(64)
	f.UseJournal(jr)

	d, err := f.Deploy(Request{
		Tenant: "viz", Pipeline: testPipeline(t, 5, 1),
		Src: 0, Dst: 9, Objective: model.MinDelay,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An impossible SLO records a rejection with the tenant but no ID.
	if _, err := f.Deploy(Request{
		Tenant: "greedy", Pipeline: testPipeline(t, 5, 2),
		Src: 0, Dst: 9, Objective: model.MinDelay, SLO: SLO{MaxDelayMs: 1e-6},
	}); !errors.Is(err, ErrRejected) {
		t.Fatalf("want rejection, got %v", err)
	}
	if err := f.Release(d.ID); err != nil {
		t.Fatal(err)
	}

	evs := jr.Since(0, 0)
	if len(evs) != 3 {
		t.Fatalf("journal has %d events, want admit/reject/release: %+v", len(evs), evs)
	}
	admit, rej, rel := evs[0], evs[1], evs[2]
	if admit.Kind != wal.DeployAdmitted || admit.Deployment != d.ID || admit.Tenant != "viz" ||
		admit.Mapping != d.Mapping || admit.DelayMs != d.DelayMs {
		t.Errorf("admission event = %+v", admit)
	}
	if admit.Actor != journal.ActorFleet || admit.Shard != "main" {
		t.Errorf("admission attribution = actor %q shard %q", admit.Actor, admit.Shard)
	}
	if rej.Kind != wal.DeployRejected || rej.Tenant != "greedy" || rej.Detail == "" {
		t.Errorf("rejection event = %+v", rej)
	}
	if rel.Kind != wal.ReleaseDone || rel.Deployment != d.ID || rel.Tenant != "viz" {
		t.Errorf("release event = %+v", rel)
	}

	tl := jr.Timeline(d.ID)
	if len(tl) != 2 || tl[0].Kind != wal.DeployAdmitted || tl[1].Kind != wal.ReleaseDone {
		t.Errorf("timeline = %+v, want [admit release]", tl)
	}
}

// TestSLOReportCompliantFleet checks a freshly admitted population scores
// fully compliant: admission control guarantees the SLOs hold on the
// network it admitted against.
func TestSLOReportCompliantFleet(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	deps := deployN(t, f, 6)
	rep := f.SLOReport()
	if rep.Evaluated != len(deps) || rep.Compliant != len(deps) || rep.Violating != 0 {
		t.Fatalf("report = %d evaluated, %d compliant, %d violating; statuses %+v",
			rep.Evaluated, rep.Compliant, rep.Violating, rep.Statuses)
	}
	for _, st := range rep.Statuses {
		if !st.Compliant || st.Reason != "" || st.Shard != "main" {
			t.Errorf("status = %+v", st)
		}
		if st.RateFPS < st.ReservedFPS {
			t.Errorf("delivered rate %.3f below reserved %.3f for %s", st.RateFPS, st.ReservedFPS, st.ID)
		}
	}
	if vt := rep.ViolatingTenants(); len(vt) != 0 {
		t.Errorf("violating tenants = %v, want none", vt)
	}
}

// TestSLOReportDetectsChurnViolations applies churn directly to the
// capacity view — deliberately skipping Repair — and checks SLOReport
// notices the delivered/promised gap the repair cycle would have fixed:
// that separation is what lets /v1/health observe violations between churn
// and repair, and catch any repair that silently under-delivers.
func TestSLOReportDetectsChurnViolations(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	deps := deployN(t, f, 6)

	// Fail a node some deployment is placed on, without repairing.
	victim := deps[0].Assignment[len(deps[0].Assignment)/2]
	if err := f.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeDown, Node: victim}}); err != nil {
		t.Fatal(err)
	}
	rep := f.SLOReport()
	if rep.Evaluated != len(deps) || rep.Violating == 0 {
		t.Fatalf("report after unrepaired node_down: %d evaluated, %d violating", rep.Evaluated, rep.Violating)
	}
	found := false
	for _, st := range rep.Statuses {
		if st.ID == deps[0].ID {
			found = true
			if st.Compliant || !strings.Contains(st.Reason, "down") {
				t.Errorf("victim status = %+v, want down-node violation", st)
			}
		}
	}
	if !found {
		t.Fatalf("victim %s missing from report", deps[0].ID)
	}
	if vt := rep.ViolatingTenants(); len(vt) == 0 {
		t.Error("violating tenants empty despite violations")
	}

	// Repair resolves the gap: afterwards every surviving deployment is
	// compliant again (parked ones are no longer evaluated).
	f.Repair(f.Affected([]model.ChurnEvent{{Kind: model.NodeDown, Node: victim}}), RepairOptions{})
	rep = f.SLOReport()
	if rep.Violating != 0 {
		t.Errorf("report after repair still has %d violating: %+v", rep.Violating, rep.Statuses)
	}
}

// TestShardedSLOReportAndJournal checks the sharded manager's SLO scoring
// on the composed view and the coordinator's 2PC journal events.
func TestShardedSLOReportAndJournal(t *testing.T) {
	net := testNetwork(t)
	s, err := NewSharded(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	jr := journal.New(256)
	s.UseJournal(jr)

	// Deploy across every (src, dst) pair class until we have both regional
	// and cross-region deployments.
	admitted := 0
	for i := 0; i < 8 && admitted < 6; i++ {
		_, err := s.Deploy(Request{
			Tenant:   "t",
			Pipeline: testPipeline(t, 4+i%3, uint64(20+i)),
			Src:      model.NodeID(i % net.N()),
			Dst:      model.NodeID((i + 5) % net.N()),
			SLO:      SLO{MinRateFPS: 1},
		})
		if err != nil {
			continue
		}
		admitted++
	}
	if admitted == 0 {
		t.Fatal("no deployments admitted")
	}
	rep := s.SLOReport()
	if rep.Evaluated != admitted || rep.Compliant != admitted {
		t.Fatalf("sharded report = %d evaluated, %d compliant (admitted %d): %+v",
			rep.Evaluated, rep.Compliant, admitted, rep.Statuses)
	}

	// Every cross-region admission must have journaled its 2PC commit.
	var crossAdmits, commits int
	for _, ev := range jr.Since(0, 0) {
		switch ev.Kind {
		case wal.DeployAdmitted:
			if ev.Shard == "x" {
				crossAdmits++
			}
		case wal.TwoPhaseCommit:
			commits++
		}
	}
	if crossAdmits != commits {
		t.Errorf("%d cross admissions but %d 2pc_commit events", crossAdmits, commits)
	}
	if st := s.ShardStats(); st.Coordinator.Admitted != uint64(crossAdmits) {
		t.Errorf("coordinator admitted %d, journal saw %d", st.Coordinator.Admitted, crossAdmits)
	}
}

// TestJournalUnderConcurrentFleetOps hammers one shared journal from
// concurrent deploy/release/churn/rebalance traffic (run with -race) and
// checks the retained window stays dense and correctly indexed.
func TestJournalUnderConcurrentFleetOps(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	jr := journal.New(128)
	f.UseJournal(jr)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d, err := f.Deploy(Request{
					Tenant:   "w",
					Pipeline: testPipeline(t, 4, uint64(w*100+i)),
					Src:      model.NodeID((w + i) % 10),
					Dst:      model.NodeID((w + i + 3) % 10),
				})
				if err == nil && i%2 == 0 {
					_ = f.Release(d.ID)
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			batch := []model.ChurnEvent{{Kind: model.CapacityDrift, Target: model.TargetNode, Node: model.NodeID(i % 10), Factor: 0.95}}
			if err := f.ApplyChurn(batch); err == nil {
				f.Repair(f.Affected(batch), RepairOptions{})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			f.Rebalance(RebalanceOptions{MaxMoves: 2, MinGain: 0.01})
		}
	}()
	wg.Wait()

	st := jr.Stats()
	if st.LastSeq == 0 {
		t.Fatal("no events recorded")
	}
	if st.Depth > st.Capacity {
		t.Fatalf("depth %d exceeds capacity %d", st.Depth, st.Capacity)
	}
	evs := jr.Since(0, 0)
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("retained window has a gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if uint64(len(evs))+st.Dropped != st.LastSeq {
		t.Fatalf("accounting: %d retained + %d dropped != %d appended", len(evs), st.Dropped, st.LastSeq)
	}
}
