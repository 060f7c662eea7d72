package fleet

import (
	"errors"
	"reflect"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// crossFleet builds a 2-shard fleet over the two-cluster test topology,
// partitioned the way recovery rebuilds it, so cluster 0 (nodes 0..5) and
// cluster 1 (nodes 6..11) are the two regions.
func crossFleet(t *testing.T) (*ShardedFleet, *model.Network) {
	t.Helper()
	net, err := gen.ClusteredNetwork(testClusterSpec(), gen.DefaultRanges(), gen.RNG(7))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewSharded(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Partition().SameRegion(0, 11) {
		t.Fatal("partition does not separate the two clusters")
	}
	return sf, net
}

// crossRequest is a cross-region request from node 0 to node 11.
func crossRequest(t *testing.T, tenant string, class Class, seed uint64) Request {
	t.Helper()
	return Request{
		Tenant:    tenant,
		Pipeline:  testPipeline(t, 3, seed),
		Src:       0,
		Dst:       11,
		Objective: model.MinDelay,
		SLO:       SLO{Class: class},
	}
}

// TestCoordinatorRequeueRecovers parks a cross-region deployment, re-admits
// it through the coordinator with RequeueOf set (as the reconciler's
// requeue loop does), and reopens the log: recovery must drain the parked
// entry, or a restarted reconciler admits the tenant a second time.
func TestCoordinatorRequeueRecovers(t *testing.T) {
	sf, net := crossFleet(t)
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendInstall(l, net, 2); err != nil {
		t.Fatal(err)
	}
	sf.UseWAL(l)

	d, err := sf.Deploy(crossRequest(t, "cam", ClassStandard, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "x-d-000001" {
		t.Fatalf("cross-region deployment got ID %q, want x-d-000001", d.ID)
	}
	down := []model.ChurnEvent{{Kind: model.NodeDown, Node: 0}}
	if err := sf.ApplyChurn(down); err != nil {
		t.Fatal(err)
	}
	rep := sf.Repair(sf.Affected(down))
	if len(rep.Parked) != 1 || rep.Parked[0].ID != d.ID {
		t.Fatalf("repair parked %+v, want %s", rep.Parked, d.ID)
	}
	if err := sf.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeUp, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	req := rep.Parked[0].Req
	req.RequeueOf = rep.Parked[0].ID
	back, err := sf.Deploy(req)
	if err != nil {
		t.Fatalf("requeue: %v", err)
	}
	if back.ID != "x-d-000002" {
		t.Fatalf("requeued deployment got ID %q, want x-d-000002", back.ID)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, _ := recoverDir(t, dir)
	if got := len(r.Manager.List()); got != 1 {
		t.Errorf("recovered %d deployments, want 1", got)
	}
	if len(r.Parked) != 0 {
		t.Errorf("recovered parked pool %+v, want empty: the requeue drained it", r.Parked)
	}
}

// TestCoordinatorRepairClassOrder checks cross-region repair honors the
// RepairReport contract (outcomes in SLO class rank order): a guaranteed
// deployment re-fits before a best-effort one admitted earlier, as
// regional repair does.
func TestCoordinatorRepairClassOrder(t *testing.T) {
	sf, _ := crossFleet(t)
	be, err := sf.Deploy(crossRequest(t, "be", ClassBestEffort, 2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sf.Deploy(crossRequest(t, "g", ClassGuaranteed, 3))
	if err != nil {
		t.Fatal(err)
	}
	if be.ID != "x-d-000001" || g.ID != "x-d-000002" {
		t.Fatalf("cross-region IDs %q, %q; want x-d-000001, x-d-000002", be.ID, g.ID)
	}
	down := []model.ChurnEvent{{Kind: model.NodeDown, Node: 0}}
	if err := sf.ApplyChurn(down); err != nil {
		t.Fatal(err)
	}
	rep := sf.Repair(sf.Affected(down))
	if len(rep.Outcomes) != 2 {
		t.Fatalf("repair outcomes %+v, want 2", rep.Outcomes)
	}
	if rep.Outcomes[0].ID != g.ID || rep.Outcomes[1].ID != be.ID {
		t.Fatalf("repair order %s, %s; want the guaranteed %s first", rep.Outcomes[0].ID, rep.Outcomes[1].ID, g.ID)
	}
}

// twoPhaseNetwork is a four-node diamond the partitioner splits into
// regions {v0, v1} and {v2, v3}: a cross-region pipeline v0 -> v3 runs its
// heavy module on v1 (power 100) or, when v1 is taken, on v2 (power 90).
func twoPhaseNetwork(t *testing.T) *model.Network {
	t.Helper()
	nodes := []model.Node{{ID: 0, Power: 50}, {ID: 1, Power: 100}, {ID: 2, Power: 90}, {ID: 3, Power: 50}}
	var links []model.Link
	for _, e := range [][2]model.NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		links = append(links,
			model.Link{ID: len(links), From: e[0], To: e[1], BWMbps: 100, MLDms: 1},
			model.Link{ID: len(links) + 1, From: e[1], To: e[0], BWMbps: 100, MLDms: 1})
	}
	net, err := model.NewNetwork(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// streamRequest is a max-frame-rate request for a pipeline of a free
// source module followed by modules of the given complexities; with no
// stated rate it reserves everything its bottleneck node has left.
func streamRequest(t *testing.T, tenant string, src, dst model.NodeID, complexity ...float64) Request {
	t.Helper()
	mods := []model.Module{{ID: 0, OutBytes: 1000}}
	for _, c := range complexity {
		mods = append(mods, model.Module{ID: len(mods), Complexity: c, InBytes: 1000, OutBytes: 1000})
	}
	pl, err := model.NewPipeline(mods)
	if err != nil {
		t.Fatal(err)
	}
	return Request{Tenant: tenant, Pipeline: pl, Src: src, Dst: dst, Objective: model.MaxFrameRate}
}

// TestTwoPhaseRetryAndAbort lands a regional admission between a
// cross-region deployment's solve and its reservation. The regional
// max-frame-rate deploy saturates the node the proposal placed its heavy
// module on, so the phase-2 fit fails (2pc_validate) and the coordinator
// re-solves on the fresher view. Landing it in the first round only lets
// the second round commit elsewhere; landing one in each round exhausts
// the rounds (2pc_abort, deploy_rejected). Both counters recover from the
// log.
func TestTwoPhaseRetryAndAbort(t *testing.T) {
	for _, tc := range []struct {
		name            string
		hogs            []Request // hogs[i] lands between the phases of round i+1
		admitted        bool
		retries, aborts uint64
		events          []string // shard:kind, in journal order
	}{
		{
			name:     "retry",
			hogs:     []Request{streamRequest(t, "hog-v1", 0, 1, 5)},
			admitted: true, retries: 1,
			// The regional record closes first: the coordinator's epoch
			// spans both rounds.
			events: []string{"s0:deploy_admitted",
				"x:2pc_reserve", "x:2pc_validate", "x:2pc_reserve", "x:deploy_admitted", "x:2pc_commit"},
		},
		{
			name:    "abort",
			hogs:    []Request{streamRequest(t, "hog-v1", 0, 1, 5), streamRequest(t, "hog-v2", 3, 2, 5)},
			retries: 2, aborts: 1,
			events: []string{"s0:deploy_admitted", "s1:deploy_admitted",
				"x:2pc_reserve", "x:2pc_validate", "x:2pc_reserve", "x:2pc_validate", "x:2pc_abort", "x:deploy_rejected"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := twoPhaseNetwork(t)
			dir := t.TempDir()
			sf, l := newWALManager(t, dir, net, 2)
			if sf.Partition().SameRegion(0, 3) || !sf.Partition().SameRegion(0, 1) || !sf.Partition().SameRegion(2, 3) {
				t.Fatalf("partition %v does not split the diamond into {v0, v1} and {v2, v3}", sf.Partition().PartOf)
			}
			jr := journal.New(64)
			sf.UseJournal(jr)
			round := 0
			sf.betweenPhases = func() {
				if round < len(tc.hogs) {
					hog := tc.hogs[round]
					if _, err := sf.shards[sf.part.Region(hog.Src)].Deploy(hog); err != nil {
						t.Errorf("round %d regional admission: %v", round+1, err)
					}
				}
				round++
			}

			_, err := sf.Deploy(streamRequest(t, "cross", 0, 3, 5, 1))
			if tc.admitted != (err == nil) || (err != nil && !errors.Is(err, ErrRejected)) {
				t.Fatalf("cross-region deploy: err %v, want admitted=%v", err, tc.admitted)
			}
			var events []string
			for _, ev := range jr.Since(0, 0) {
				events = append(events, ev.Shard+":"+string(ev.Kind))
			}
			if !reflect.DeepEqual(events, tc.events) {
				t.Errorf("journal events %v, want %v", events, tc.events)
			}
			live := sf.ShardStats().Coordinator
			if live.TwoPhaseRetries != tc.retries || live.TwoPhaseAborts != tc.aborts {
				t.Errorf("coordinator stats %+v, want %d retries and %d aborts", live, tc.retries, tc.aborts)
			}

			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			r, _ := recoverDir(t, dir)
			if got := r.Manager.ShardStats().Coordinator; got != live {
				t.Errorf("recovered coordinator stats %+v, live %+v", got, live)
			}
		})
	}
}
