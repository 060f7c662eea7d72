package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
)

// testClusterSpec is a small two-cluster topology: 2x6 nodes, dense enough
// inside each cluster for placements, with a handful of boundary links.
func testClusterSpec() gen.ClusterSpec {
	return gen.ClusterSpec{Clusters: 2, Nodes: 6, Links: 16, InterLinks: 6}
}

func testClusteredFleet(t *testing.T, shards int, seed uint64) (*ShardedFleet, *model.Network, gen.ClusterSpec) {
	t.Helper()
	spec := testClusterSpec()
	net, err := gen.ClusteredNetwork(spec, gen.DefaultRanges(), gen.RNG(seed))
	if err != nil {
		t.Fatalf("clustered network: %v", err)
	}
	part, err := spec.ClusterPartition(net)
	if err != nil {
		t.Fatalf("cluster partition: %v", err)
	}
	if shards != spec.Clusters {
		p2, err := model.PartitionNetwork(net, shards)
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		part = p2
	}
	sf, err := NewShardedWithPartition(net, part)
	if err != nil {
		t.Fatalf("sharded fleet: %v", err)
	}
	return sf, net, spec
}

// randomRequest draws one deployment request over net with the shared test
// mix of objectives and SLOs.
func randomRequest(t *testing.T, net *model.Network, rng *rand.Rand, tag int) Request {
	t.Helper()
	pl, err := gen.Pipeline(3+rng.IntN(4), gen.DefaultRanges(), rng)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	src := model.NodeID(rng.IntN(net.N()))
	dst := model.NodeID(rng.IntN(net.N() - 1))
	if dst >= src {
		dst++
	}
	req := Request{Tenant: fmt.Sprintf("t%d", tag), Pipeline: pl, Src: src, Dst: dst}
	if tag%2 == 0 {
		req.Objective = model.MaxFrameRate
		req.SLO = SLO{MinRateFPS: 1 + 2*rng.Float64()}
	} else {
		req.Objective = model.MinDelay
	}
	return req
}

// regionStats is a bare region's Stats: its counters and tallies plus the
// utilization of its own residual view.
func regionStats(f *region) Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var st Stats
	f.addStatsLocked(&st)
	st.setUtilization(f.residual)
	return st
}

// regionSLOReport scores a bare region's deployments on its own residual
// view.
func regionSLOReport(f *region) SLOReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	var rep SLOReport
	for _, id := range f.order {
		rep.add(sloStatusOf(f.residual, f.deps[id], shardLabel(f.idPrefix)))
	}
	return rep
}

// TestShardedK1Equivalence replays a randomized deploy/release/churn/repair
// sequence against a bare region and the one-shard manager New builds, and
// requires byte-identical outcomes: same admissions and rejections (same
// error strings), same deployment JSON, same stats, repair reports, SLO
// report, and residual network.
// K=1 is the manager's correctness anchor — routing, the coordinator, and
// the composed view must all vanish at one shard.
func TestShardedK1Equivalence(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rngA := gen.RNG(seed)
		net, err := gen.Network(12, 70, gen.DefaultRanges(), rngA)
		if err != nil {
			t.Fatalf("network: %v", err)
		}
		bare := newRegion(net, "")
		sharded, err := New(net)
		if err != nil {
			t.Fatalf("fleet: %v", err)
		}

		reqRNG := gen.RNG(seed ^ 0xabcdef)
		var ids []string
		for i := 0; i < 24; i++ {
			req := randomRequest(t, net, reqRNG, i)
			d1, err1 := bare.Deploy(req)
			d2, err2 := sharded.Deploy(req)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed %d req %d: region err=%v sharded err=%v", seed, i, err1, err2)
			}
			if err1 != nil {
				if err1.Error() != err2.Error() {
					t.Fatalf("seed %d req %d: error mismatch:\n  region:  %v\n  sharded: %v", seed, i, err1, err2)
				}
				continue
			}
			b1, _ := json.Marshal(d1)
			b2, _ := json.Marshal(d2)
			if string(b1) != string(b2) {
				t.Fatalf("seed %d req %d: deployment mismatch:\n  region:  %s\n  sharded: %s", seed, i, b1, b2)
			}
			ids = append(ids, d1.ID)
			// Release roughly a third of admissions as we go.
			if reqRNG.IntN(3) == 0 && len(ids) > 0 {
				victim := ids[reqRNG.IntN(len(ids))]
				e1 := bare.Release(victim)
				e2 := sharded.Release(victim)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("seed %d release %q: region err=%v sharded err=%v", seed, victim, e1, e2)
				}
			}
		}

		// Churn one node and one link, then run the repair frontier on both.
		events := []model.ChurnEvent{
			{Kind: model.NodeDown, Node: model.NodeID(reqRNG.IntN(net.N()))},
			{Kind: model.LinkDegrade, Link: reqRNG.IntN(net.M()), Factor: 0.3},
		}
		if err1, err2 := bare.residual.ApplyChurn(events), sharded.ApplyChurn(events); (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d churn: region err=%v sharded err=%v", seed, err1, err2)
		}
		a1, a2 := bare.Affected(events), sharded.Affected(events)
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("seed %d affected mismatch: %v vs %v", seed, a1, a2)
		}
		r1 := bare.Repair(a1, RepairOptions{})
		r2 := sharded.Repair(a2, RepairOptions{})
		j1, _ := json.Marshal(r1)
		j2, _ := json.Marshal(r2)
		if string(j1) != string(j2) {
			t.Fatalf("seed %d repair mismatch:\n  region:  %s\n  sharded: %s", seed, j1, j2)
		}

		reb1 := bare.Rebalance(RebalanceOptions{})
		reb2 := sharded.Rebalance(RebalanceOptions{})
		jb1, _ := json.Marshal(reb1)
		jb2, _ := json.Marshal(reb2)
		if string(jb1) != string(jb2) {
			t.Fatalf("seed %d rebalance mismatch:\n  region:  %s\n  sharded: %s", seed, jb1, jb2)
		}

		l1, _ := json.Marshal(bare.List())
		l2, _ := json.Marshal(sharded.List())
		if string(l1) != string(l2) {
			t.Fatalf("seed %d list mismatch:\n  region:  %s\n  sharded: %s", seed, l1, l2)
		}
		if s1, s2 := regionStats(bare), sharded.Stats(); !reflect.DeepEqual(s1, s2) {
			t.Fatalf("seed %d stats mismatch:\n  region:  %+v\n  sharded: %+v", seed, s1, s2)
		}
		if r1, r2 := regionSLOReport(bare), sharded.SLOReport(); !reflect.DeepEqual(r1, r2) {
			t.Fatalf("seed %d SLO report mismatch:\n  region:  %+v\n  sharded: %+v", seed, r1, r2)
		}
		n1, _ := json.Marshal(bare.residual.Snapshot())
		n2, _ := json.Marshal(sharded.Snapshot())
		if string(n1) != string(n2) {
			t.Fatalf("seed %d residual snapshot mismatch", seed)
		}
	}
}

// TestShardedRouting checks placement-affinity routing on a two-cluster
// fleet: intra-cluster deployments land on their shard (s<k>- IDs) without
// ever touching the other region's elements, and cross-cluster deployments
// go through the coordinator (x- IDs) and may reserve boundary links.
func TestShardedRouting(t *testing.T) {
	sf, _, spec := testClusteredFleet(t, 2, 7)
	rng := gen.RNG(99)

	deployIn := func(cluster int) Deployment {
		t.Helper()
		for try := 0; try < 20; try++ {
			pl, err := gen.Pipeline(3, gen.DefaultRanges(), rng)
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			src := model.NodeID(cluster*spec.Nodes + rng.IntN(spec.Nodes))
			dst := model.NodeID(cluster*spec.Nodes + rng.IntN(spec.Nodes))
			if src == dst {
				continue
			}
			d, err := sf.Deploy(Request{Pipeline: pl, Src: src, Dst: dst, Objective: model.MinDelay})
			if err == nil {
				return d
			}
		}
		t.Fatalf("no intra-cluster deployment admitted in cluster %d", cluster)
		return Deployment{}
	}

	d0 := deployIn(0)
	if !strings.HasPrefix(d0.ID, "s0-") {
		t.Fatalf("cluster-0 deployment got ID %q, want s0- prefix", d0.ID)
	}
	d1 := deployIn(1)
	if !strings.HasPrefix(d1.ID, "s1-") {
		t.Fatalf("cluster-1 deployment got ID %q, want s1- prefix", d1.ID)
	}
	for _, d := range []Deployment{d0, d1} {
		home := sf.Partition().Region(d.Assignment[0])
		for _, v := range d.Assignment {
			if sf.Partition().Region(v) != home {
				t.Fatalf("intra-cluster deployment %s crosses regions: %v", d.ID, d.Assignment)
			}
		}
	}

	// Cross-cluster endpoints force the coordinator path.
	var dx Deployment
	admitted := false
	for try := 0; try < 20 && !admitted; try++ {
		pl, err := gen.Pipeline(3, gen.DefaultRanges(), rng)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		src := model.NodeID(rng.IntN(spec.Nodes))
		dst := model.NodeID(spec.Nodes + rng.IntN(spec.Nodes))
		dx, err = sf.Deploy(Request{Pipeline: pl, Src: src, Dst: dst, Objective: model.MinDelay})
		admitted = err == nil
	}
	if !admitted {
		t.Fatalf("no cross-cluster deployment admitted")
	}
	if !strings.HasPrefix(dx.ID, "x-") {
		t.Fatalf("cross-cluster deployment got ID %q, want x- prefix", dx.ID)
	}

	// Describe and Release route by ID namespace.
	for _, id := range []string{d0.ID, d1.ID, dx.ID} {
		if _, ok := sf.Describe(id); !ok {
			t.Fatalf("Describe(%q) not found", id)
		}
	}
	if got := len(sf.List()); got != 3 {
		t.Fatalf("List has %d deployments, want 3", got)
	}
	st := sf.Stats()
	if st.Deployments != 3 {
		t.Fatalf("Stats.Deployments = %d, want 3", st.Deployments)
	}
	for _, id := range []string{d0.ID, d1.ID, dx.ID} {
		if err := sf.Release(id); err != nil {
			t.Fatalf("Release(%q): %v", id, err)
		}
	}
	if err := sf.Release(dx.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double release: got %v, want ErrNotFound", err)
	}

	// With everything released, the composed view must be exactly empty.
	node, link := sf.Utilization()
	for v, u := range node {
		if u != 0 {
			t.Fatalf("node %d load %v after releasing everything", v, u)
		}
	}
	for l, u := range link {
		if u != 0 {
			t.Fatalf("link %d load %v after releasing everything", l, u)
		}
	}
}

// TestShardedFallback forces a regional rejection that the coordinator can
// satisfy: a no-reuse (max-frame-rate) pipeline longer than its home region
// has nodes must fall back to a global placement spanning the boundary.
func TestShardedFallback(t *testing.T) {
	sf, _, spec := testClusteredFleet(t, 2, 11)
	rng := gen.RNG(5)
	admitted := false
	var d Deployment
	for try := 0; try < 30 && !admitted; try++ {
		pl, err := gen.Pipeline(spec.Nodes+2, gen.DefaultRanges(), rng)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		src := model.NodeID(rng.IntN(spec.Nodes))
		dst := model.NodeID(rng.IntN(spec.Nodes - 1))
		if dst >= src {
			dst++
		}
		d, err = sf.Deploy(Request{Pipeline: pl, Src: src, Dst: dst, Objective: model.MaxFrameRate})
		admitted = err == nil
	}
	if !admitted {
		t.Skip("no over-long pipeline admitted even globally on this topology")
	}
	if !strings.HasPrefix(d.ID, "x-") {
		t.Fatalf("fallback deployment got ID %q, want coordinator x- prefix", d.ID)
	}
	ss := sf.ShardStats()
	if ss.Coordinator.Fallbacks == 0 {
		t.Fatalf("coordinator fallbacks = 0, want > 0")
	}
	// The request-level stats must not double-count the regional rejection.
	st := sf.Stats()
	if st.Admitted != 1 {
		t.Fatalf("Stats.Admitted = %d, want 1", st.Admitted)
	}
	if st.Rejected != ss.Coordinator.Rejected {
		t.Fatalf("Stats.Rejected = %d, want coordinator rejections only (%d)", st.Rejected, ss.Coordinator.Rejected)
	}
}

// TestShardedReservationInvariant hammers a four-shard fleet with
// concurrent intra- and cross-region deploys and releases (run under -race)
// and then verifies the cross-shard accounting invariants: the composed
// load equals the recomputed sum of live reservations, boundary-link load
// comes only from coordinator deployments, and releasing everything
// restores the composed view to exactly zero.
func TestShardedReservationInvariant(t *testing.T) {
	spec := gen.ClusterSpec{Clusters: 4, Nodes: 6, Links: 16, InterLinks: 10}
	net, err := gen.ClusteredNetwork(spec, gen.DefaultRanges(), gen.RNG(3))
	if err != nil {
		t.Fatalf("clustered network: %v", err)
	}
	part, err := spec.ClusterPartition(net)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	sf, err := NewShardedWithPartition(net, part)
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}

	type admission struct {
		id   string
		pipe *model.Pipeline
	}
	var mu sync.Mutex
	var live []admission
	pipes := make(map[string]*model.Pipeline)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := gen.RNG(uint64(100 + w))
			for i := 0; i < 15; i++ {
				pl, err := gen.Pipeline(3+rng.IntN(3), gen.DefaultRanges(), rng)
				if err != nil {
					t.Errorf("pipeline: %v", err)
					return
				}
				home := rng.IntN(spec.Clusters)
				src := model.NodeID(home*spec.Nodes + rng.IntN(spec.Nodes))
				var dst model.NodeID
				if rng.IntN(4) == 0 { // every fourth request crosses regions
					other := (home + 1 + rng.IntN(spec.Clusters-1)) % spec.Clusters
					dst = model.NodeID(other*spec.Nodes + rng.IntN(spec.Nodes))
				} else {
					d := rng.IntN(spec.Nodes - 1)
					if model.NodeID(home*spec.Nodes+d) >= src {
						d++
					}
					dst = model.NodeID(home*spec.Nodes + d)
				}
				req := Request{Tenant: fmt.Sprintf("w%d-%d", w, i), Pipeline: pl, Src: src, Dst: dst, Objective: model.MaxFrameRate, SLO: SLO{MinRateFPS: 1}}
				d, err := sf.Deploy(req)
				if err != nil {
					if !errors.Is(err, ErrRejected) {
						t.Errorf("deploy: %v", err)
					}
					continue
				}
				mu.Lock()
				live = append(live, admission{id: d.ID, pipe: pl})
				pipes[d.ID] = pl
				// Release an earlier admission now and then.
				var victim string
				if len(live) > 4 && rng.IntN(3) == 0 {
					k := rng.IntN(len(live))
					victim = live[k].id
					live = append(live[:k], live[k+1:]...)
				}
				mu.Unlock()
				if victim != "" {
					if err := sf.Release(victim); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("release %s: %v", victim, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Invariant 1: composed load equals the recomputed sum of the live
	// deployments' reservations (tolerance for summation order).
	wantNode := make([]float64, net.N())
	wantLink := make([]float64, net.M())
	for _, d := range sf.List() {
		res, err := model.MappingReservation(net, pipes[d.ID], model.NewMapping(d.Assignment), d.ReservedFPS)
		if err != nil {
			t.Fatalf("reservation of %s: %v", d.ID, err)
		}
		for i, f := range res.NodeFrac {
			wantNode[i] += f
		}
		for i, f := range res.LinkFrac {
			wantLink[i] += f
		}
	}
	gotNode, gotLink := sf.Utilization()
	const tol = 1e-9
	for v := range wantNode {
		if math.Abs(gotNode[v]-wantNode[v]) > tol {
			t.Fatalf("node %d load %v, want %v", v, gotNode[v], wantNode[v])
		}
	}
	for l := range wantLink {
		if math.Abs(gotLink[l]-wantLink[l]) > tol {
			t.Fatalf("link %d load %v, want %v", l, gotLink[l], wantLink[l])
		}
	}

	// Invariant 2: boundary links carry load only from coordinator-owned
	// deployments.
	crossLink := make([]float64, net.M())
	for _, d := range sf.List() {
		if !strings.HasPrefix(d.ID, "x-") {
			continue
		}
		res, err := model.MappingReservation(net, pipes[d.ID], model.NewMapping(d.Assignment), d.ReservedFPS)
		if err != nil {
			t.Fatalf("reservation of %s: %v", d.ID, err)
		}
		for i, f := range res.LinkFrac {
			crossLink[i] += f
		}
	}
	for _, l := range sf.Partition().Boundary {
		if math.Abs(gotLink[l]-crossLink[l]) > tol {
			t.Fatalf("boundary link %d load %v, want cross-only %v", l, gotLink[l], crossLink[l])
		}
	}

	// Invariant 3: releasing everything restores exact zero (recompute from
	// the empty outstanding set, no floating-point residue).
	for _, d := range sf.List() {
		if err := sf.Release(d.ID); err != nil {
			t.Fatalf("release %s: %v", d.ID, err)
		}
	}
	gotNode, gotLink = sf.Utilization()
	for v, u := range gotNode {
		if u != 0 {
			t.Fatalf("node %d load %v after releasing everything, want exact 0", v, u)
		}
	}
	for l, u := range gotLink {
		if u != 0 {
			t.Fatalf("link %d load %v after releasing everything, want exact 0", l, u)
		}
	}
}

// TestShardedChurnRouting checks that churn stays regional: an event inside
// one region only affects (and only repairs) that region's deployments,
// costing solves proportional to the broken set alone, and that boundary
// and unknown-target events behave like the unsharded fleet's.
func TestShardedChurnRouting(t *testing.T) {
	sf, net, spec := testClusteredFleet(t, 2, 13)
	rng := gen.RNG(17)

	// Populate both clusters.
	perCluster := make([][]string, spec.Clusters)
	for c := 0; c < spec.Clusters; c++ {
		for i := 0; i < 6; i++ {
			pl, err := gen.Pipeline(3, gen.DefaultRanges(), rng)
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			src := model.NodeID(c*spec.Nodes + rng.IntN(spec.Nodes))
			dst := model.NodeID(c*spec.Nodes + rng.IntN(spec.Nodes))
			if src == dst {
				continue
			}
			d, err := sf.Deploy(Request{Pipeline: pl, Src: src, Dst: dst, Objective: model.MinDelay})
			if err != nil {
				continue
			}
			perCluster[c] = append(perCluster[c], d.ID)
		}
	}
	if len(perCluster[0]) == 0 || len(perCluster[1]) == 0 {
		t.Fatalf("need deployments in both clusters, got %d/%d", len(perCluster[0]), len(perCluster[1]))
	}

	// Fail a node used by some cluster-0 deployment.
	target := model.NodeID(0)
	for _, id := range perCluster[0] {
		d, _ := sf.Describe(id)
		if len(d.Assignment) > 1 {
			target = d.Assignment[1]
			break
		}
	}
	events := []model.ChurnEvent{{Kind: model.NodeDown, Node: target}}
	if err := sf.ApplyChurn(events); err != nil {
		t.Fatalf("apply churn: %v", err)
	}
	affected := sf.Affected(events)
	for _, id := range affected {
		if strings.HasPrefix(id, "s1-") {
			t.Fatalf("cluster-1 deployment %s affected by a cluster-0 node failure", id)
		}
	}

	pre := sf.SolveCount()
	rep := sf.Repair(affected, RepairOptions{})
	if got := sf.SolveCount() - pre; got != uint64(rep.Resolved) {
		t.Fatalf("repair cost %d solves for %d broken deployments; repair must stay incremental", got, rep.Resolved)
	}
	if rep.Checked != len(affected) {
		t.Fatalf("repair checked %d, want %d", rep.Checked, len(affected))
	}

	// Unknown targets and conflicting events keep the unsharded semantics.
	if err := sf.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeDown, Node: model.NodeID(net.N() + 5)}}); !errors.Is(err, model.ErrUnknownTarget) {
		t.Fatalf("unknown node: got %v, want ErrUnknownTarget", err)
	}
	if err := sf.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeDown, Node: target}}); !errors.Is(err, model.ErrChurnConflict) {
		t.Fatalf("double down: got %v, want ErrChurnConflict", err)
	}
	// A failed batch must change nothing anywhere: re-down a cluster-1 node
	// together with the conflicting event, then verify the node is still up.
	probe := model.NodeID(spec.Nodes) // first node of cluster 1
	err := sf.ApplyChurn([]model.ChurnEvent{
		{Kind: model.NodeDown, Node: probe},
		{Kind: model.NodeDown, Node: target}, // conflicts: already down
	})
	if !errors.Is(err, model.ErrChurnConflict) {
		t.Fatalf("mixed batch: got %v, want ErrChurnConflict", err)
	}
	if err := sf.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeDown, Node: probe}}); err != nil {
		t.Fatalf("probe node should still be up after the aborted batch: %v", err)
	}

	// Boundary-link events route to the coordinator and stay appliable.
	if len(sf.Partition().Boundary) == 0 {
		t.Fatalf("two-cluster partition has no boundary links")
	}
	bl := sf.Partition().Boundary[0]
	if err := sf.ApplyChurn([]model.ChurnEvent{{Kind: model.LinkDegrade, Link: bl, Factor: 0.4}}); err != nil {
		t.Fatalf("boundary degrade: %v", err)
	}
	if err := sf.ApplyChurn([]model.ChurnEvent{{Kind: model.LinkRestore, Link: bl}}); err != nil {
		t.Fatalf("boundary restore: %v", err)
	}
}
