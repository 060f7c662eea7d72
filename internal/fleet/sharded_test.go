package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
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
	snap := f.residual.Snapshot()
	for _, id := range f.order {
		rep.add(sloStatusOf(f.residual, snap, f.deps[id], shardLabel(f.idPrefix)))
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
		bare := newRegion(model.NewResidualNetwork(net), "")
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
		r1 := bare.Repair(a1)
		r2 := sharded.Repair(a2)
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

// TestShardStatsMatchesLedger holds each shard's ShardStats gauges, which
// walk only the shard's own nodes and internal links, to the partition and
// the fleet's one ledger on a loaded clustered fleet, the one-shard fleet
// (whose shard owns every link) included.
func TestShardStatsMatchesLedger(t *testing.T) {
	for _, k := range []int{1, 3, 8} {
		sf, net, _ := testClusteredFleet(t, k, 11)
		rng := gen.RNG(uint64(k))
		for i := 0; i < 40; i++ {
			_, _ = sf.Deploy(randomRequest(t, net, rng, i)) // rejections just thin the population
		}
		ss := sf.ShardStats()
		node, link := sf.Utilization()
		if len(ss.Shards) != k {
			t.Fatalf("k=%d: %d shard blocks", k, len(ss.Shards))
		}
		if ss.Coordinator.BoundaryLinks != len(sf.part.Boundary) {
			t.Errorf("k=%d: %d boundary links, partition has %d", k, ss.Coordinator.BoundaryLinks, len(sf.part.Boundary))
		}
		loaded := false
		for r, st := range ss.Shards {
			var links int
			var maxNode, maxLink float64
			for _, v := range sf.part.Regions[r] {
				maxNode = max(maxNode, node[v])
			}
			for l, owner := range sf.part.LinkOwner {
				if owner == r {
					links++
					maxLink = max(maxLink, link[l])
				}
			}
			if st.Shard != r || st.Nodes != len(sf.part.Regions[r]) || st.Links != links {
				t.Errorf("k=%d shard %d: shard %d with %d nodes and %d links, want %d and %d",
					k, r, st.Shard, st.Nodes, st.Links, len(sf.part.Regions[r]), links)
			}
			if st.MaxNodeUtil != maxNode || st.MaxLinkUtil != maxLink {
				t.Errorf("k=%d shard %d: max node/link util %v/%v, ledger %v/%v",
					k, r, st.MaxNodeUtil, st.MaxLinkUtil, maxNode, maxLink)
			}
			loaded = loaded || maxNode > 0
		}
		if !loaded {
			t.Fatalf("k=%d: no load on any shard; nothing compared", k)
		}
	}
}

// TestShardedWithPartitionValidates checks that a caller-supplied partition
// is rebuilt from its assignment: an assignment outside [0, K) is an error
// rather than a fleet that panics on its first deploy there, and regions,
// link owners and boundary that disagree with the assignment give way to
// the ones it implies.
func TestShardedWithPartitionValidates(t *testing.T) {
	net := testNetwork(t)
	good, err := model.PartitionNetwork(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range []int{7, 2, -1} {
		bad := *good
		bad.PartOf = slices.Clone(good.PartOf)
		bad.PartOf[3] = region
		if sf, err := NewShardedWithPartition(net, &bad); err == nil {
			t.Fatalf("PartOf[3] = %d: built a %d-shard fleet, want an error", region, sf.Shards())
		}
	}
	short := *good
	short.PartOf = good.PartOf[:net.N()-1]
	noRegions := *good
	noRegions.K = 0
	for name, part := range map[string]*model.Partition{"short assignment": &short, "k = 0": &noRegions, "nil": nil} {
		if _, err := NewShardedWithPartition(net, part); err == nil {
			t.Fatalf("%s partition: built a fleet, want an error", name)
		}
	}

	doctored := *good
	doctored.Regions = [][]model.NodeID{good.Regions[1], good.Regions[0]}
	doctored.LinkOwner = make([]int, net.M())
	doctored.Boundary = nil
	sf, err := NewShardedWithPartition(net, &doctored)
	if err != nil {
		t.Fatalf("doctored partition: %v", err)
	}
	want, err := model.NewPartitionFromAssignment(net, good.K, good.PartOf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sf.Partition(), want) {
		t.Fatalf("fleet partition %+v, want the one its assignment implies %+v", sf.Partition(), want)
	}
	req := Request{Pipeline: testPipeline(t, 4, 1), Src: 3, Dst: 3, Objective: model.MinDelay}
	if _, err := sf.Deploy(req); err != nil && !errors.Is(err, ErrRejected) {
		t.Fatalf("deploy on the rebuilt partition: %v", err)
	}
}

// TestShardedReservationInvariant hammers a four-shard fleet with
// concurrent intra- and cross-region deploys and releases (run under -race)
// and then verifies the cross-shard accounting invariants: the ledger's
// load equals the recomputed sum of live reservations — within summation
// tolerance, and bit for bit when summed in the order a composed view and
// per-shard views summed it — boundary-link load comes only from
// coordinator deployments, and releasing everything restores the ledger to
// exactly zero.
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

	// Invariant 1: the ledger's load equals the recomputed sum of the live
	// deployments' reservations (tolerance for summation order).
	var all, cross []model.Reservation
	own := make([][]model.Reservation, part.K)
	for _, d := range sf.List() {
		res, err := model.MappingReservation(net, pipes[d.ID], model.NewMapping(d.Assignment), d.ReservedFPS)
		if err != nil {
			t.Fatalf("reservation of %s: %v", d.ID, err)
		}
		all = append(all, res)
		if strings.HasPrefix(d.ID, "x-") {
			cross = append(cross, res)
		} else {
			own[shardOfID(d.ID)] = append(own[shardOfID(d.ID)], res)
		}
	}
	want := model.NewResidualNetwork(net)
	want.SetLoad(all)
	gotNode, gotLink := sf.Utilization()
	const tol = 1e-9
	for v := range gotNode {
		if w := want.NodeLoad(model.NodeID(v)); math.Abs(gotNode[v]-w) > tol {
			t.Fatalf("node %d load %v, want %v", v, gotNode[v], w)
		}
	}
	for l := range gotLink {
		if w := want.LinkLoad(l); math.Abs(gotLink[l]-w) > tol {
			t.Fatalf("link %d load %v, want %v", l, gotLink[l], w)
		}
	}

	// Invariant 1, exact: every load is, bit for bit, the sum a composed
	// view held — every shard's reservations in shard order, then the
	// coordinator's merged in admission order — and each region's elements
	// hold what a per-shard view held: the shard's own reservations, then
	// the merged overlay.
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	overlay := model.MergeReservations(cross)
	var regional []model.Reservation
	for _, rs := range own {
		regional = append(regional, rs...)
	}
	composed := model.NewResidualNetwork(net)
	composed.SetLoad(append(regional, overlay))
	for v := range gotNode {
		if w := composed.NodeLoad(model.NodeID(v)); !same(gotNode[v], w) {
			t.Fatalf("node %d load %v, want the composed sum %v bit for bit", v, gotNode[v], w)
		}
	}
	for l := range gotLink {
		if w := composed.LinkLoad(l); !same(gotLink[l], w) {
			t.Fatalf("link %d load %v, want the composed sum %v bit for bit", l, gotLink[l], w)
		}
	}
	for r, rs := range own {
		shard := model.NewResidualNetwork(net)
		shard.SetLoad(rs)
		shard.AddLoad(overlay)
		for _, v := range part.Regions[r] {
			if w := shard.NodeLoad(v); !same(gotNode[v], w) {
				t.Fatalf("shard %d node %d load %v, want the shard's own sum %v bit for bit", r, v, gotNode[v], w)
			}
		}
		for l, owner := range part.LinkOwner {
			if w := shard.LinkLoad(l); owner == r && !same(gotLink[l], w) {
				t.Fatalf("shard %d link %d load %v, want the shard's own sum %v bit for bit", r, l, gotLink[l], w)
			}
		}
	}

	// Invariant 2: boundary links carry load only from coordinator-owned
	// deployments.
	want.SetLoad(cross)
	for _, l := range sf.Partition().Boundary {
		if w := want.LinkLoad(l); math.Abs(gotLink[l]-w) > tol {
			t.Fatalf("boundary link %d load %v, want cross-only %v", l, gotLink[l], w)
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
	rep := sf.Repair(affected)
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

// TestChurnAnswersIndependentOfShards applies the same churn batches, in
// the same order, to K=1, 3 and 8 fleets over one clustered network: two
// fixed batches that mix events on nodes of different regions with an
// invalid one, then seeded random batches, valid and invalid — unknown
// nodes and links, conflicts, bad factors and targets, on internal and
// boundary links alike. After every batch all three fleets must return
// byte-identical errors (the first invalid event, named by its index in
// the batch) and equal Capacity(), and a refused batch must leave the
// capacity factors as they were.
func TestChurnAnswersIndependentOfShards(t *testing.T) {
	ks := []int{1, 3, 8}
	fleets := make([]*ShardedFleet, len(ks))
	var net *model.Network
	for i, k := range ks {
		fleets[i], net, _ = testClusteredFleet(t, k, 13)
	}
	boundary := fleets[len(fleets)-1].Partition().Boundary
	batches := [][]model.ChurnEvent{
		{{Kind: model.NodeDown, Node: 6}, {Kind: model.NodeUp, Node: 0}},
		{{Kind: model.NodeUp, Node: 6}, {Kind: model.NodeDown, Node: 17}},
	}
	// Well-formed events may still conflict with the state earlier batches
	// left; a third of the batches get one malformed event as well.
	rng := gen.RNG(23)
	node := func() model.NodeID { return model.NodeID(rng.IntN(net.N())) }
	link := func() int {
		if rng.IntN(2) == 0 {
			return boundary[rng.IntN(len(boundary))]
		}
		return rng.IntN(net.M())
	}
	wellFormed := func() model.ChurnEvent {
		switch rng.IntN(6) {
		case 0:
			return model.ChurnEvent{Kind: model.NodeDown, Node: node()}
		case 1:
			return model.ChurnEvent{Kind: model.NodeUp, Node: node()}
		case 2:
			return model.ChurnEvent{Kind: model.LinkDegrade, Link: link(), Factor: 0.1 + 0.8*rng.Float64()}
		case 3:
			return model.ChurnEvent{Kind: model.LinkRestore, Link: link()}
		case 4:
			return model.ChurnEvent{Kind: model.CapacityDrift, Node: node(), Factor: 0.5 + rng.Float64()}
		}
		return model.ChurnEvent{Kind: model.CapacityDrift, Target: model.TargetLink, Link: link(), Factor: 0.5 + rng.Float64()}
	}
	malformed := func() model.ChurnEvent {
		unknownNode := model.NodeID([]int{-1, net.N(), net.N() + 5}[rng.IntN(3)])
		unknownLink := []int{-1, net.M(), net.M() + 9}[rng.IntN(3)]
		switch rng.IntN(7) {
		case 0:
			return model.ChurnEvent{Kind: model.NodeDown, Node: unknownNode}
		case 1:
			return model.ChurnEvent{Kind: model.CapacityDrift, Node: unknownNode, Factor: 0.5}
		case 2:
			return model.ChurnEvent{Kind: model.LinkRestore, Link: unknownLink}
		case 3:
			return model.ChurnEvent{Kind: model.LinkDegrade, Link: link(), Factor: []float64{-0.5, 0, 1, 1.6}[rng.IntN(4)]}
		case 4:
			return model.ChurnEvent{Kind: model.CapacityDrift, Target: model.TargetLink, Link: link(), Factor: []float64{-1, 0}[rng.IntN(2)]}
		case 5:
			return model.ChurnEvent{Kind: model.CapacityDrift, Target: "rack", Node: node(), Factor: 0.5}
		}
		return model.ChurnEvent{Kind: "node_reboot", Node: node()}
	}
	for b := 0; b < 300; b++ {
		batch := make([]model.ChurnEvent, 1+rng.IntN(4))
		for i := range batch {
			batch[i] = wellFormed()
		}
		if rng.IntN(3) == 0 {
			batch[rng.IntN(len(batch))] = malformed()
		}
		batches = append(batches, batch)
	}

	outcomes := map[string]int{}
	for b, batch := range batches {
		var wantErr string
		var wantNode, wantLink []float64
		for i, sf := range fleets {
			preNode, preLink := sf.Capacity()
			err := sf.ApplyChurn(batch)
			gotErr := ""
			if err != nil {
				gotErr = err.Error()
			}
			gotNode, gotLink := sf.Capacity()
			if err != nil && (!reflect.DeepEqual(gotNode, preNode) || !reflect.DeepEqual(gotLink, preLink)) {
				t.Fatalf("batch %d %v: K=%d refused it (%v) but changed the capacity factors", b, batch, ks[i], err)
			}
			if i == 0 {
				wantErr, wantNode, wantLink = gotErr, gotNode, gotLink
				switch {
				case errors.Is(err, model.ErrUnknownTarget):
					outcomes["unknown target"]++
				case errors.Is(err, model.ErrChurnConflict):
					outcomes["conflict"]++
				case err != nil:
					outcomes["malformed"]++
				default:
					outcomes["applied"]++
				}
				continue
			}
			if gotErr != wantErr {
				t.Fatalf("batch %d %v: K=%d error %q, K=1 error %q", b, batch, ks[i], gotErr, wantErr)
			}
			if !reflect.DeepEqual(gotNode, wantNode) || !reflect.DeepEqual(gotLink, wantLink) {
				t.Fatalf("batch %d %v: K=%d capacity differs from K=1", b, batch, ks[i])
			}
		}
	}
	for _, outcome := range []string{"applied", "unknown target", "conflict", "malformed"} {
		if outcomes[outcome] == 0 {
			t.Errorf("no batch had outcome %q (outcomes %v)", outcome, outcomes)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

// TestShardedChurnUnderConcurrentTraffic commits churn to a four-shard
// fleet's one ledger while regional and cross-region deploys, releases,
// repairs, rebalances and SLO reports read it from other goroutines (run
// under -race), then checks that every region reads the ledger's factors:
// balanced down/up and degrade/restore cycles leave it nominal, and one
// more batch shows in every region's view.
func TestShardedChurnUnderConcurrentTraffic(t *testing.T) {
	spec := gen.ClusterSpec{Clusters: 4, Nodes: 6, Links: 16, InterLinks: 10}
	net, err := gen.ClusteredNetwork(spec, gen.DefaultRanges(), gen.RNG(5))
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
	bl := part.Boundary[0]

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			a := model.NodeID((i%spec.Clusters)*spec.Nodes + 1)
			b := model.NodeID(((i+1)%spec.Clusters)*spec.Nodes + 2)
			for _, batch := range [][]model.ChurnEvent{
				{{Kind: model.NodeDown, Node: a}, {Kind: model.NodeDown, Node: b}, {Kind: model.LinkDegrade, Link: bl, Factor: 0.3}},
				{{Kind: model.NodeUp, Node: a}, {Kind: model.NodeUp, Node: b}, {Kind: model.LinkRestore, Link: bl}},
			} {
				if err := sf.ApplyChurn(batch); err != nil {
					t.Errorf("churn %v: %v", batch, err)
					return
				}
				sf.Repair(sf.Affected(batch))
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := gen.RNG(uint64(200 + w))
			for i := 0; i < 15; i++ {
				pl, err := gen.Pipeline(3+rng.IntN(3), gen.DefaultRanges(), rng)
				if err != nil {
					t.Errorf("pipeline: %v", err)
					return
				}
				home, other := rng.IntN(spec.Clusters), rng.IntN(spec.Clusters)
				if rng.IntN(3) != 0 {
					other = home
				}
				src := model.NodeID(home*spec.Nodes + rng.IntN(spec.Nodes))
				dst := model.NodeID(other*spec.Nodes + rng.IntN(spec.Nodes))
				if src == dst {
					continue
				}
				d, err := sf.Deploy(Request{Pipeline: pl, Src: src, Dst: dst, Objective: model.MinDelay})
				if err != nil {
					if !errors.Is(err, ErrRejected) {
						t.Errorf("deploy: %v", err)
					}
					continue
				}
				if rng.IntN(2) == 0 {
					if err := sf.Release(d.ID); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("release %s: %v", d.ID, err)
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			sf.Rebalance(RebalanceOptions{})
			sf.SLOReport()
			sf.Stats()
			sf.Capacity()
		}
	}()
	wg.Wait()

	node, link := sf.Capacity()
	for v, f := range node {
		if f != 1 {
			t.Fatalf("node %d factor %v after balanced churn, want 1", v, f)
		}
	}
	for l, f := range link {
		if f != 1 {
			t.Fatalf("link %d factor %v after balanced churn, want 1", l, f)
		}
	}
	probe := model.NodeID(spec.Nodes + 3)
	if err := sf.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeDown, Node: probe}}); err != nil {
		t.Fatalf("probe churn: %v", err)
	}
	for _, f := range sf.regions {
		if !f.residual.NodeIsDown(probe) {
			t.Fatalf("region %q does not see node %d down", f.scope, probe)
		}
	}
}
