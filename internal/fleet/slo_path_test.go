package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
)

// This file pins what scoring the path a reservation records buys and
// must keep: one SLO report on a compliant fleet allocates only its
// status slice, a deployment that reserves nothing is still scored on its
// path, and Affected, which walks the same recorded path, names exactly
// the deployments the mapping walk it replaced named.

// suite8Network is the Suite20 case-8 network (50 nodes, 1000 links), the
// plain fleet of the end-to-end benchmark's fleet workloads.
func suite8Network(t testing.TB) *model.Network {
	t.Helper()
	p, err := gen.Suite20()[7].Build()
	if err != nil {
		t.Fatal(err)
	}
	return p.Net
}

// anyEndpoints draws two distinct nodes of net.
func anyEndpoints(net *model.Network) func(*rand.Rand) (model.NodeID, model.NodeID) {
	return func(rng *rand.Rand) (model.NodeID, model.NodeID) {
		src := rng.IntN(net.N())
		return model.NodeID(src), model.NodeID((src + 1 + rng.IntN(net.N()-1)) % net.N())
	}
}

// loadFleet admits up to target deployments with the end-to-end
// benchmark's request mix — 4 to 8 modules, min-delay or max-frame-rate, a
// stated rate of 1 to 6 fps, every SLO class — between endpoints drawn by
// ends, and returns how many it admitted.
func loadFleet(t testing.TB, f *ShardedFleet, target int, seed uint64, ends func(*rand.Rand) (model.NodeID, model.NodeID)) int {
	t.Helper()
	rng := gen.RNG(seed)
	classes := []Class{ClassGuaranteed, ClassStandard, ClassStandard, ClassStandard, ClassBestEffort}
	n := 0
	for attempt := 0; n < target && attempt < 8*target; attempt++ {
		pl, err := gen.Pipeline(4+rng.IntN(5), gen.DefaultRanges(), rng)
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Pipeline: pl, Objective: model.MinDelay,
			SLO: SLO{MinRateFPS: 1 + 5*rng.Float64(), Class: classes[rng.IntN(len(classes))]}}
		req.Src, req.Dst = ends(rng)
		if rng.IntN(2) == 0 {
			req.Objective = model.MaxFrameRate
		}
		switch _, err := f.Deploy(req); {
		case err == nil:
			n++
		case !errors.Is(err, ErrRejected):
			t.Fatal(err)
		}
	}
	return n
}

// zeroByteRequest is a max-frame-rate request, with no stated rate, for a
// three-module pipeline that moves zero bytes: every stage takes zero time,
// so the placement sustains rate zero and is admitted reserving zero
// frames per second, holding no share — yet its path has a delay, the
// minimum link delay of its two hops.
func zeroByteRequest(t testing.TB) Request {
	t.Helper()
	pl, err := model.NewPipeline([]model.Module{{ID: 0}, {ID: 1, Complexity: 1}, {ID: 2, Complexity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return Request{Tenant: "zero-bytes", Pipeline: pl, Src: 0, Dst: 1, Objective: model.MaxFrameRate}
}

// TestSLOReportAllocs holds one SLO report to a single allocation, its
// status slice, on both fleet shapes BenchmarkSLOReport times: the plain
// fleet on the Suite20 case-8 network and 8 shards on the clustered
// gen.DefaultClusterSpec network with some deployments across clusters.
// Every deployment of a freshly loaded fleet is compliant; a violation
// would add its reason string.
func TestSLOReportAllocs(t *testing.T) {
	spec := gen.DefaultClusterSpec()
	clustered, err := gen.ClusteredNetwork(spec, gen.DefaultRanges(), gen.RNG(2026))
	if err != nil {
		t.Fatal(err)
	}
	suite8 := suite8Network(t)
	for _, tc := range []struct {
		name   string
		net    *model.Network
		shards int
		target int
		ends   func(*rand.Rand) (model.NodeID, model.NodeID)
	}{
		{"plain-n50", suite8, 1, 160, anyEndpoints(suite8)},
		{"shards8-n504", clustered, spec.Clusters, 128, func(rng *rand.Rand) (model.NodeID, model.NodeID) {
			a, c := rng.IntN(spec.Clusters), rng.IntN(spec.Clusters)
			if rng.IntN(6) != 0 {
				c = a
			}
			src := rng.IntN(spec.Nodes)
			dst := (src + 1 + rng.IntN(spec.Nodes-1)) % spec.Nodes
			return model.NodeID(a*spec.Nodes + src), model.NodeID(c*spec.Nodes + dst)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewSharded(tc.net, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			loaded := loadFleet(t, f, tc.target, 2026, tc.ends)
			if tc.shards > 1 && f.CoordinatorStats().Deployments == 0 {
				t.Fatal("no deployment crosses clusters")
			}
			if rep := f.SLOReport(); rep.Evaluated != loaded || rep.Violating != 0 || loaded < tc.target/2 {
				t.Fatalf("report evaluated %d of %d admitted (target %d), %d violating", rep.Evaluated, loaded, tc.target, rep.Violating)
			}
			allocs := testing.AllocsPerRun(20, func() { f.SLOReport() })
			if allocs > 1 {
				t.Errorf("one SLO report over %d deployments allocates %v times, want at most 1", loaded, allocs)
			}
			t.Logf("%d deployments (%d across regions): %v allocations per report", loaded, f.CoordinatorStats().Deployments, allocs)
		})
	}
}

// TestSLOReportZeroRateDeployment admits the zero-byte deployment beside a
// loaded fleet at K=1 and K=3. It reserves zero fps and holds no share —
// the ledger's loads do not move — yet the report scores it on its path:
// delay the sum of its hops' minimum link delays, rate zero, compliant,
// equal bit for bit to the full-materialization reference.
func TestSLOReportZeroRateDeployment(t *testing.T) {
	net := suite8Network(t)
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			f, err := NewSharded(net, k)
			if err != nil {
				t.Fatal(err)
			}
			loadFleet(t, f, 40, uint64(30+k), anyEndpoints(net))
			nodeBefore, linkBefore := f.Utilization()
			dep, err := f.Deploy(zeroByteRequest(t))
			if err != nil {
				t.Fatal(err)
			}
			if dep.ReservedFPS != 0 || dep.RateFPS != 0 {
				t.Fatalf("zero-byte deployment admitted at %v fps reserving %v, want 0 and 0", dep.RateFPS, dep.ReservedFPS)
			}
			if node, link := f.Utilization(); !reflect.DeepEqual(node, nodeBefore) || !reflect.DeepEqual(link, linkBefore) {
				t.Fatal("a zero-rate deployment moved the ledger's loads")
			}
			mld := 0.0
			walk := model.NewMapping(dep.Assignment).Walk()
			for i := 0; i+1 < len(walk); i++ {
				l, ok := net.LinkBetween(walk[i], walk[i+1])
				if !ok {
					t.Fatalf("no link v%d->v%d on %s", walk[i], walk[i+1], dep.Mapping)
				}
				mld += l.MLDms
			}
			if len(walk) != 3 || mld <= 0 {
				t.Fatalf("mapping %s: want two hops with a positive delay", dep.Mapping)
			}

			var got *SLOStatus
			rep := f.SLOReport()
			for i := range rep.Statuses {
				if rep.Statuses[i].ID == dep.ID {
					got = &rep.Statuses[i]
				}
			}
			if got == nil {
				t.Fatalf("the report has no status for %s", dep.ID)
			}
			if math.Float64bits(got.DelayMs) != math.Float64bits(mld) || got.RateFPS != 0 || !got.Compliant {
				t.Errorf("status %+v, want delay %v (the MLD of %s), rate 0, compliant", *got, mld, dep.Mapping)
			}
			var want SLOStatus
			f.composed(func(rn *model.ResidualNetwork) {
				owner := f.regions[f.regionOf(dep.ID)]
				want = referenceStatus(t, rn, owner.deps[dep.ID], shardLabel(owner.idPrefix))
			})
			if d := reportDiff(SLOReport{Evaluated: 1, Statuses: []SLOStatus{*got}}, SLOReport{Evaluated: 1, Statuses: []SLOStatus{want}}); d != "" {
				t.Errorf("zero-byte status differs from the reference: %s", d)
			}
		})
	}
}

// referenceTouches is the walk Affected ran before reservations recorded
// their paths, kept as its reference: d's mapping regrouped, and each hop's
// link looked up on base.
func referenceTouches(base *model.Network, d *Deployment, nodes map[model.NodeID]bool, links map[int]bool) bool {
	groups := model.NewMapping(d.Assignment).Groups()
	for gi, g := range groups {
		if nodes[g.Node] {
			return true
		}
		if gi+1 < len(groups) && len(links) > 0 {
			if link, ok := base.LinkBetween(g.Node, groups[gi+1].Node); ok && links[link.ID] {
				return true
			}
		}
	}
	return false
}

// referenceAffected is ShardedFleet.Affected through referenceTouches.
func referenceAffected(s *ShardedFleet, events []model.ChurnEvent) []string {
	nodes, links := churnTargets(events)
	s.lockAll()
	defer s.unlockAll()
	var out []string
	for _, f := range s.regions {
		for _, d := range f.order {
			if referenceTouches(s.base, d, nodes, links) {
				out = append(out, d.ID)
			}
		}
	}
	return out
}

// TestAffectedMatchesPathReference loads the Suite20 case-8 network at K=1
// and K=3, admits the zero-byte deployment, and requires Affected to name
// exactly the deployments the reference mapping walk names for every
// single-event and three-event batch of a seeded gen.Churn trace — applied
// in order, each followed by a repair of what it touched — and for batches
// aimed at the zero-byte deployment's zero-cost source, its middle node and
// each of its hops, which must name it.
func TestAffectedMatchesPathReference(t *testing.T) {
	net := suite8Network(t)
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			f, err := NewSharded(net, k)
			if err != nil {
				t.Fatal(err)
			}
			loadFleet(t, f, 120, uint64(40+k), anyEndpoints(net))
			zero, err := f.Deploy(zeroByteRequest(t))
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, batch []model.ChurnEvent) []string {
				t.Helper()
				got, want := f.Affected(batch), referenceAffected(f, batch)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v: Affected %v, reference %v", what, batch, got, want)
				}
				return got
			}

			walk := model.NewMapping(zero.Assignment).Walk()
			aimed := []model.ChurnEvent{
				{Kind: model.NodeDown, Node: walk[0]},
				{Kind: model.CapacityDrift, Target: model.TargetNode, Node: walk[1], Factor: 0.5},
			}
			for i := 0; i+1 < len(walk); i++ {
				l, _ := net.LinkBetween(walk[i], walk[i+1])
				aimed = append(aimed, model.ChurnEvent{Kind: model.LinkDegrade, Link: l.ID, Factor: 0.5})
			}
			for _, ev := range aimed {
				if got := check("aimed batch", []model.ChurnEvent{ev}); !slices.Contains(got, zero.ID) {
					t.Fatalf("aimed batch %v: Affected %v misses the zero-byte deployment %s on %s", ev, got, zero.ID, zero.Mapping)
				}
			}

			trace, err := gen.Churn(gen.DefaultChurnSpec(), net, gen.RNG(uint64(50+k)))
			if err != nil {
				t.Fatal(err)
			}
			touched := 0
			for i, ev := range trace {
				if i%5 == 0 && i+3 <= len(trace) {
					var batch []model.ChurnEvent
					for _, te := range trace[i : i+3] {
						batch = append(batch, te.Event)
					}
					check(fmt.Sprintf("trace events %d-%d", i, i+2), batch)
				}
				batch := []model.ChurnEvent{ev.Event}
				ids := check(fmt.Sprintf("trace event %d", i), batch)
				if len(ids) > 0 {
					touched++
				}
				if err := f.ApplyChurn(batch); err != nil {
					t.Fatalf("trace event %d %v: %v", i, ev.Event, err)
				}
				f.Repair(ids)
			}
			if touched == 0 {
				t.Fatal("no trace event touched a deployment")
			}
		})
	}
}
