package model

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// residualTestNet builds a 3-node line v0 -> v1 -> v2 with known attributes:
// powers 1000/2000/4000 ops/ms, both links 80 Mbps (10000 bytes/ms), MLD 1 ms.
func residualTestNet(t *testing.T) *Network {
	t.Helper()
	net, err := NewNetwork(
		[]Node{
			{ID: 0, Power: 1000},
			{ID: 1, Power: 2000},
			{ID: 2, Power: 4000},
		},
		[]Link{
			{ID: 0, From: 0, To: 1, BWMbps: 80, MLDms: 1},
			{ID: 1, From: 1, To: 2, BWMbps: 80, MLDms: 1},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// residualTestPipe builds a 3-module pipeline: source emits 10000 bytes,
// stage-1 (complexity 10) emits 5000 bytes, sink (complexity 4) emits none.
func residualTestPipe(t *testing.T) *Pipeline {
	t.Helper()
	pl, err := NewPipeline([]Module{
		{ID: 0, OutBytes: 10000},
		{ID: 1, Complexity: 10, InBytes: 10000, OutBytes: 5000},
		{ID: 2, Complexity: 4, InBytes: 5000, OutBytes: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestMappingReservationUtilization(t *testing.T) {
	net := residualTestNet(t)
	pl := residualTestPipe(t)
	m := NewMapping([]NodeID{0, 1, 2})

	// At 10 fps (one frame per 100 ms):
	//   node 1: 10*10000/2000 = 50 ms/frame -> 0.5 utilization
	//   node 2: 4*5000/4000  = 5 ms/frame  -> 0.05
	//   link 0: 10000/10000  = 1 ms/frame  -> 0.01
	//   link 1: 5000/10000   = 0.5 ms/frame -> 0.005
	res, err := MappingReservation(net, pl, m, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := struct {
		node [3]float64
		link [2]float64
	}{
		node: [3]float64{0, 0.5, 0.05},
		link: [2]float64{0.01, 0.005},
	}
	got := res.dense(net)
	for v, w := range want.node {
		if math.Abs(got.node[v]-w) > 1e-12 {
			t.Errorf("node %d utilization = %v, want %v", v, got.node[v], w)
		}
	}
	for l, w := range want.link {
		if math.Abs(got.link[l]-w) > 1e-12 {
			t.Errorf("link %d utilization = %v, want %v", l, got.link[l], w)
		}
	}

	// Zero rate reserves nothing.
	zero, err := MappingReservation(net, pl, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.nodes)+len(zero.links) != 0 {
		t.Fatalf("zero-rate reservation holds %+v", zero)
	}
}

func TestMappingReservationAccumulatesReuse(t *testing.T) {
	net := residualTestNet(t)
	pl := residualTestPipe(t)
	// All modules on node 0: its utilization is the sum of both compute terms.
	m := NewMapping([]NodeID{0, 0, 0})
	res, err := MappingReservation(net, pl, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// (10*10000 + 4*5000)/1000 = 120 ms/frame at 1 fps -> 0.12.
	if len(res.nodes) != 1 {
		t.Fatalf("reused node held as %d shares", len(res.nodes))
	}
	if got, want := res.dense(net).node[0], 0.12; math.Abs(got-want) > 1e-12 {
		t.Errorf("reused node utilization = %v, want %v", got, want)
	}
}

func TestResidualSnapshotScalesCapacity(t *testing.T) {
	net := residualTestNet(t)
	r := NewResidualNetwork(net)

	res := reservationOf(denseReservation{node: []float64{0.25, 0.5, 0}, link: []float64{0.75, 0}})
	if !r.Fits(res) {
		t.Fatal("reservation should fit an empty network")
	}
	r.SetLoad([]Reservation{res})

	snap := r.Snapshot()
	if got, want := snap.Power(0), 750.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("node 0 residual power = %v, want %v", got, want)
	}
	if got, want := snap.Power(1), 1000.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("node 1 residual power = %v, want %v", got, want)
	}
	if got, want := snap.Links[0].BWMbps, 20.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("link 0 residual bandwidth = %v, want %v", got, want)
	}
	// MLD is propagation latency: load does not change it.
	if got, want := snap.Links[0].MLDms, 1.0; got != want {
		t.Errorf("link 0 MLD = %v, want %v", got, want)
	}
	// The base network is untouched.
	if net.Power(0) != 1000 || net.Links[0].BWMbps != 80 {
		t.Error("snapshot mutated the base network")
	}
}

func TestResidualSaturationFloor(t *testing.T) {
	net := residualTestNet(t)
	r := NewResidualNetwork(net)
	r.SetLoad([]Reservation{reservationOf(denseReservation{node: []float64{1, 0, 0}, link: []float64{1, 0}})})
	snap := r.Snapshot()
	if snap.Power(0) <= 0 {
		t.Error("saturated node must keep positive (floored) power")
	}
	if got, want := snap.Power(0), 1000*MinResidualFraction; math.Abs(got-want) > 1e-18 {
		t.Errorf("saturated node power = %v, want floor %v", got, want)
	}
	// Anything more does not fit.
	if r.Fits(reservationOf(denseReservation{node: []float64{1e-6, 0, 0}, link: []float64{0, 0}})) {
		t.Error("reservation on a saturated node must not fit")
	}
}

func TestResidualSetLoadExactRestore(t *testing.T) {
	net := residualTestNet(t)
	r := NewResidualNetwork(net)
	a := reservationOf(denseReservation{node: []float64{0.1, 0.2, 0.3}, link: []float64{0.05, 0.15}})
	b := reservationOf(denseReservation{node: []float64{0.3, 0.1, 0.2}, link: []float64{0.25, 0.05}})
	r.SetLoad([]Reservation{a, b})
	r.SetLoad(nil)
	for v := 0; v < net.N(); v++ {
		if got := r.NodeLoad(NodeID(v)); got != 0 {
			t.Errorf("node %d load after full release = %v, want exactly 0", v, got)
		}
	}
	for l := 0; l < net.M(); l++ {
		if got := r.LinkLoad(l); got != 0 {
			t.Errorf("link %d load after full release = %v, want exactly 0", l, got)
		}
	}
	snap := r.Snapshot()
	for v := 0; v < net.N(); v++ {
		if snap.Power(NodeID(v)) != net.Power(NodeID(v)) {
			t.Errorf("node %d power after full release = %v, want %v",
				v, snap.Power(NodeID(v)), net.Power(NodeID(v)))
		}
	}
}

// referenceSnapshotExcluding is the full materialization path scoring
// replaced, kept as ScorePath's reference: every node and link of the view,
// with exclude's load subtracted first.
func referenceSnapshotExcluding(r *ResidualNetwork, exclude Reservation) *Network {
	ex := exclude.dense(r.base)
	nodes := append([]Node(nil), r.base.Nodes...)
	for i := range nodes {
		nodes[i].Power = r.base.Nodes[i].Power * residualFraction(r.nodeCap[i], r.nodeLoad[i]-ex.node[i])
	}
	links := append([]Link(nil), r.base.Links...)
	for i := range links {
		links[i].BWMbps = r.base.Links[i].BWMbps * residualFraction(r.linkCap[i], r.linkLoad[i]-ex.link[i])
	}
	return sharedTopoNetwork(nodes, links, r.base.topo)
}

// networkBitsDiff describes the first element where two networks differ,
// floats compared by bits; "" means bit-identical.
func networkBitsDiff(a, b *Network) string {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if len(a.Nodes) != len(b.Nodes) || len(a.Links) != len(b.Links) {
		return "shapes differ"
	}
	for i, n := range a.Nodes {
		if o := b.Nodes[i]; n.ID != o.ID || n.Name != o.Name || !same(n.Power, o.Power) {
			return fmt.Sprintf("node %d: %+v vs %+v", i, n, o)
		}
	}
	for i, l := range a.Links {
		if o := b.Links[i]; l.ID != o.ID || l.From != o.From || l.To != o.To || !same(l.BWMbps, o.BWMbps) || !same(l.MLDms, o.MLDms) {
			return fmt.Sprintf("link %d: %+v vs %+v", i, l, o)
		}
	}
	return ""
}

// randomReservation holds a fraction in [0, scale) of about half the nodes
// and links of net.
func randomReservation(rng *rand.Rand, net *Network, scale float64) Reservation {
	d := denseReservation{node: make([]float64, net.N()), link: make([]float64, net.M())}
	for i := range d.node {
		if rng.IntN(2) == 0 {
			d.node[i] = scale * rng.Float64()
		}
	}
	for i := range d.link {
		if rng.IntN(2) == 0 {
			d.link[i] = scale * rng.Float64()
		}
	}
	return reservationOf(d)
}

// randomChurn draws one batch that fails, degrades, and drifts random nodes
// and links, drifting some past nominal so the factor clamps at 1.
func randomChurn(rng *rand.Rand, net *Network) []ChurnEvent {
	var evs []ChurnEvent
	for v := 0; v < net.N(); v++ {
		node := NodeID(v)
		switch rng.IntN(6) {
		case 0:
			evs = append(evs, ChurnEvent{Kind: NodeDown, Node: node})
		case 1:
			evs = append(evs, ChurnEvent{Kind: CapacityDrift, Node: node, Factor: 0.2 + 0.7*rng.Float64()})
		case 2:
			evs = append(evs, ChurnEvent{Kind: CapacityDrift, Node: node, Factor: 1 + rng.Float64()})
		}
	}
	for l := 0; l < net.M(); l++ {
		switch rng.IntN(5) {
		case 0:
			evs = append(evs, ChurnEvent{Kind: LinkDegrade, Link: l, Factor: 0.05 + 0.9*rng.Float64()})
		case 1:
			evs = append(evs, ChurnEvent{Kind: CapacityDrift, Target: TargetLink, Link: l, Factor: 1 + rng.Float64()})
		}
	}
	return evs
}

// scoredPath is one reservation TestScorePathMatchesFullMaterialization
// scores: the pipeline and mapping it was built for, and the reservation.
type scoredPath struct {
	pl  *Pipeline
	m   *Mapping
	res Reservation
}

// longPath draws a pipeline with more module groups than ScorePath keeps
// busy times for on the stack, walked around net's ring one node per
// module, so every module is its own group and the walk revisits every
// node and ring link.
func longPath(rng *rand.Rand, net *Network) (*Pipeline, *Mapping) {
	n := pathScratch/2 + 1 + rng.IntN(8)
	mods := make([]Module, n)
	prev := 1e3 + rng.Float64()*1e6
	mods[0] = Module{ID: 0, OutBytes: prev}
	for j := 1; j < n; j++ {
		out := 0.0
		if j < n-1 {
			out = 1e3 + rng.Float64()*1e6
		}
		mods[j] = Module{ID: j, Complexity: 1 + rng.Float64()*100, InBytes: prev, OutBytes: out}
		prev = out
	}
	pl, err := NewPipeline(mods)
	if err != nil {
		panic(err)
	}
	assign := make([]NodeID, n)
	cur := rng.IntN(net.N())
	for j := range assign {
		assign[j] = NodeID(cur)
		cur = (cur + 1) % net.N()
	}
	return pl, NewMapping(assign)
}

// randomScoredPath draws a path mapping — randomPath's walks, or a long
// one now and then — and reserves it with MappingReservation at a rate
// that puts its busiest element at a random fraction of nominal capacity
// up to peak, or at rate zero one time in six.
func randomScoredPath(t *testing.T, rng *rand.Rand, net *Network, peak float64) scoredPath {
	t.Helper()
	pl, m := randomPath(rng, net)
	if rng.IntN(10) == 0 {
		pl, m = longPath(rng, net)
	}
	unit, err := MappingReservation(net, pl, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	busiest := 0.0
	for _, s := range unit.nodes {
		busiest = math.Max(busiest, s.frac)
	}
	for _, s := range unit.links {
		busiest = math.Max(busiest, s.frac)
	}
	rate := 0.0
	if busiest > 0 && rng.IntN(6) != 0 {
		rate = peak * rng.Float64() / busiest
	}
	res, err := MappingReservation(net, pl, m, rate)
	if err != nil {
		t.Fatal(err)
	}
	return scoredPath{pl: pl, m: m, res: res}
}

// TestScorePathMatchesFullMaterialization is ScorePath's property test:
// over random networks, loads, churned capacity factors, and path mappings
// (node- and link-reusing walks, zero-cost modules and transfers, paths
// longer than ScorePath's stack scratch), scoring the path a
// MappingReservation records must equal, bit for bit, scoring its mapping
// on a full materialization with that reservation excluded. Each seed
// scores reservations the view's load holds and reservations it does not
// (so an exclusion can exceed the load it is taken from), some at rate
// zero, which hold nothing but still record their path. Every
// reservation's Path, which holds no share, must score as its mapping does
// on r.Snapshot(), bit for bit. The coverage tally fails the test if a
// regime the per-element expression distinguishes never reached a scored
// path.
func TestScorePathMatchesFullMaterialization(t *testing.T) {
	cover := map[string]int{}
	for seed := uint64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewPCG(seed, 41))
		net, _, _ := randomValidInstance(rng)
		var held, free []scoredPath
		for n := 1 + rng.IntN(4); n > 0; n-- {
			held = append(held, randomScoredPath(t, rng, net, 0.5))
		}
		for n := 1 + rng.IntN(2); n > 0; n-- {
			free = append(free, randomScoredPath(t, rng, net, 1.5))
		}
		r := NewResidualNetwork(net)
		var load []Reservation
		for _, sp := range held {
			load = append(load, sp.res)
		}
		r.SetLoad(load)
		if err := r.ApplyChurn(randomChurn(rng, net)); err != nil {
			t.Fatalf("seed %d: churn: %v", seed, err)
		}
		if merged := MergeReservations(load); merged.path != nil {
			t.Fatalf("seed %d: a merged reservation records a path", seed)
		}
		snap := r.Snapshot()

		for i, sp := range append(held, free...) {
			opt := CostOptions{IncludeMLDInDelay: rng.IntN(2) == 0}
			delay, bott := r.ScorePath(sp.pl, sp.res, opt)
			ref := referenceSnapshotExcluding(r, sp.res)
			if want := TotalDelay(ref, sp.pl, sp.m, opt); math.Float64bits(delay) != math.Float64bits(want) {
				t.Fatalf("seed %d reservation %d %v: delay %v, full materialization %v", seed, i, sp.m, delay, want)
			}
			if want := SharedBottleneck(ref, sp.pl, sp.m); math.Float64bits(bott) != math.Float64bits(want) {
				t.Fatalf("seed %d reservation %d %v: bottleneck %v, full materialization %v", seed, i, sp.m, bott, want)
			}
			// The path alone sets nothing aside: it scores as the mapping
			// does on the view as it stands.
			delay, bott = r.ScorePath(sp.pl, sp.res.Path(), opt)
			if want := TotalDelay(snap, sp.pl, sp.m, opt); math.Float64bits(delay) != math.Float64bits(want) {
				t.Fatalf("seed %d reservation %d %v: path-only delay %v, snapshot %v", seed, i, sp.m, delay, want)
			}
			if want := SharedBottleneck(snap, sp.pl, sp.m); math.Float64bits(bott) != math.Float64bits(want) {
				t.Fatalf("seed %d reservation %d %v: path-only bottleneck %v, snapshot %v", seed, i, sp.m, bott, want)
			}

			if sp.m.UsesReuse() {
				cover["node reuse"]++
			}
			if len(sp.res.nodes)+len(sp.res.links) == 0 {
				cover["zero rate"]++
			}
			if 2*len(sp.res.path) > pathScratch {
				cover["path beyond the stack scratch"]++
			}
			regime := func(capFactor, load, excluded float64) {
				switch f := capFactor - (load - excluded); {
				case f < MinResidualFraction:
					cover["residual floor"]++
				case f > 1:
					cover["residual clamped at 1"]++
				}
				if load > capFactor {
					cover["over capacity"]++
				}
				if excluded > load {
					cover["exclusion above load"]++
				}
			}
			exd := sp.res.dense(net)
			groups := sp.m.Groups()
			for gi, g := range groups {
				if r.NodeIsDown(g.Node) {
					cover["down node"]++
				}
				regime(r.nodeCap[g.Node], r.nodeLoad[g.Node], exd.node[g.Node])
				if gi+1 < len(groups) {
					l, _ := net.LinkBetween(g.Node, groups[gi+1].Node)
					regime(r.linkCap[l.ID], r.linkLoad[l.ID], exd.link[l.ID])
				}
			}
		}
	}
	for _, regime := range []string{"node reuse", "zero rate", "path beyond the stack scratch", "down node",
		"over capacity", "residual floor", "exclusion above load", "residual clamped at 1"} {
		if cover[regime] == 0 {
			t.Errorf("no scored path covered %q (coverage %v)", regime, cover)
		}
	}
	t.Logf("coverage: %v", cover)
}
