package model

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"testing"
)

// This file keeps the dense reservation form the share form replaced — a
// fraction for every node and link of the network — as the reference the
// shares are held to: denseMappingReservation, denseSetLoad, denseAddLoad
// and denseFits are that form's MappingReservation, SetLoad, AddLoad and
// Fits.

// denseReservation holds a fraction for every node and link of a network.
type denseReservation struct {
	node, link []float64
}

// denseMappingReservation is the dense MappingReservation.
func denseMappingReservation(net *Network, pl *Pipeline, m *Mapping, rateFPS float64) (denseReservation, error) {
	res := denseReservation{node: make([]float64, net.N()), link: make([]float64, net.M())}
	if rateFPS <= 0 {
		return res, nil
	}
	framesPerMs := rateFPS / 1000.0
	groups := m.Groups()
	for gi, g := range groups {
		power := net.Power(g.Node)
		for j := g.First; j <= g.Last; j++ {
			res.node[g.Node] += pl.ComputeTime(j, power) * framesPerMs
		}
		if gi+1 < len(groups) {
			link, ok := net.LinkBetween(g.Node, groups[gi+1].Node)
			if !ok {
				return denseReservation{}, fmt.Errorf("no link %d->%d", g.Node, groups[gi+1].Node)
			}
			res.link[link.ID] += link.TransferTime(pl.OutBytes(g.Last), false) * framesPerMs
		}
	}
	return res, nil
}

// denseSetLoad is the dense SetLoad: every element sums every
// reservation's fraction, zeros included, in slice order.
func denseSetLoad(r *ResidualNetwork, outstanding []denseReservation) {
	for i := range r.nodeLoad {
		r.nodeLoad[i] = 0
	}
	for i := range r.linkLoad {
		r.linkLoad[i] = 0
	}
	for _, res := range outstanding {
		denseAddLoad(r, res)
	}
}

// denseAddLoad is the dense AddLoad.
func denseAddLoad(r *ResidualNetwork, res denseReservation) {
	for i, f := range res.node {
		r.nodeLoad[i] += f
	}
	for i, f := range res.link {
		r.linkLoad[i] += f
	}
}

// denseFits is the dense Fits: it checks every element of the network.
func denseFits(r *ResidualNetwork, res denseReservation) bool {
	for i, f := range res.node {
		if r.nodeLoad[i]+f > r.nodeCap[i] {
			return false
		}
	}
	for i, f := range res.link {
		if r.linkLoad[i]+f > r.linkCap[i] {
			return false
		}
	}
	return true
}

// dense scatters res's shares over net's elements.
func (res Reservation) dense(net *Network) denseReservation {
	d := denseReservation{node: make([]float64, net.N()), link: make([]float64, net.M())}
	for _, s := range res.nodes {
		d.node[s.id] = s.frac
	}
	for _, s := range res.links {
		d.link[s.id] = s.frac
	}
	return d
}

// reservationOf holds every non-zero fraction of d as a share, for tests
// that state a reservation element by element.
func reservationOf(d denseReservation) Reservation {
	var res Reservation
	for i, f := range d.node {
		if f != 0 {
			res.nodes = append(res.nodes, share{id: i, frac: f})
		}
	}
	for i, f := range d.link {
		if f != 0 {
			res.links = append(res.links, share{id: i, frac: f})
		}
	}
	return res
}

// sharesDiff describes the first element where res's shares and the dense
// reservation d differ, fractions compared by bits (an element res does not
// hold reads as +0); "" means they are equal on every element. A second
// share of one element is a difference too.
func sharesDiff(net *Network, res Reservation, d denseReservation) string {
	if len(heldSet(res)) != len(res.nodes)+len(res.links) {
		return "an element has two shares"
	}
	got := res.dense(net)
	for i := range d.node {
		if math.Float64bits(got.node[i]) != math.Float64bits(d.node[i]) {
			return fmt.Sprintf("node %d: share %v, dense %v", i, got.node[i], d.node[i])
		}
	}
	for i := range d.link {
		if math.Float64bits(got.link[i]) != math.Float64bits(d.link[i]) {
			return fmt.Sprintf("link %d: share %v, dense %v", i, got.link[i], d.link[i])
		}
	}
	return ""
}

// loadsDiff describes the first element whose load differs between two
// views of one network, compared by bits; "" means bit-identical.
func loadsDiff(a, b *ResidualNetwork) string {
	for i := range a.nodeLoad {
		if math.Float64bits(a.nodeLoad[i]) != math.Float64bits(b.nodeLoad[i]) {
			return fmt.Sprintf("node %d load %v vs %v", i, a.nodeLoad[i], b.nodeLoad[i])
		}
	}
	for i := range a.linkLoad {
		if math.Float64bits(a.linkLoad[i]) != math.Float64bits(b.linkLoad[i]) {
			return fmt.Sprintf("link %d load %v vs %v", i, a.linkLoad[i], b.linkLoad[i])
		}
	}
	return ""
}

// randomPath draws a pipeline and a random-walk mapping of it over the ring
// every randomValidInstance network carries. Walks revisit nodes and links;
// the source module is zero-cost, and some draws make an inner module and
// the transfer into it zero-cost too. Half the pipelines are light enough
// that their links, not their nodes, are the busiest elements.
func randomPath(rng *rand.Rand, net *Network) (*Pipeline, *Mapping) {
	_, pl, _ := randomValidInstance(rng)
	if rng.IntN(2) == 0 {
		// Light modules, so transfers rather than computations dominate.
		for j := range pl.Modules {
			pl.Modules[j].Complexity *= 1e-4
		}
	}
	if n := pl.N(); n > 2 && rng.IntN(3) == 0 {
		j := 1 + rng.IntN(n-2)
		pl.Modules[j-1].OutBytes, pl.Modules[j].InBytes = 0, 0
	}
	k := net.N()
	assign := make([]NodeID, pl.N())
	cur := rng.IntN(k)
	for j := range assign {
		if j > 0 {
			switch rng.IntN(3) {
			case 1:
				cur = (cur + 1) % k
			case 2:
				cur = (cur + k - 1) % k
			}
		}
		assign[j] = NodeID(cur)
	}
	return pl, NewMapping(assign)
}

// randomPathReservation draws a path and reserves it in both forms at a rate
// that puts its busiest node or its busiest link at a random fraction of
// nominal capacity up to 0.6 (or at rate zero now and then).
func randomPathReservation(t *testing.T, rng *rand.Rand, net *Network) (*Mapping, float64, Reservation, denseReservation) {
	t.Helper()
	pl, m := randomPath(rng, net)
	unit, err := denseMappingReservation(net, pl, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Scale by the busiest link half the time, so links as well as nodes
	// decide fits.
	busiest, scaleBy := 0.0, unit.node
	if rng.IntN(2) == 0 {
		scaleBy = unit.link
	}
	for _, f := range scaleBy {
		busiest = math.Max(busiest, f)
	}
	rate := 0.0
	if busiest > 0 && rng.IntN(8) != 0 {
		rate = 0.6 * rng.Float64() / busiest
	}
	res, err := MappingReservation(net, pl, m, rate)
	if err != nil {
		t.Fatal(err)
	}
	d, err := denseMappingReservation(net, pl, m, rate)
	if err != nil {
		t.Fatal(err)
	}
	return m, rate, res, d
}

// element names one node ({0, v}) or link ({1, id}).
type element [2]int

// heldSet returns the elements res holds.
func heldSet(res Reservation) map[element]bool {
	held := map[element]bool{}
	for _, s := range res.nodes {
		held[element{0, s.id}] = true
	}
	for _, s := range res.links {
		held[element{1, s.id}] = true
	}
	return held
}

// pathSet returns the elements Eq. 1–2 load for mapping m: its groups'
// nodes and the links between consecutive groups.
func pathSet(net *Network, m *Mapping) map[element]bool {
	path := map[element]bool{}
	groups := m.Groups()
	for gi, g := range groups {
		path[element{0, int(g.Node)}] = true
		if gi+1 < len(groups) {
			l, _ := net.LinkBetween(g.Node, groups[gi+1].Node)
			path[element{1, l.ID}] = true
		}
	}
	return path
}

// TestSparseReservationMatchesDense is the share form's property test
// against the dense form it replaced. Over random networks, path mappings
// (node and link reuse, zero-cost modules, zero rates) and reservation sets
// with a merged overlay on top, it requires that:
//   - every reservation holds exactly its path's elements, with shares equal
//     to the dense fractions bit for bit on every element;
//   - MergeReservations equals the dense element-wise sum;
//   - SetLoad plus AddLoad of the overlay equals the dense SetLoad and
//     AddLoad bit for bit, loads and snapshots alike, and SetLoad of the
//     empty set restores exact zero;
//   - on churned views, Fits equals the dense Fits whenever no element
//     outside the reservation exceeds its capacity factor.
//
// The coverage tally fails the test if a regime never occurred.
func TestSparseReservationMatchesDense(t *testing.T) {
	cover := map[string]int{}
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 59))
		net, _, _ := randomValidInstance(rng)

		var held []Reservation
		var heldDense []denseReservation
		for n := 1 + rng.IntN(6); n > 0; n-- {
			m, rate, res, d := randomPathReservation(t, rng, net)
			if diff := sharesDiff(net, res, d); diff != "" {
				t.Fatalf("seed %d %v: %s", seed, m, diff)
			}
			want := pathSet(net, m)
			if rate == 0 {
				want = nil
			}
			if !maps.Equal(heldSet(res), want) {
				t.Fatalf("seed %d %v at %v fps: shares %+v do not hold exactly the path", seed, m, rate, res)
			}
			if rate == 0 {
				cover["zero rate"]++
			} else {
				if m.UsesReuse() {
					cover["node reuse"]++
				}
				for _, s := range res.nodes {
					if s.frac == 0 {
						cover["zero-cost share"]++
					}
				}
			}
			held = append(held, res)
			heldDense = append(heldDense, d)
		}

		// The overlay: a prefix of the set, merged.
		split := rng.IntN(len(held) + 1)
		overlay := MergeReservations(held[:split])
		overlayDense := denseReservation{node: make([]float64, net.N()), link: make([]float64, net.M())}
		for _, d := range heldDense[:split] {
			for i, f := range d.node {
				overlayDense.node[i] += f
			}
			for i, f := range d.link {
				overlayDense.link[i] += f
			}
		}
		if diff := sharesDiff(net, overlay, overlayDense); diff != "" {
			t.Fatalf("seed %d: merged overlay: %s", seed, diff)
		}

		r, rd := NewResidualNetwork(net), NewResidualNetwork(net)
		r.SetLoad(held[split:])
		r.AddLoad(overlay)
		denseSetLoad(rd, heldDense[split:])
		denseAddLoad(rd, overlayDense)
		if diff := loadsDiff(r, rd); diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		if diff := networkBitsDiff(r.Snapshot(), rd.Snapshot()); diff != "" {
			t.Fatalf("seed %d: snapshots differ: %s", seed, diff)
		}

		churn := randomChurn(rng, net)
		if err := r.ApplyChurn(churn); err != nil {
			t.Fatalf("seed %d: churn: %v", seed, err)
		}
		if err := rd.ApplyChurn(churn); err != nil {
			t.Fatalf("seed %d: churn: %v", seed, err)
		}
		for c := 0; c < 4; c++ {
			_, _, res, d := randomPathReservation(t, rng, net)
			holds := heldSet(res)
			outsideOver := false
			for i := range r.nodeLoad {
				if !holds[element{0, i}] && r.nodeLoad[i] > r.nodeCap[i] {
					outsideOver = true
				}
			}
			for i := range r.linkLoad {
				if !holds[element{1, i}] && r.linkLoad[i] > r.linkCap[i] {
					outsideOver = true
				}
			}
			got, want := r.Fits(res), denseFits(rd, d)
			switch {
			case outsideOver:
				cover["over capacity outside"]++
				if got && !want {
					cover["fits beside over capacity"]++
				}
			case got != want:
				t.Fatalf("seed %d candidate %d: Fits %v, dense Fits %v", seed, c, got, want)
			case got:
				cover["fits"]++
			case r.Fits(Reservation{nodes: res.nodes}):
				cover["only a link does not fit"]++
			default:
				cover["a node does not fit"]++
			}
		}

		r.SetLoad(nil)
		for i := range r.nodeLoad {
			if r.nodeLoad[i] != 0 || math.Signbit(r.nodeLoad[i]) {
				t.Fatalf("seed %d: node %d load %v after the empty set", seed, i, r.nodeLoad[i])
			}
		}
		for i := range r.linkLoad {
			if r.linkLoad[i] != 0 || math.Signbit(r.linkLoad[i]) {
				t.Fatalf("seed %d: link %d load %v after the empty set", seed, i, r.linkLoad[i])
			}
		}
	}
	for _, regime := range []string{"zero rate", "node reuse", "zero-cost share", "fits", "a node does not fit",
		"only a link does not fit", "over capacity outside", "fits beside over capacity"} {
		if cover[regime] == 0 {
			t.Errorf("no case covered %q (coverage %v)", regime, cover)
		}
	}
	t.Logf("coverage: %v", cover)
}

// TestFitsChecksOnlyHeldElements checks that an element churn left over
// capacity refuses only the reservations that add to it: one beside it
// still fits, and the zero Reservation always does.
func TestFitsChecksOnlyHeldElements(t *testing.T) {
	net := residualTestNet(t)
	r := NewResidualNetwork(net)
	r.SetLoad([]Reservation{reservationOf(denseReservation{node: []float64{0.5, 0, 0}, link: []float64{0.2, 0}})})
	// Node 0 goes down under its load: 0.5 > factor 0.
	if err := r.ApplyChurn([]ChurnEvent{{Kind: NodeDown, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	beside := reservationOf(denseReservation{node: []float64{0, 0.3, 0.3}, link: []float64{0, 0.3}})
	if !r.Fits(beside) {
		t.Error("a reservation on nodes 1-2 must fit beside the over-capacity node 0")
	}
	on := reservationOf(denseReservation{node: []float64{1e-6, 0, 0}, link: []float64{0, 0}})
	if r.Fits(on) {
		t.Error("a reservation adding to the over-capacity node 0 must not fit")
	}
	over := reservationOf(denseReservation{node: []float64{0, 0.3, 0}, link: []float64{0, 0.9}})
	if err := r.ApplyChurn([]ChurnEvent{{Kind: LinkDegrade, Link: 1, Factor: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if r.Fits(over) {
		t.Error("a reservation exceeding a held link's factor must not fit")
	}
	if !r.Fits(Reservation{}) {
		t.Error("the zero Reservation holds nothing and must fit")
	}
}
