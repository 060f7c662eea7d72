package model

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// partitionFixture builds a two-triangle network joined by one link pair:
// nodes 0-2 and 3-5, with 6 intra links per triangle and the boundary pair
// 2<->3.
func partitionFixture(t *testing.T) *Network {
	t.Helper()
	nodes := make([]Node, 6)
	for i := range nodes {
		nodes[i] = Node{ID: NodeID(i), Power: 1000}
	}
	var links []Link
	add := func(u, v int) {
		links = append(links, Link{ID: len(links), From: NodeID(u), To: NodeID(v), BWMbps: 100, MLDms: 1})
	}
	for _, tri := range [][3]int{{0, 1, 2}, {3, 4, 5}} {
		for i := 0; i < 3; i++ {
			add(tri[i], tri[(i+1)%3])
			add(tri[(i+1)%3], tri[i])
		}
	}
	add(2, 3)
	add(3, 2)
	net, err := NewNetwork(nodes, links)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	return net
}

func TestPartitionNetwork(t *testing.T) {
	net := partitionFixture(t)
	p, err := PartitionNetwork(net, 2)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if p.K != 2 || len(p.PartOf) != net.N() || len(p.LinkOwner) != net.M() {
		t.Fatalf("partition shape: %+v", p)
	}
	// Link ownership must match its endpoints' regions; boundary links are
	// exactly the cross-region ones.
	boundary := map[int]bool{}
	for _, l := range p.Boundary {
		boundary[l] = true
	}
	for i, l := range net.Links {
		same := p.PartOf[l.From] == p.PartOf[l.To]
		switch {
		case same && p.LinkOwner[i] != p.PartOf[l.From]:
			t.Fatalf("intra link %d owned by %d, endpoints in %d", i, p.LinkOwner[i], p.PartOf[l.From])
		case !same && p.LinkOwner[i] != BoundaryOwner:
			t.Fatalf("cross link %d owned by %d, want BoundaryOwner", i, p.LinkOwner[i])
		case !same != boundary[i]:
			t.Fatalf("link %d boundary membership inconsistent", i)
		}
	}
	// The two triangles must land in different regions (the farthest-point
	// seeds separate them).
	if p.PartOf[0] == p.PartOf[5] {
		t.Fatalf("triangles not separated: %v", p.PartOf)
	}
	// Region listings are ascending and complete.
	total := 0
	for r, region := range p.Regions {
		total += len(region)
		for i := 1; i < len(region); i++ {
			if region[i] <= region[i-1] {
				t.Fatalf("region %d not ascending: %v", r, region)
			}
		}
	}
	if total != net.N() {
		t.Fatalf("regions cover %d of %d nodes", total, net.N())
	}

	if _, err := PartitionNetwork(net, 0); err == nil {
		t.Fatalf("k=0 accepted")
	}
	if _, err := PartitionNetwork(net, net.N()+1); err == nil {
		t.Fatalf("k>n accepted")
	}
}

// TestRegionViewToGlobal checks the view's node renumbering both ways on a
// fixed partition: ToGlobal maps local indices to the region's nodes, and
// ToLocal maps them back and refuses a node outside the region.
func TestRegionViewToGlobal(t *testing.T) {
	net := partitionFixture(t)
	p, err := PartitionNetwork(net, 2)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	view := p.View(net, p.PartOf[0])
	m := NewMapping([]NodeID{0, 0, 1})
	gm := view.ToGlobal(m)
	for j, local := range m.Assign {
		if gm.Assign[j] != view.Nodes[local] {
			t.Fatalf("ToGlobal module %d: %d, want %d", j, gm.Assign[j], view.Nodes[local])
		}
	}
	back, ok := view.ToLocal(gm)
	if !ok || !reflect.DeepEqual(back.Assign, m.Assign) {
		t.Fatalf("ToLocal(ToGlobal(%v)) = %v, %v", m.Assign, back, ok)
	}
	outside := NodeID(0)
	for view.Local(outside) >= 0 {
		outside++
	}
	if _, ok := view.ToLocal(NewMapping([]NodeID{gm.Assign[0], outside})); ok {
		t.Fatalf("ToLocal accepted node %d outside region %d", outside, view.Region)
	}
}

func TestResidualCapacityFactorsRoundTrip(t *testing.T) {
	net := partitionFixture(t)
	r := NewResidualNetwork(net)
	if err := r.ApplyChurn([]ChurnEvent{{Kind: NodeDown, Node: 1}, {Kind: LinkDegrade, Link: 0, Factor: 0.5}}); err != nil {
		t.Fatalf("churn: %v", err)
	}
	node, link := r.CapacityFactors()
	r2 := NewResidualNetwork(net)
	if err := r2.SetCapacityFactors(node, link); err != nil {
		t.Fatalf("set factors: %v", err)
	}
	if !r2.NodeIsDown(1) || r2.LinkCapacity(0) != 0.5 {
		t.Fatalf("factors did not round-trip: %v %v", r2.NodeCapacity(1), r2.LinkCapacity(0))
	}
	if err := r2.SetCapacityFactors([]float64{2}, link); err == nil {
		t.Fatalf("bad shape/range accepted")
	}
}

func TestResidualAddLoad(t *testing.T) {
	net := partitionFixture(t)
	r := NewResidualNetwork(net)
	d := denseReservation{node: make([]float64, net.N()), link: make([]float64, net.M())}
	d.node[2] = 0.25
	d.link[3] = 0.5
	r.AddLoad(reservationOf(d))
	if r.NodeLoad(2) != 0.25 || r.LinkLoad(3) != 0.5 {
		t.Fatalf("loads not applied: %v %v", r.NodeLoad(2), r.LinkLoad(3))
	}
	r.AddLoad(Reservation{})
	if r.NodeLoad(2) != 0.25 || r.LinkLoad(3) != 0.5 {
		t.Fatalf("the zero Reservation changed loads: %v %v", r.NodeLoad(2), r.LinkLoad(3))
	}
}

// TestRegionSnapshotMatchesFull is the property test behind scoring a
// regional mapping on its region's sub-network instead of the whole
// network. Over random loaded, churned views, random partitions, and random
// mappings inside each region — walks along internal links, with node
// reuse, and arbitrary assignments with missing links among them — it
// requires that:
//   - RegionSnapshot, and RegionSnapshotInto over a buffer taken before the
//     view changed, equal the full Snapshot()'s region elements bit for bit
//     under the view's renumbering;
//   - ToLocal inverts ToGlobal, and refuses a module outside the region;
//   - TotalDelay and SharedBottleneck of the local mapping on the region
//     snapshot equal the global mapping's on the full snapshot, bit for bit.
func TestRegionSnapshotMatchesFull(t *testing.T) {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	cover := map[string]int{}
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 43))
		net := randomTestNetwork(t, 3+rng.IntN(12), rng)
		k := 1 + rng.IntN(min(4, net.N()))
		partOf := make([]int, net.N())
		for v := range partOf {
			partOf[v] = rng.IntN(k)
		}
		p, err := NewPartitionFromAssignment(net, k, partOf)
		if err != nil {
			t.Fatalf("seed %d: partition: %v", seed, err)
		}
		r := NewResidualNetwork(net)
		views := make([]*RegionView, k)
		stale := make([]*Network, k)
		for reg := range views {
			views[reg] = p.View(net, reg)
			stale[reg] = r.RegionSnapshot(views[reg])
		}
		r.SetLoad([]Reservation{randomReservation(rng, net, 0.7), randomReservation(rng, net, 0.7)})
		if err := r.ApplyChurn(randomChurn(rng, net)); err != nil {
			t.Fatalf("seed %d: churn: %v", seed, err)
		}
		full := r.Snapshot()

		for reg, v := range views {
			if len(v.Nodes) == 0 {
				continue
			}
			fresh := r.RegionSnapshot(v)
			into := r.RegionSnapshotInto(v, stale[reg])
			if into != stale[reg] {
				t.Fatalf("seed %d region %d: RegionSnapshotInto did not reuse its buffer", seed, reg)
			}
			for name, snap := range map[string]*Network{"RegionSnapshot": fresh, "RegionSnapshotInto": into} {
				if snap.N() != len(v.Nodes) || snap.M() != len(v.Links) {
					t.Fatalf("seed %d region %d %s: shape %dx%d, view %dx%d", seed, reg, name, snap.N(), snap.M(), len(v.Nodes), len(v.Links))
				}
				for local, g := range v.Nodes {
					n, want := snap.Nodes[local], full.Nodes[g]
					if int(n.ID) != local || n.Name != want.Name || !same(n.Power, want.Power) {
						t.Fatalf("seed %d region %d %s: node %d (v%d) %+v, full %+v", seed, reg, name, local, g, n, want)
					}
				}
				for local, g := range v.Links {
					l, want := snap.Links[local], full.Links[g]
					if l.ID != local || v.Nodes[l.From] != want.From || v.Nodes[l.To] != want.To ||
						!same(l.BWMbps, want.BWMbps) || !same(l.MLDms, want.MLDms) {
						t.Fatalf("seed %d region %d %s: link %d (l%d) %+v, full %+v", seed, reg, name, local, g, l, want)
					}
				}
			}

			// Internal out-links per region node, for walks that stay on
			// usable paths.
			out := make(map[NodeID][]NodeID)
			for _, g := range v.Links {
				l := net.Links[g]
				out[l.From] = append(out[l.From], l.To)
			}
			for trial := 0; trial < 4; trial++ {
				_, pl, _ := randomValidInstance(rng)
				assign := make([]NodeID, pl.N())
				cur := v.Nodes[rng.IntN(len(v.Nodes))]
				for j := range assign {
					switch next := out[cur]; {
					case j == 0 || rng.IntN(4) == 0:
					case trial == 3 || len(next) == 0:
						cur = v.Nodes[rng.IntN(len(v.Nodes))]
					default:
						cur = next[rng.IntN(len(next))]
					}
					assign[j] = cur
				}
				global := &Mapping{Assign: assign}
				local, ok := v.ToLocal(global)
				if !ok {
					t.Fatalf("seed %d region %d: ToLocal refused regional mapping %v", seed, reg, assign)
				}
				if back := v.ToGlobal(local); !slices.Equal(back.Assign, assign) {
					t.Fatalf("seed %d region %d: ToGlobal(ToLocal(%v)) = %v", seed, reg, assign, back.Assign)
				}
				opt := CostOptions{IncludeMLDInDelay: rng.IntN(2) == 0}
				delay, wantDelay := TotalDelay(fresh, pl, local, opt), TotalDelay(full, pl, global, opt)
				if !same(delay, wantDelay) {
					t.Fatalf("seed %d region %d %v: regional delay %v, full %v", seed, reg, assign, delay, wantDelay)
				}
				bott, wantBott := SharedBottleneck(fresh, pl, local), SharedBottleneck(full, pl, global)
				if !same(bott, wantBott) {
					t.Fatalf("seed %d region %d %v: regional bottleneck %v, full %v", seed, reg, assign, bott, wantBott)
				}
				switch {
				case math.IsInf(delay, 1):
					cover["missing link"]++
				case global.UsesReuse():
					cover["node reuse"]++
				default:
					cover["finite path"]++
				}
				for _, g := range assign {
					if r.NodeIsDown(g) {
						cover["down node"]++
						break
					}
				}
			}
			if len(v.Nodes) < net.N() {
				outside := NodeID(slices.IndexFunc(p.PartOf, func(r int) bool { return r != reg }))
				if _, ok := v.ToLocal(&Mapping{Assign: []NodeID{v.Nodes[0], outside}}); ok {
					t.Fatalf("seed %d region %d: ToLocal accepted node %d outside the region", seed, reg, outside)
				}
				cover["outside refused"]++
			}
		}
	}
	for _, regime := range []string{"finite path", "node reuse", "missing link", "down node", "outside refused"} {
		if cover[regime] == 0 {
			t.Errorf("no mapping covered %q (coverage %v)", regime, cover)
		}
	}
	t.Logf("coverage: %v", cover)
}

// TestSetRegionLoadMatchesSetLoad is the property test behind a sharded
// fleet's one ledger, where every region rewrites only its own elements of
// one shared view. Over random networks, random partitions (k from 1 to 6),
// per-region reservations from walks inside each region (node reuse
// included) and an overlay merged from walks across regions, it requires,
// bit for bit, that:
//   - SetRegionLoad for region r leaves every element outside r unchanged
//     and sets r's elements to a private view's SetLoad(own_r ++ [overlay]);
//   - starting from SetLoad(every region's reservations in region order ++
//     [overlay]), SetRegionLoad for every region in random order leaves
//     that same load;
//   - a nil view is SetLoad;
//   - Local inverts Nodes, and is -1 outside the region and for IDs that
//     are not nodes.
func TestSetRegionLoadMatchesSetLoad(t *testing.T) {
	cover := map[string]int{}
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 47))
		net := randomTestNetwork(t, 2+rng.IntN(14), rng)
		k := 1 + rng.IntN(min(6, net.N()))
		partOf := make([]int, net.N())
		for v := range partOf {
			partOf[v] = rng.IntN(k)
		}
		p, err := NewPartitionFromAssignment(net, k, partOf)
		if err != nil {
			t.Fatalf("seed %d: partition: %v", seed, err)
		}
		views := make([]*RegionView, k)
		for r := range views {
			views[r] = p.View(net, r)
		}
		_, pl, _ := randomValidInstance(rng)
		out := make([][]NodeID, net.N())
		for _, l := range net.Links {
			out[l.From] = append(out[l.From], l.To)
		}
		// walk reserves a mapping of pl that starts at start and steps along
		// links to nodes for which inside holds, staying put now and then.
		walk := func(start NodeID, inside func(NodeID) bool) Reservation {
			assign := make([]NodeID, pl.N())
			cur := start
			for j := range assign {
				if j > 0 && rng.IntN(4) != 0 {
					next := slices.DeleteFunc(slices.Clone(out[cur]), func(w NodeID) bool { return !inside(w) })
					if len(next) > 0 {
						cur = next[rng.IntN(len(next))]
					}
				}
				assign[j] = cur
			}
			m := &Mapping{Assign: assign}
			if m.UsesReuse() {
				cover["node reuse"]++
			}
			res, err := MappingReservation(net, pl, m, 0.5+5*rng.Float64())
			if err != nil {
				t.Fatalf("seed %d: reservation of %v: %v", seed, assign, err)
			}
			return res
		}
		own := make([][]Reservation, k)
		var all []Reservation
		for r, v := range views {
			for i := rng.IntN(4); i > 0 && len(v.Nodes) > 0; i-- {
				own[r] = append(own[r], walk(v.Nodes[rng.IntN(len(v.Nodes))], func(w NodeID) bool { return p.PartOf[w] == r }))
			}
			all = append(all, own[r]...)
		}
		var cross []Reservation
		for i := rng.IntN(4); i > 0; i-- {
			cross = append(cross, walk(NodeID(rng.IntN(net.N())), func(NodeID) bool { return true }))
		}
		overlay := MergeReservations(cross)
		all = append(all, overlay)
		for _, s := range overlay.links {
			if p.LinkOwner[s.id] == BoundaryOwner {
				cover["overlay on a boundary link"]++
				break
			}
		}
		composed := NewResidualNetwork(net)
		composed.SetLoad(all)

		shared := NewResidualNetwork(net)
		shared.SetLoad([]Reservation{randomReservation(rng, net, 0.7)})
		for r, v := range views {
			beforeNode, beforeLink := slices.Clone(shared.nodeLoad), slices.Clone(shared.linkLoad)
			mine := append(slices.Clone(own[r]), overlay)
			shared.SetRegionLoad(v, mine)
			private := NewResidualNetwork(net)
			private.SetLoad(mine)
			for g, got := range shared.nodeLoad {
				want := beforeNode[g]
				if p.PartOf[g] == r {
					want = private.nodeLoad[g]
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d region %d: node %d (region %d) load %v, want %v", seed, r, g, p.PartOf[g], got, want)
				}
			}
			for l, got := range shared.linkLoad {
				want := beforeLink[l]
				if p.LinkOwner[l] == r {
					want = private.linkLoad[l]
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d region %d: link %d (owner %d) load %v, want %v", seed, r, l, p.LinkOwner[l], got, want)
				}
			}
		}

		ledger := NewResidualNetwork(net)
		ledger.SetLoad(all)
		for _, r := range rng.Perm(k) {
			ledger.SetRegionLoad(views[r], append(slices.Clone(own[r]), overlay))
		}
		whole := NewResidualNetwork(net)
		whole.SetLoad([]Reservation{randomReservation(rng, net, 0.7)})
		whole.SetRegionLoad(nil, all)
		for name, got := range map[string]*ResidualNetwork{"every region rewritten": ledger, "nil view": whole} {
			if !sameBits(got.nodeLoad, composed.nodeLoad) || !sameBits(got.linkLoad, composed.linkLoad) {
				t.Fatalf("seed %d %s: loads %v %v, want SetLoad's %v %v", seed, name, got.nodeLoad, got.linkLoad, composed.nodeLoad, composed.linkLoad)
			}
		}

		for r, v := range views {
			for local, g := range v.Nodes {
				if got := v.Local(g); got != local {
					t.Fatalf("seed %d region %d: Local(%d) = %d, want %d", seed, r, g, got, local)
				}
			}
			for g := range net.N() {
				if p.PartOf[g] != r && v.Local(NodeID(g)) != -1 {
					t.Fatalf("seed %d region %d: Local(%d) = %d for a node of region %d", seed, r, g, v.Local(NodeID(g)), p.PartOf[g])
				}
			}
			for _, g := range []NodeID{-1, NodeID(net.N()), NodeID(net.N() + 7)} {
				if got := v.Local(g); got != -1 {
					t.Fatalf("seed %d region %d: Local(%d) = %d for an ID that is no node", seed, r, g, got)
				}
			}
		}
		if k > 1 {
			cover["k > 1"]++
		}
	}
	for _, regime := range []string{"node reuse", "overlay on a boundary link", "k > 1"} {
		if cover[regime] == 0 {
			t.Errorf("no seed covered %q (coverage %v)", regime, cover)
		}
	}
	t.Logf("coverage: %v", cover)
}

// sameBits reports whether a and b hold the same floats, bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
