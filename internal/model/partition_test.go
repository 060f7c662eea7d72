package model

import (
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

func TestRegionViewExtract(t *testing.T) {
	net := partitionFixture(t)
	p, err := PartitionNetwork(net, 2)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	view := p.View(net, p.PartOf[0])
	sub, err := view.Extract(net)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	if sub.N() != len(view.Nodes) || sub.M() != len(view.Links) {
		t.Fatalf("sub-network %dx%d, view %dx%d", sub.N(), sub.M(), len(view.Nodes), len(view.Links))
	}
	// Attributes are copied bit for bit under the renumbering.
	for local, g := range view.Nodes {
		if sub.Power(NodeID(local)) != net.Power(g) {
			t.Fatalf("node %d power %v, want %v", local, sub.Power(NodeID(local)), net.Power(g))
		}
	}
	for local, g := range view.Links {
		gl := net.Links[g]
		sl := sub.Links[local]
		if sl.BWMbps != gl.BWMbps || sl.MLDms != gl.MLDms {
			t.Fatalf("link %d attributes %+v, want %+v", local, sl, gl)
		}
		if view.Nodes[sl.From] != gl.From || view.Nodes[sl.To] != gl.To {
			t.Fatalf("link %d endpoints not translated: %+v vs %+v", local, sl, gl)
		}
	}
	// ToGlobal inverts the node renumbering.
	m := NewMapping([]NodeID{0, 0, 1})
	gm := view.ToGlobal(m)
	for j, local := range m.Assign {
		if gm.Assign[j] != view.Nodes[local] {
			t.Fatalf("ToGlobal module %d: %d, want %d", j, gm.Assign[j], view.Nodes[local])
		}
	}
}

// TestRegionViewK1Identity: the one-region view covers the network with
// identity numbering, so extraction reproduces it exactly.
func TestRegionViewK1Identity(t *testing.T) {
	net := partitionFixture(t)
	p, err := PartitionNetwork(net, 1)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	view := p.View(net, 0)
	if !view.Covers(net) {
		t.Fatalf("K=1 view does not cover the network")
	}
	sub, err := view.Extract(net)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	for i := range net.Nodes {
		if sub.Nodes[i] != net.Nodes[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, sub.Nodes[i], net.Nodes[i])
		}
	}
	for i := range net.Links {
		if sub.Links[i] != net.Links[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, sub.Links[i], net.Links[i])
		}
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
