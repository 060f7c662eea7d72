package model

import (
	"math/rand/v2"
	"slices"
	"testing"

	"elpc/internal/graph"
)

// TestTwoPassAdjacency checks the topologies NewNetwork and Partition.View
// build in two passes (graph.NewFor, then AddEdge) against graphs built by
// AddEdge alone, that an AddEdge past a carved node's counted degree
// leaves its neighbors' lists intact, and that NewNetwork reports the same
// first error for bad link sets as a build that validates each link in
// order.
func TestTwoPassAdjacency(t *testing.T) {
	t.Run("network and region views", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(5, 5))
		for _, n := range []int{2, 7, 40, 120} {
			net := randomTestNetwork(t, n, rng)
			sameTopology(t, "network", net.Topology(), appendBuilt(n, net.Links, nil))
			for _, k := range []int{1, 3, 8} {
				if k > n {
					continue
				}
				p, err := PartitionNetwork(net, k)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < k; r++ {
					v := p.View(net, r)
					sameTopology(t, "region view", v.topo, appendBuilt(len(v.Nodes), net.Links, v))
				}
			}
		}
	})

	t.Run("AddEdge past a carved node's degree", func(t *testing.T) {
		arcs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
		carved := graph.NewFor(4, len(arcs), func(i int) (int, int) { return arcs[i][0], arcs[i][1] })
		plain := graph.New(4)
		// Every carved list is full once the counted arcs are in, so each
		// extra arc overflows its tail's out-list and its head's in-list;
		// neither may spill into the next node's list in the shared array.
		for _, a := range append(arcs, [2]int{1, 3}, [2]int{0, 2}, [2]int{1, 0}) {
			carved.MustAddEdge(a[0], a[1])
			plain.MustAddEdge(a[0], a[1])
			sameTopology(t, "after AddEdge", carved, plain)
		}
	})

	t.Run("bad link sets", func(t *testing.T) {
		nodes := []Node{{ID: 0, Power: 1}, {ID: 1, Power: 1}, {ID: 2, Power: 1}}
		link := func(id int, from, to NodeID) Link { return Link{ID: id, From: from, To: to, BWMbps: 10, MLDms: 1} }
		tests := []struct {
			name  string
			links []Link
			want  string
		}{
			{"endpoint out of range", []Link{link(0, 0, 1), link(1, 1, 3)},
				"model: link 1: graph: edge (1,3) out of range [0,3)"},
			{"negative endpoint", []Link{link(0, -1, 1), link(1, 1, 2)},
				"model: link 0: graph: edge (-1,1) out of range [0,3)"},
			{"self-loop", []Link{link(0, 0, 1), link(1, 2, 2)},
				"model: link 1: graph: self-loop at node 2"},
			{"duplicate", []Link{link(0, 0, 1), link(1, 1, 0), link(2, 0, 1)},
				"model: link 2: graph: duplicate edge (0,1)"},
			{"bad field after a bad arc", []Link{link(0, 0, 1), link(1, 1, 1), {ID: 2, From: 1, To: 2, BWMbps: 0}},
				"model: link 1: graph: self-loop at node 1"},
			{"bad arc after a bad field", []Link{link(0, 0, 1), {ID: 1, From: 1, To: 2, BWMbps: 5, MLDms: -1}, link(2, 2, 7)},
				"model: link 1 has negative MLD -1"},
			{"bad field and bad arc on one link", []Link{link(0, 0, 1), {ID: 5, From: 9, To: 9, BWMbps: 5}},
				"model: link 1 has ID 5; links must be densely numbered"},
		}
		for _, tc := range tests {
			_, err := NewNetwork(nodes, tc.links)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: NewNetwork error %v, want %q", tc.name, err, tc.want)
			}
		}
	})
}

// randomTestNetwork returns a network on n nodes whose links are a random
// subset of the ordered node pairs, listed in random order, so adjacency
// lists are filled out of node order.
func randomTestNetwork(t *testing.T, n int, rng *rand.Rand) *Network {
	t.Helper()
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: NodeID(i), Power: 1 + rng.Float64()}
	}
	var links []Link
	for _, p := range rng.Perm(n * n) {
		u, v := p/n, p%n
		if u != v && rng.Float64() < 0.3 {
			links = append(links, Link{ID: len(links), From: NodeID(u), To: NodeID(v), BWMbps: 1 + rng.Float64(), MLDms: rng.Float64()})
		}
	}
	net, err := NewNetwork(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// appendBuilt builds, with AddEdge alone, the topology of links (all of
// them, or only view's internal links renumbered locally).
func appendBuilt(n int, links []Link, view *RegionView) *graph.Graph {
	g := graph.New(n)
	if view == nil {
		for _, l := range links {
			g.MustAddEdge(int(l.From), int(l.To))
		}
		return g
	}
	for _, id := range view.Links {
		l := links[id]
		g.MustAddEdge(view.Local(l.From), view.Local(l.To))
	}
	return g
}

// sameTopology fails t unless got and want have the same arcs, edge IDs
// and adjacency lists in the same order.
func sameTopology(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: n%d m%d, want n%d m%d", what, got.N(), got.M(), want.N(), want.M())
	}
	for id := 0; id < want.M(); id++ {
		if got.Edge(id) != want.Edge(id) {
			t.Fatalf("%s: Edge(%d) = %v, want %v", what, id, got.Edge(id), want.Edge(id))
		}
	}
	for u := 0; u < want.N(); u++ {
		if !slices.Equal(got.OutEdges(u), want.OutEdges(u)) || !slices.Equal(got.InEdges(u), want.InEdges(u)) {
			t.Fatalf("%s: node %d adjacency out %v in %v, want out %v in %v",
				what, u, got.OutEdges(u), got.InEdges(u), want.OutEdges(u), want.InEdges(u))
		}
		for v := 0; v < want.N(); v++ {
			gid, gok := got.EdgeID(u, v)
			wid, wok := want.EdgeID(u, v)
			if gok != wok || (wok && gid != wid) {
				t.Fatalf("%s: EdgeID(%d,%d) = (%d,%v), want (%d,%v)", what, u, v, gid, gok, wid, wok)
			}
		}
	}
}
