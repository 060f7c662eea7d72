package graph

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

func TestComponents(t *testing.T) {
	g := New(7)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(4, 3) // direction must not matter
	// 5 and 6 are isolated singletons.
	got := g.Components()
	want := [][]int{{0, 1, 2}, {3, 4}, {5}, {6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Components = %v, want %v", got, want)
	}
	if comps := New(0).Components(); len(comps) != 0 {
		t.Fatalf("empty graph components = %v, want none", comps)
	}
}

func TestPartitionKProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.IntN(40)
		m := 2*(n-1) + rng.IntN(n)
		g, err := RandomConnected(n, m, rng)
		if err != nil {
			t.Fatalf("random graph: %v", err)
		}
		for _, k := range []int{1, 2, 3, 5} {
			if k > n {
				continue
			}
			part := g.PartitionK(k)
			if len(part) != n {
				t.Fatalf("partition length %d, want %d", len(part), n)
			}
			sizes := make([]int, k)
			for v, r := range part {
				if r < 0 || r >= k {
					t.Fatalf("node %d in region %d, want [0,%d)", v, r, k)
				}
				sizes[r]++
			}
			for r, s := range sizes {
				if s == 0 {
					t.Fatalf("k=%d: region %d is empty (sizes %v)", k, r, sizes)
				}
			}
			// Deterministic: same graph, same partition.
			if again := g.PartitionK(k); !reflect.DeepEqual(part, again) {
				t.Fatalf("k=%d: partition not deterministic", k)
			}
		}
		// k=1 is the all-zero partition.
		for v, r := range g.PartitionK(1) {
			if r != 0 {
				t.Fatalf("k=1: node %d in region %d", v, r)
			}
		}
		// k>=n gives every node its own region.
		for v, r := range g.PartitionK(n) {
			if r != v {
				t.Fatalf("k=n: node %d in region %d", v, r)
			}
		}
	}
}

// TestPartitionKBalance checks that lockstep growth keeps regions within a
// small factor of each other on a connected graph.
func TestPartitionKBalance(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	g, err := RandomConnected(60, 200, rng)
	if err != nil {
		t.Fatalf("random graph: %v", err)
	}
	part := g.PartitionK(4)
	sizes := make([]int, 4)
	for _, r := range part {
		sizes[r]++
	}
	for r, s := range sizes {
		if s < 5 || s > 40 {
			t.Fatalf("region %d has %d of 60 nodes (sizes %v); partition badly unbalanced", r, s, sizes)
		}
	}
}

// TestPartitionKRegionsConnected verifies each region is connected in the
// undirected sense (BFS growth can only claim neighbors).
func TestPartitionKRegionsConnected(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	g, err := RandomConnected(40, 120, rng)
	if err != nil {
		t.Fatalf("random graph: %v", err)
	}
	k := 3
	part := g.PartitionK(k)
	for r := 0; r < k; r++ {
		var members []int
		for v, p := range part {
			if p == r {
				members = append(members, v)
			}
		}
		// BFS inside the region from its first member.
		seen := map[int]bool{members[0]: true}
		queue := []int{members[0]}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			var nbrs []int
			for _, eid := range g.OutEdges(u) {
				nbrs = append(nbrs, g.Edge(int(eid)).To)
			}
			for _, eid := range g.InEdges(u) {
				nbrs = append(nbrs, g.Edge(int(eid)).From)
			}
			for _, v := range nbrs {
				if part[v] == r && !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		if len(seen) != len(members) {
			t.Fatalf("region %d: %d of %d members reachable inside the region", r, len(seen), len(members))
		}
	}
}

// TestPartitionKDisconnected exercises the seed-less component path: nodes
// unreachable from every seed must still be assigned somewhere.
func TestPartitionKDisconnected(t *testing.T) {
	g := New(9)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 2)
	// 4..8 isolated.
	part := g.PartitionK(3)
	for v, r := range part {
		if r < 0 || r >= 3 {
			t.Fatalf("node %d unassigned or out of range: %d", v, r)
		}
	}
}
