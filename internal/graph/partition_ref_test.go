package graph_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/graph"
)

// This file keeps the partitioner PartitionK replaced — one that lists a
// node's undirected neighbors afresh at every step and keeps each medoid
// BFS's distances in a map — as the reference the flat-adjacency
// partitioner is held to. It reads a graph only through OutEdges, InEdges
// and Edge; refPartitionK and its helpers are that partitioner's
// PartitionK, growRegions, regionMedoids, refinePartition, removableFrom
// and farthestPointSeeds.

// TestPartitionKMatchesReference holds PartitionK to the reference
// assignment for assignment on Suite20 topologies, clustered networks (the
// 8-cluster n504 network the sharded benchmark installs among them), random
// sparse and dense digraphs, and graphs with isolated nodes and several
// components.
func TestPartitionKMatchesReference(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
	}
	var cases []tc
	for _, spec := range gen.Suite20()[:16] {
		p, err := spec.Build()
		if err != nil {
			t.Fatalf("suite case %d: %v", spec.ID, err)
		}
		cases = append(cases, tc{fmt.Sprintf("suite%d", spec.ID), p.Net.Topology()})
	}
	clusters := []struct {
		spec gen.ClusterSpec
		seed uint64
	}{
		{gen.DefaultClusterSpec(), 2026},
		{gen.DefaultClusterSpec(), 7},
		{gen.ClusterSpec{Clusters: 4, Nodes: 20, Links: 90, InterLinks: 16}, 1},
		{gen.ClusterSpec{Clusters: 4, Nodes: 20, Links: 90, InterLinks: 16}, 2},
		{gen.ClusterSpec{Clusters: 5, Nodes: 12, Links: 40, InterLinks: 10}, 3},
		{gen.ClusterSpec{Clusters: 2, Nodes: 30, Links: 200, InterLinks: 4}, 4},
	}
	for _, c := range clusters {
		net, err := gen.ClusteredNetwork(c.spec, gen.DefaultRanges(), gen.RNG(c.seed))
		if err != nil {
			t.Fatalf("clustered %v seed %d: %v", c.spec, c.seed, err)
		}
		cases = append(cases, tc{fmt.Sprintf("cluster-%v-seed%d", c.spec, c.seed), net.Topology()})
	}
	rng := rand.New(rand.NewPCG(22, 22))
	for i := 0; i < 30; i++ {
		n := 2 + rng.IntN(70)
		// Arc probabilities from below one arc per node (many isolated
		// nodes and components) to dense.
		prob := []float64{0.5 / float64(n), 2 / float64(n), 0.1, 0.5}[i%4]
		cases = append(cases, tc{fmt.Sprintf("random%d-n%d-p%.3f", i, n, prob), randomDigraph(n, prob, rng)})
	}
	cases = append(cases, tc{"islands", islands()})

	for _, c := range cases {
		for _, k := range []int{2, 3, 4, 5, 8, 13} {
			if got, want := c.g.PartitionK(k), refPartitionK(c.g, k); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (n%d m%d) k=%d: PartitionK = %v, reference = %v", c.name, c.g.N(), c.g.M(), k, got, want)
			}
		}
	}
}

// randomDigraph returns a digraph on n nodes holding each ordered pair as
// an arc with probability prob.
func randomDigraph(n int, prob float64, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < prob {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// islands returns a 30-node graph of three components of different sizes,
// one link of each kept one-way, plus isolated nodes.
func islands() *graph.Graph {
	g := graph.New(30)
	for u := 0; u < 11; u++ {
		g.MustAddEdge(u, u+1)
		if u%3 != 0 {
			g.MustAddEdge(u+1, u)
		}
	}
	for u := 14; u < 19; u++ {
		g.MustAddEdge(u, u+1)
		g.MustAddEdge(u+1, u)
		if u > 14 {
			g.MustAddEdge(14, u+1)
		}
	}
	g.MustAddEdge(22, 23)
	g.MustAddEdge(24, 23)
	// 12, 13, 20, 21 and 25..29 are isolated.
	return g
}

func refUndirectedNeighbors(g *graph.Graph, u int) []int {
	out := make([]int, 0, g.OutDegree(u)+g.InDegree(u))
	for _, eid := range g.OutEdges(u) {
		out = append(out, g.Edge(int(eid)).To)
	}
	for _, eid := range g.InEdges(u) {
		out = append(out, g.Edge(int(eid)).From)
	}
	return out
}

func refPartitionK(g *graph.Graph, k int) []int {
	n := g.N()
	part := make([]int, n)
	if k <= 1 || n == 0 {
		return part
	}
	if k >= n {
		for v := range part {
			part[v] = v
		}
		return part
	}
	seeds := refFarthestPointSeeds(g, k)
	var sizes []int
	for iter := 0; iter < 4; iter++ {
		part, sizes = refGrowRegions(g, seeds, k)
		next := refRegionMedoids(g, part, k)
		same := true
		for i := range seeds {
			if next[i] != seeds[i] {
				same = false
				break
			}
		}
		if same {
			break
		}
		seeds = next
	}
	refRefinePartition(g, part, sizes, k)
	return part
}

func refGrowRegions(g *graph.Graph, seeds []int, k int) (part, sizes []int) {
	n := g.N()
	part = make([]int, n)
	for v := range part {
		part[v] = -1
	}
	attach := make([]map[int]int, k)
	sizes = make([]int, k)
	claim := func(r, v int) {
		part[v] = r
		sizes[r]++
		delete(attach[r], v)
		for _, w := range refUndirectedNeighbors(g, v) {
			if part[w] == -1 {
				attach[r][w]++
			}
		}
	}
	for r, s := range seeds {
		attach[r] = make(map[int]int)
		claim(r, s)
	}
	assigned := len(seeds)
	for assigned < n {
		r := -1
		for i := range attach {
			if len(attach[i]) == 0 {
				continue
			}
			if r < 0 || sizes[i] < sizes[r] {
				r = i
			}
		}
		if r < 0 {
			break
		}
		best, bestCount := -1, 0
		for v, c := range attach[r] {
			if part[v] != -1 {
				delete(attach[r], v)
				continue
			}
			if c > bestCount || (c == bestCount && (best == -1 || v < best)) {
				best, bestCount = v, c
			}
		}
		if best == -1 {
			continue
		}
		claim(r, best)
		assigned++
	}
	for v := range part {
		if part[v] == -1 {
			r := 0
			for i := 1; i < k; i++ {
				if sizes[i] < sizes[r] {
					r = i
				}
			}
			part[v] = r
			sizes[r]++
		}
	}
	return part, sizes
}

func refRegionMedoids(g *graph.Graph, part []int, k int) []int {
	medoids := make([]int, k)
	for r := 0; r < k; r++ {
		var members []int
		for v, p := range part {
			if p == r {
				members = append(members, v)
			}
		}
		best, bestEcc := members[0], g.N()+1
		for _, s := range members {
			dist := map[int]int{s: 0}
			queue := []int{s}
			ecc := 0
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, w := range refUndirectedNeighbors(g, u) {
					if part[w] != r {
						continue
					}
					if _, ok := dist[w]; !ok {
						dist[w] = dist[u] + 1
						if dist[w] > ecc {
							ecc = dist[w]
						}
						queue = append(queue, w)
					}
				}
			}
			if len(dist) < len(members) {
				ecc = g.N()
			}
			if ecc < bestEcc {
				best, bestEcc = s, ecc
			}
		}
		medoids[r] = best
	}
	return medoids
}

func refRefinePartition(g *graph.Graph, part, sizes []int, k int) {
	n := g.N()
	ideal := n / k
	maxSize := ideal + ideal/2 + 1
	minSize := ideal / 2
	if minSize < 1 {
		minSize = 1
	}
	counts := make([]int, k)
	for sweep := 0; sweep < 8; sweep++ {
		moved := false
		for v := 0; v < n; v++ {
			a := part[v]
			if sizes[a] <= minSize {
				continue
			}
			for i := range counts {
				counts[i] = 0
			}
			for _, w := range refUndirectedNeighbors(g, v) {
				counts[part[w]]++
			}
			b, best := a, counts[a]
			for r := 0; r < k; r++ {
				if r != a && counts[r] > best && sizes[r] < maxSize {
					b, best = r, counts[r]
				}
			}
			if b == a || !refRemovableFrom(g, part, v, a) {
				continue
			}
			part[v] = b
			sizes[a]--
			sizes[b]++
			moved = true
		}
		if !moved {
			break
		}
	}
}

func refRemovableFrom(g *graph.Graph, part []int, v, r int) bool {
	start := -1
	members := 0
	for u := 0; u < g.N(); u++ {
		if u != v && part[u] == r {
			members++
			if start == -1 {
				start = u
			}
		}
	}
	if members <= 1 {
		return true
	}
	seen := make(map[int]bool, members)
	seen[start] = true
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range refUndirectedNeighbors(g, u) {
			if w != v && part[w] == r && !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(seen) == members
}

func refFarthestPointSeeds(g *graph.Graph, k int) []int {
	const unreached = int(^uint(0) >> 1)
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = unreached
	}
	seeds := make([]int, 0, k)
	next := 0
	for len(seeds) < k {
		seeds = append(seeds, next)
		dist[next] = 0
		queue := []int{next}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range refUndirectedNeighbors(g, u) {
				if dist[u]+1 < dist[v] {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		next = -1
		best := -1
		for v := 0; v < n; v++ {
			if dist[v] > best {
				best = dist[v]
				next = v
			}
		}
		if next == -1 || best == 0 {
			break
		}
	}
	return seeds
}
