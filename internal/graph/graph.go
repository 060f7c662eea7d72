// Package graph provides the directed-graph substrate underlying the ELPC
// reproduction: adjacency-list graphs, reachability and shortest/widest path
// algorithms, exact-hop dynamic-programming layers, bounded simple-path
// enumeration, and random connected topology generators.
//
// The package is deliberately domain-free: edges carry no attributes. Domain
// weights (bandwidth, delay) live in internal/model and are supplied to
// algorithms as edge-indexed weight functions.
package graph

import (
	"fmt"
)

// Graph is a simple directed graph (no self-loops, no parallel edges) with
// stable integer node IDs 0..N-1 and edge IDs 0..M-1 in insertion order.
type Graph struct {
	n     int
	out   [][]int32 // node -> out-edge IDs
	in    [][]int32 // node -> in-edge IDs
	edges []Arc
	index map[[2]int32]int32 // (from,to) -> edge ID
}

// Arc is a directed edge.
type Arc struct {
	From, To int
}

// New creates an empty graph with n nodes. It panics if n < 0.
func New(n int) *Graph { return NewSized(n, 0) }

// NewSized is New with the edge list and the (from,to) index sized for m
// edges up front, so adding up to m edges never regrows them.
func NewSized(n, m int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{
		n:     n,
		out:   make([][]int32, n),
		in:    make([][]int32, n),
		edges: make([]Arc, 0, m),
		index: make(map[[2]int32]int32, m),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the directed edge u→v and returns its edge ID. Adding a
// self-loop or a duplicate edge returns an error.
func (g *Graph) AddEdge(u, v int) (int, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return -1, fmt.Errorf("graph: self-loop at node %d", u)
	}
	key := [2]int32{int32(u), int32(v)}
	if _, dup := g.index[key]; dup {
		return -1, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	id := int32(len(g.edges))
	g.edges = append(g.edges, Arc{From: u, To: v})
	g.out[u] = append(g.out[u], id)
	g.in[v] = append(g.in[v], id)
	g.index[key] = id
	return int(id), nil
}

// MustAddEdge is AddEdge but panics on error; intended for construction of
// fixed test fixtures.
func (g *Graph) MustAddEdge(u, v int) int {
	id, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return id
}

// Edge returns the arc with the given edge ID.
func (g *Graph) Edge(id int) Arc { return g.edges[id] }

// EdgeID returns the ID of edge u→v and whether it exists.
func (g *Graph) EdgeID(u, v int) (int, bool) {
	id, ok := g.index[[2]int32{int32(u), int32(v)}]
	return int(id), ok
}

// HasEdge reports whether the directed edge u→v exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.index[[2]int32{int32(u), int32(v)}]
	return ok
}

// OutEdges returns the IDs of edges leaving v. The returned slice must not be
// modified.
func (g *Graph) OutEdges(v int) []int32 { return g.out[v] }

// InEdges returns the IDs of edges entering v. The returned slice must not be
// modified.
func (g *Graph) InEdges(v int) []int32 { return g.in[v] }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int) int { return len(g.out[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v int) int { return len(g.in[v]) }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := NewSized(g.n, len(g.edges))
	for _, e := range g.edges {
		c.MustAddEdge(e.From, e.To)
	}
	return c
}

// Reverse returns a new graph with every edge direction flipped. Edge IDs are
// not preserved.
func (g *Graph) Reverse() *Graph {
	r := NewSized(g.n, len(g.edges))
	for _, e := range g.edges {
		r.MustAddEdge(e.To, e.From)
	}
	return r
}

// WeightFunc assigns a non-negative weight to an edge ID.
type WeightFunc func(edgeID int) float64

// Bitset is a fixed-capacity set of small non-negative integers, used to
// track visited nodes on candidate paths without allocation-heavy maps.
type Bitset []uint64

// NewBitset returns a bitset able to hold values in [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Has reports whether i is in the set.
func (b Bitset) Has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Set inserts i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear removes i.
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Clone returns a copy of the bitset.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// Count returns the number of elements in the set.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}
