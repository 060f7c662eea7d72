package graph

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	id, err := g.AddEdge(0, 1)
	if err != nil || id != 0 {
		t.Fatalf("AddEdge = (%d, %v)", id, err)
	}
	if g.N() != 3 || g.M() != 1 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge direction wrong")
	}
	if e := g.Edge(0); e.From != 0 || e.To != 1 {
		t.Errorf("Edge(0) = %+v", e)
	}
	if id, ok := g.EdgeID(0, 1); !ok || id != 0 {
		t.Errorf("EdgeID = (%d,%v)", id, ok)
	}
	if _, ok := g.EdgeID(2, 0); ok {
		t.Error("EdgeID for missing edge should be false")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	if _, err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop should error")
	}
	if _, err := g.AddEdge(0, 2); err == nil {
		t.Error("out-of-range should error")
	}
	if _, err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative node should error")
	}
	g.MustAddEdge(0, 1)
	if _, err := g.AddEdge(0, 1); err == nil {
		t.Error("duplicate should error")
	}
}

func TestMustAddEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAddEdge should panic on error")
		}
	}()
	New(1).MustAddEdge(0, 0)
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(3, 0)
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Errorf("degrees of 0: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if len(g.OutEdges(0)) != 2 || len(g.InEdges(1)) != 1 {
		t.Error("adjacency slices wrong")
	}
}

func TestHopsFromTo(t *testing.T) {
	// 0 -> 1 -> 2, plus 0 -> 2 direct; node 3 isolated.
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	from := g.HopsFrom(0)
	want := []int{0, 1, 1, Unreachable}
	for i := range want {
		if from[i] != want[i] {
			t.Errorf("HopsFrom[%d] = %d, want %d", i, from[i], want[i])
		}
	}
	to := g.HopsTo(2)
	wantTo := []int{1, 1, 0, Unreachable}
	for i := range wantTo {
		if to[i] != wantTo[i] {
			t.Errorf("HopsTo[%d] = %d, want %d", i, to[i], wantTo[i])
		}
	}
}

func TestStronglyConnected(t *testing.T) {
	if !Ring(5).StronglyConnected() {
		t.Error("ring should be strongly connected")
	}
	g := New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	if g.StronglyConnected() {
		t.Error("one-way chain is not strongly connected")
	}
	if !New(0).StronglyConnected() {
		t.Error("empty graph should be trivially strongly connected")
	}
}

func TestDijkstraKnown(t *testing.T) {
	//      1
	//  0 -----> 1
	//  |        |
	//  4        1
	//  v        v
	//  2 -----> 3
	//      1
	g := New(4)
	e01 := g.MustAddEdge(0, 1)
	e02 := g.MustAddEdge(0, 2)
	e13 := g.MustAddEdge(1, 3)
	e23 := g.MustAddEdge(2, 3)
	w := map[int]float64{e01: 1, e02: 4, e13: 1, e23: 1}
	dist, prev := g.Dijkstra(0, func(id int) float64 { return w[id] })
	wantDist := []float64{0, 1, 4, 2}
	for i := range wantDist {
		if dist[i] != wantDist[i] {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], wantDist[i])
		}
	}
	path := g.PathTo(0, 3, prev)
	if len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 3 {
		t.Errorf("path = %v, want [0 1 3]", path)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(2)
	dist, prev := g.Dijkstra(0, func(int) float64 { return 1 })
	if !math.IsInf(dist[1], 1) {
		t.Error("unreachable node should have +Inf distance")
	}
	if g.PathTo(0, 1, prev) != nil {
		t.Error("PathTo unreachable should be nil")
	}
	if p := g.PathTo(0, 0, prev); len(p) != 1 || p[0] != 0 {
		t.Errorf("PathTo self = %v", p)
	}
}

func TestWidestPathKnown(t *testing.T) {
	// 0->1 cap 10, 1->3 cap 5, 0->2 cap 3, 2->3 cap 100. Widest 0->3 is 5.
	g := New(4)
	caps := map[int]float64{
		g.MustAddEdge(0, 1): 10,
		g.MustAddEdge(1, 3): 5,
		g.MustAddEdge(0, 2): 3,
		g.MustAddEdge(2, 3): 100,
	}
	width, prev := g.WidestPath(0, func(id int) float64 { return caps[id] })
	if width[3] != 5 {
		t.Errorf("width[3] = %v, want 5", width[3])
	}
	path := g.PathTo(0, 3, prev)
	if len(path) != 3 || path[1] != 1 {
		t.Errorf("widest path = %v, want through node 1", path)
	}
	if !math.IsInf(width[0], 1) {
		t.Error("source width should be +Inf")
	}
}

func TestSimplePathsTriangle(t *testing.T) {
	// Complete directed triangle: paths 0->2 with exactly 2 hops: 0->1->2.
	g := Complete(3)
	var got [][]int
	g.SimplePaths(0, 2, 2, 0, func(p []int) bool {
		got = append(got, append([]int(nil), p...))
		return true
	})
	if len(got) != 1 || got[0][1] != 1 {
		t.Errorf("paths = %v, want [[0 1 2]]", got)
	}
	// 1 hop: direct edge.
	count := 0
	g.SimplePaths(0, 2, 1, 0, func(p []int) bool { count++; return true })
	if count != 1 {
		t.Errorf("1-hop paths = %d, want 1", count)
	}
	// 0 hops from 0 to 0.
	count = 0
	g.SimplePaths(0, 0, 0, 0, func(p []int) bool { count++; return true })
	if count != 1 {
		t.Errorf("0-hop self paths = %d, want 1", count)
	}
}

func TestSimplePathsCountComplete(t *testing.T) {
	// In K5, simple paths 0->4 with exactly h hops pass through h-1 distinct
	// intermediates drawn from {1,2,3}: count = P(3, h-1).
	g := Complete(5)
	want := map[int]int{1: 1, 2: 3, 3: 6, 4: 6}
	for hops, expect := range want {
		count := 0
		g.SimplePaths(0, 4, hops, 0, func([]int) bool { count++; return true })
		if count != expect {
			t.Errorf("K5 %d-hop paths = %d, want %d", hops, count, expect)
		}
	}
}

func TestSimplePathsEarlyStopAndLimit(t *testing.T) {
	g := Complete(5)
	count := 0
	g.SimplePaths(0, 4, 3, 0, func([]int) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("early stop count = %d, want 2", count)
	}
	count = 0
	g.SimplePaths(0, 4, 3, 4, func([]int) bool { count++; return true })
	if count != 4 {
		t.Errorf("maxPaths count = %d, want 4", count)
	}
}

func TestSimplePathsDegenerate(t *testing.T) {
	g := Complete(3)
	count := 0
	g.SimplePaths(0, 2, -1, 0, func([]int) bool { count++; return true })
	g.SimplePaths(0, 2, 10, 0, func([]int) bool { count++; return true }) // longer than any simple path
	g.SimplePaths(0, 0, 0, 0, func([]int) bool { count++; return true })
	if count != 1 {
		t.Errorf("degenerate enumeration count = %d, want 1", count)
	}
}

func TestExactHopShortest(t *testing.T) {
	// Line 0-1-2 bidirectional, unit weights. Exactly 2 hops from 0:
	// back to 0 (0-1-0) cost 2, or to 2 (0-1-2) cost 2; node 1 unreachable
	// in exactly 2 hops... actually 0-1 then 1-0 then? h=2 ends at 0 or 2.
	g := Line(3)
	d := g.ExactHopShortest(0, 3, func(int) float64 { return 1 })
	if d[0][0] != 0 || !math.IsInf(d[0][1], 1) {
		t.Error("h=0 layer wrong")
	}
	if d[1][1] != 1 || !math.IsInf(d[1][2], 1) {
		t.Error("h=1 layer wrong")
	}
	if d[2][0] != 2 || d[2][2] != 2 || !math.IsInf(d[2][1], 1) {
		t.Errorf("h=2 layer wrong: %v", d[2])
	}
	if d[3][1] != 3 {
		t.Errorf("h=3 to node 1 = %v, want 3", d[3][1])
	}
}

func TestExactHopWidest(t *testing.T) {
	g := New(3)
	caps := map[int]float64{
		g.MustAddEdge(0, 1): 7,
		g.MustAddEdge(1, 2): 3,
		g.MustAddEdge(0, 2): 2,
	}
	w := g.ExactHopWidest(0, 2, func(id int) float64 { return caps[id] })
	if !math.IsInf(w[0][0], 1) {
		t.Error("h=0 src width should be +Inf")
	}
	if w[1][2] != 2 || w[1][1] != 7 {
		t.Errorf("h=1 widths wrong: %v", w[1])
	}
	if w[2][2] != 3 {
		t.Errorf("h=2 width to 2 = %v, want 3", w[2][2])
	}
}

func TestLongestSimplePathLen(t *testing.T) {
	g := Line(4) // longest simple path 0..3 has 4 nodes
	if got := g.LongestSimplePathLen(0, 3, 0); got != 4 {
		t.Errorf("line longest = %d, want 4", got)
	}
	if got := Complete(4).LongestSimplePathLen(0, 3, 0); got != 4 {
		t.Errorf("K4 longest = %d, want 4 (Hamiltonian)", got)
	}
	g2 := New(2) // no edges
	if got := g2.LongestSimplePathLen(0, 1, 0); got != 0 {
		t.Errorf("disconnected longest = %d, want 0", got)
	}
}

func TestRandomConnectedProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for _, tc := range []struct{ n, m int }{{2, 2}, {5, 12}, {10, 30}, {25, 200}, {6, 30}} {
		g, err := RandomConnected(tc.n, tc.m, rng)
		if err != nil {
			t.Fatalf("RandomConnected(%d,%d): %v", tc.n, tc.m, err)
		}
		if g.N() != tc.n || g.M() != tc.m {
			t.Errorf("size mismatch: got (%d,%d) want (%d,%d)", g.N(), g.M(), tc.n, tc.m)
		}
		if !g.StronglyConnected() {
			t.Errorf("RandomConnected(%d,%d) not strongly connected", tc.n, tc.m)
		}
	}
}

func TestRandomConnectedErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := RandomConnected(1, 0, rng); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := RandomConnected(5, 7, rng); err == nil {
		t.Error("m below spanning requirement should error")
	}
	if _, err := RandomConnected(3, 7, rng); err == nil {
		t.Error("m above max should error")
	}
}

func TestRandomConnectedDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	// Request nearly complete graph to exercise the dense endgame.
	n := 8
	m := MaxEdges(n) - 1
	g, err := RandomConnected(n, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != m || !g.StronglyConnected() {
		t.Errorf("dense generation failed: M=%d", g.M())
	}
}

func TestFixtureGenerators(t *testing.T) {
	if g := Complete(4); g.M() != 12 || !g.StronglyConnected() {
		t.Error("Complete(4) wrong")
	}
	if g := Ring(4); g.M() != 8 || !g.StronglyConnected() {
		t.Error("Ring(4) wrong")
	}
	if g := Line(4); g.M() != 6 || !g.StronglyConnected() {
		t.Error("Line(4) wrong")
	}
	if g := Ring(1); g.M() != 0 {
		t.Error("Ring(1) should have no edges")
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		if b.Has(i) {
			t.Errorf("fresh bitset has %d", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Errorf("Set(%d) not visible", i)
		}
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	c := b.Clone()
	b.Clear(64)
	if b.Has(64) || !c.Has(64) {
		t.Error("Clear/Clone interaction wrong")
	}
}

func TestWriteDot(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1)
	var sb strings.Builder
	err := g.WriteDot(&sb, DotOptions{
		Name:      "test",
		RankDir:   "LR",
		NodeLabel: func(v int) string { return "node" },
		EdgeLabel: func(id int) string { return "edge" },
		NodeAttrs: func(v int) string { return `shape="box"` },
		EdgeAttrs: func(id int) string { return `color="red"` },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph test", "rankdir=LR", "n0 -> n1", `label="node"`, `label="edge"`, `shape="box"`, `color="red"`} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	var sb2 strings.Builder
	if err := g.WriteDot(&sb2, DotOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "digraph G") {
		t.Error("default graph name missing")
	}
}

// Property: Dijkstra distances satisfy the triangle inequality over edges and
// match a Bellman-Ford style relaxation fixed point.
func TestQuickDijkstraFixedPoint(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := 2 + int(seed%10)
		maxM := MaxEdges(n)
		m := 2*(n-1) + rng.IntN(maxM-2*(n-1)+1)
		g, err := RandomConnected(n, m, rng)
		if err != nil {
			return false
		}
		w := make([]float64, g.M())
		for i := range w {
			w[i] = rng.Float64()*10 + 0.01
		}
		wf := func(id int) float64 { return w[id] }
		dist, _ := g.Dijkstra(0, wf)
		for id := 0; id < g.M(); id++ {
			e := g.Edge(id)
			if dist[e.To] > dist[e.From]+w[id]+1e-9 {
				return false // relaxable edge: not a shortest-path fixed point
			}
		}
		// Every non-source node's distance is achieved through some in-edge.
		for v := 0; v < n; v++ {
			if v == 0 {
				continue
			}
			ok := false
			for _, eid := range g.InEdges(v) {
				e := g.Edge(int(eid))
				if math.Abs(dist[e.From]+w[eid]-dist[v]) < 1e-9 {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: widest path width equals the best bottleneck over all simple
// paths (verified by enumeration on small graphs).
func TestQuickWidestMatchesEnumeration(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, ^seed))
		n := 2 + int(seed%5) // keep tiny for enumeration
		m := 2 * (n - 1)
		extra := rng.IntN(MaxEdges(n) - m + 1)
		g, err := RandomConnected(n, m+extra, rng)
		if err != nil {
			return false
		}
		caps := make([]float64, g.M())
		for i := range caps {
			caps[i] = rng.Float64()*100 + 1
		}
		cf := func(id int) float64 { return caps[id] }
		width, _ := g.WidestPath(0, cf)
		dst := n - 1
		best := 0.0
		for hops := 1; hops < n; hops++ {
			g.SimplePaths(0, dst, hops, 0, func(p []int) bool {
				w := math.Inf(1)
				for i := 0; i+1 < len(p); i++ {
					id, _ := g.EdgeID(p[i], p[i+1])
					if caps[id] < w {
						w = caps[id]
					}
				}
				if w > best {
					best = w
				}
				return true
			})
		}
		return math.Abs(width[dst]-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: generated graphs have exactly the requested edge count, no
// self-loops, no duplicates, and strong connectivity.
func TestQuickRandomConnectedInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed*31))
		n := 2 + int(seed%12)
		lo := 2 * (n - 1)
		m := lo + rng.IntN(MaxEdges(n)-lo+1)
		g, err := RandomConnected(n, m, rng)
		if err != nil || g.M() != m || !g.StronglyConnected() {
			return false
		}
		seen := map[Arc]bool{}
		for i := 0; i < g.M(); i++ {
			e := g.Edge(i)
			if e.From == e.To || seen[e] {
				return false
			}
			seen[e] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
