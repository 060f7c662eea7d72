package graph

import "sort"

// This file is the region-partitioning substrate behind the sharded fleet
// manager (internal/fleet.ShardedFleet): weakly connected components and a
// deterministic balanced K-way node partition. Like the rest of the package
// it is domain-free; internal/model.PartitionNetwork layers link ownership
// and boundary-set bookkeeping on top.

// Components returns the weakly connected components of the graph (edge
// directions ignored), each a sorted slice of node IDs, ordered by their
// smallest member. An empty graph has no components.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			u := comp[i]
			for _, eid := range g.out[u] {
				if v := g.edges[eid].To; !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
			for _, eid := range g.in[u] {
				if v := g.edges[eid].From; !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// PartitionK splits the nodes into k regions and returns the region index of
// every node (in [0, k)). The partition is deterministic for a given graph:
// k seed nodes are chosen by a farthest-point sweep over undirected hop
// distance (so seeds land in well-separated areas — on a clustered topology
// they land one per cluster), then regions grow around their seeds in
// lockstep. Each turn the currently smallest region claims, among the
// unclaimed nodes adjacent to it, the one with the most undirected edges
// into the region (lowest node ID on ties): growing by attachment strength
// keeps region sizes balanced while following community structure — a dense
// cluster fills up before the few links crossing to the next cluster are
// ever preferred. Every region is connected in the undirected sense
// whenever the graph is; nodes unreachable from every seed (isolated
// components) are appended to the smallest region.
//
// k <= 1 yields the trivial all-zero partition; k >= N() gives every node
// its own region. PartitionK never fails.
func (g *Graph) PartitionK(k int) []int {
	part := make([]int, g.n)
	if k <= 1 || g.n == 0 {
		return part
	}
	if k >= g.n {
		for v := range part {
			part[v] = v
		}
		return part
	}

	// Lloyd-style iteration: grow regions around the seeds, move each seed
	// to its region's medoid, regrow — farthest-point seeds can land
	// off-center (near a boundary, or two in one community), and one or two
	// reseeding rounds pull them into the community cores.
	p := newPartitioner(g)
	seeds := p.farthestPointSeeds(k)
	var sizes []int
	for iter := 0; iter < 4; iter++ {
		part, sizes = p.growRegions(seeds, k)
		next := p.regionMedoids(part, k)
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
	p.refinePartition(part, sizes, k)
	return part
}

// partitioner is one PartitionK call's working state: the graph's
// adjacency with edge directions ignored, flat, and the BFS work arrays every
// search reuses.
type partitioner struct {
	n int
	// Node u's undirected neighbors are nbr[off[u]:off[u+1]]: the heads of
	// its out-edges, then the tails of its in-edges, each in edge-ID order.
	// A link present in both directions lists its neighbor twice, so
	// counting neighbors counts undirected edges.
	off []int
	nbr []int32
	// A search marks node v visited by setting seen[v] to its own stamp;
	// dist and queue hold its hop distances and frontier.
	seen  []int
	stamp int
	dist  []int
	queue []int32
}

func newPartitioner(g *Graph) *partitioner {
	p := &partitioner{
		n:    g.n,
		off:  make([]int, g.n+1),
		nbr:  make([]int32, 0, 2*len(g.edges)),
		seen: make([]int, g.n),
		dist: make([]int, g.n),
	}
	for u := 0; u < g.n; u++ {
		for _, eid := range g.out[u] {
			p.nbr = append(p.nbr, int32(g.edges[eid].To))
		}
		for _, eid := range g.in[u] {
			p.nbr = append(p.nbr, int32(g.edges[eid].From))
		}
		p.off[u+1] = len(p.nbr)
	}
	return p
}

// neighbors returns u's undirected neighbors (see partitioner.off).
func (p *partitioner) neighbors(u int) []int32 { return p.nbr[p.off[u]:p.off[u+1]] }

// search starts a new search: no node is seen by it yet.
func (p *partitioner) search() int {
	p.stamp++
	return p.stamp
}

// growRegions grows k regions around the seeds by attachment strength:
// each turn the currently smallest region (lowest index on ties) claims,
// among the unclaimed nodes adjacent to it, the one with the most
// undirected edges into the region (lowest node ID on ties). Nodes in
// components holding no seed are appended to the smallest region.
func (p *partitioner) growRegions(seeds []int, k int) (part, sizes []int) {
	part = make([]int, p.n)
	for v := range part {
		part[v] = -1
	}
	// attach[r][v] counts the undirected edges from unclaimed node v into
	// region r — the claim priority. claim moves a node into a region and
	// credits its unclaimed neighbors.
	attach := make([]map[int]int, k)
	sizes = make([]int, k)
	claim := func(r, v int) {
		part[v] = r
		sizes[r]++
		delete(attach[r], v)
		for _, w := range p.neighbors(v) {
			if part[w] == -1 {
				attach[r][int(w)]++
			}
		}
	}
	for r, s := range seeds {
		attach[r] = make(map[int]int)
		claim(r, s)
	}
	assigned := len(seeds)
	for assigned < p.n {
		// The smallest region with any adjacent unclaimed node grows next
		// (lowest index on ties).
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
			break // remaining nodes unreachable from every seed
		}
		best, bestCount := -1, 0
		for v, c := range attach[r] {
			if part[v] != -1 {
				delete(attach[r], v) // claimed by another region meanwhile
				continue
			}
			if c > bestCount || (c == bestCount && (best == -1 || v < best)) {
				best, bestCount = v, c
			}
		}
		if best == -1 {
			continue // frontier was entirely stale; re-pick a region
		}
		claim(r, best)
		assigned++
	}
	// Nodes in components that hold no seed: append each to the currently
	// smallest region so no node is left unassigned.
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

// regionMedoids returns, per region, the member minimizing its eccentricity
// within the region-induced undirected subgraph (lowest node ID on ties;
// unreachable members count as infinitely far, so medoids sit in the
// region's main component).
func (p *partitioner) regionMedoids(part []int, k int) []int {
	medoids := make([]int, k)
	var members []int
	for r := 0; r < k; r++ {
		members = members[:0]
		for v, pr := range part {
			if pr == r {
				members = append(members, v)
			}
		}
		best, bestEcc := members[0], p.n+1
		for _, s := range members {
			if ecc := p.eccentricity(part, s, len(members), bestEcc); ecc < bestEcc {
				best, bestEcc = s, ecc
			}
		}
		medoids[r] = best
	}
	return medoids
}

// eccentricity returns s's eccentricity within its region of part, which
// has the given number of members: the largest hop distance from s to a
// member, or n when some member is unreachable inside the region. The BFS
// stops once a distance reaches bound and returns it; a member that far
// out cannot undercut a best eccentricity of bound.
func (p *partitioner) eccentricity(part []int, s, members, bound int) int {
	r := part[s]
	stamp := p.search()
	p.seen[s] = stamp
	p.dist[s] = 0
	queue := append(p.queue[:0], int32(s))
	ecc := 0
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, w := range p.neighbors(int(u)) {
			if part[w] != r || p.seen[w] == stamp {
				continue
			}
			p.seen[w] = stamp
			d := p.dist[u] + 1
			p.dist[w] = d
			if d > ecc {
				ecc = d
				if ecc >= bound {
					p.queue = queue
					return ecc
				}
			}
			queue = append(queue, w)
		}
	}
	p.queue = queue
	if len(queue) < members {
		return p.n // disconnected region: prefer the main component
	}
	return ecc
}

// refinePartition is a deterministic boundary-refinement sweep
// (Kernighan–Lin flavored): a node with strictly more undirected edges into
// a neighboring region than into its own moves there, provided the move
// keeps both regions within balance bounds and does not disconnect the
// region it leaves. Growth by attachment can misplace a handful of nodes
// when seeds land off-center; a few sweeps snap the regions onto the
// graph's community structure.
func (p *partitioner) refinePartition(part, sizes []int, k int) {
	// Balance bounds around the ideal region size.
	ideal := p.n / k
	maxSize := ideal + ideal/2 + 1
	minSize := ideal / 2
	if minSize < 1 {
		minSize = 1
	}
	counts := make([]int, k)
	for sweep := 0; sweep < 8; sweep++ {
		moved := false
		for v := 0; v < p.n; v++ {
			a := part[v]
			if sizes[a] <= minSize {
				continue
			}
			for i := range counts {
				counts[i] = 0
			}
			for _, w := range p.neighbors(v) {
				counts[part[w]]++
			}
			b, best := a, counts[a]
			for r := 0; r < k; r++ {
				if r != a && counts[r] > best && sizes[r] < maxSize {
					b, best = r, counts[r]
				}
			}
			if b == a || !p.removableFrom(part, v, a) {
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

// removableFrom reports whether region r stays connected (in the undirected
// sense) after node v leaves it.
func (p *partitioner) removableFrom(part []int, v, r int) bool {
	start := -1
	members := 0
	for u := 0; u < p.n; u++ {
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
	stamp := p.search()
	p.seen[start] = stamp
	queue := append(p.queue[:0], int32(start))
	for i := 0; i < len(queue); i++ {
		for _, w := range p.neighbors(int(queue[i])) {
			if int(w) != v && part[w] == r && p.seen[w] != stamp {
				p.seen[w] = stamp
				queue = append(queue, w)
			}
		}
	}
	p.queue = queue
	return len(queue) == members
}

// farthestPointSeeds picks k well-separated seed nodes: the first is node 0;
// each next seed is the node maximizing undirected hop distance to the seeds
// chosen so far (lowest index on ties), the classic farthest-point
// clustering heuristic.
func (p *partitioner) farthestPointSeeds(k int) []int {
	const unreached = int(^uint(0) >> 1) // max int
	dist := p.dist
	for i := range dist {
		dist[i] = unreached
	}
	seeds := make([]int, 0, k)
	next := 0
	for len(seeds) < k {
		seeds = append(seeds, next)
		// Relax distances from the new seed (undirected BFS).
		dist[next] = 0
		queue := append(p.queue[:0], int32(next))
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, v := range p.neighbors(int(u)) {
				if dist[u]+1 < dist[v] {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		p.queue = queue
		// The next seed is the node farthest from every seed so far,
		// preferring never-reached nodes (isolated components).
		next = -1
		best := -1
		for v := 0; v < p.n; v++ {
			if dist[v] > best {
				best = dist[v]
				next = v
			}
		}
		if next == -1 || best == 0 {
			break // every node is already a seed's immediate vicinity
		}
	}
	return seeds
}
