package model

import "fmt"

// MinResidualFraction is the floor applied when materializing a residual
// view: a fully saturated node or link keeps this fraction of its nominal
// capacity so the materialized Network stays structurally valid (NewNetwork
// requires positive power and bandwidth). The resulting compute and transfer
// times are ~10^9 times their nominal values, so solvers avoid saturated
// resources whenever any alternative exists, and admission control rejects
// mappings that would overcommit them regardless.
const MinResidualFraction = 1e-9

// Reservation is the fractional capacity a deployment holds, and the path
// it holds it on. Under the cost model (Eq. 1–2) a mapping loads only the
// nodes its module groups run on and the links between consecutive groups,
// so a reservation holds one share per such node and link — O(path), not
// O(network) — each the fraction of that element's nominal capacity
// consumed, in [0, 1]. Beside the shares it records the mapping's path, so
// ScorePath can score the mapping without rebuilding its groups or looking
// up a link. The zero Reservation holds nothing and records no path.
// MappingReservation builds reservations; ResidualNetwork reads them, and
// Touches and Path read the path.
type Reservation struct {
	nodes, links []share
	// path is the mapping's module groups in order; nil for the zero
	// Reservation and for a merged one.
	path []step
}

// share is the fraction of one node's power or one link's bandwidth a
// reservation holds.
type share struct {
	id   int
	frac float64
}

// step is one module group of a recorded path: modules [first, last] run
// on node, and unless the group is the last, the group's output crosses
// link to the next group's node (link is -1 after the last group). nodeAt
// and linkAt number the path's distinct nodes and links in first-visit
// order; they index the reservation's node and link shares, which list the
// same elements in the same order whenever the reservation holds any.
type step struct {
	node           int
	first, last    int
	link           int
	nodeAt, linkAt int
}

// shareOf returns the index of id's share in shares, appending a zero share
// when shares does not hold id yet. A path holds a handful of elements, so
// the scan is cheaper than any index.
func shareOf(shares []share, id int) ([]share, int) {
	for i, s := range shares {
		if s.id == id {
			return shares, i
		}
	}
	return append(shares, share{id: id}), len(shares)
}

// MappingReservation computes the reservation a mapping imposes on net when
// its pipeline streams at rateFPS frames per second: each held resource's
// busy time per frame (at nominal capacity) times the frame arrival rate,
// and the mapping's path. Mappings that reuse a node or link accumulate the
// utilization of every visit, module by module in visit order. A
// non-positive rate holds no share but still records the path, so a
// deployment that reserves nothing is scored on the path it runs. A mapping
// whose consecutive groups have no link between them is refused.
func MappingReservation(net *Network, pl *Pipeline, m *Mapping, rateFPS float64) (Reservation, error) {
	framesPerMs := rateFPS / 1000.0
	groups := m.Groups()
	// A path holds at most one node per group and one link between groups.
	res := Reservation{
		nodes: make([]share, 0, len(groups)),
		links: make([]share, 0, max(len(groups)-1, 0)),
		path:  make([]step, len(groups)),
	}
	for gi, g := range groups {
		s := &res.path[gi]
		*s = step{node: int(g.Node), first: g.First, last: g.Last, link: -1}
		power := net.Power(g.Node)
		res.nodes, s.nodeAt = shareOf(res.nodes, s.node)
		for j := g.First; j <= g.Last; j++ {
			res.nodes[s.nodeAt].frac += pl.ComputeTime(j, power) * framesPerMs
		}
		if gi+1 < len(groups) {
			link, ok := net.LinkBetween(g.Node, groups[gi+1].Node)
			if !ok {
				return Reservation{}, fmt.Errorf("model: reservation: no link %d->%d", g.Node, groups[gi+1].Node)
			}
			s.link = link.ID
			res.links, s.linkAt = shareOf(res.links, link.ID)
			res.links[s.linkAt].frac += link.TransferTime(pl.OutBytes(g.Last), false) * framesPerMs
		}
	}
	if rateFPS <= 0 {
		res.nodes, res.links = nil, nil
	}
	return res, nil
}

// Path returns the reservation of res's recorded path alone: it holds no
// share, so ScorePath of it scores the mapping on the view as it stands,
// with nothing set aside.
func (res Reservation) Path() Reservation {
	return Reservation{path: res.path}
}

// Touches reports whether the path res records runs a module on any of
// nodes or crosses any of links — a zero-cost module's node included, and
// whether or not res holds shares. A reservation without a path touches
// nothing.
func (res Reservation) Touches(nodes map[NodeID]bool, links map[int]bool) bool {
	for _, s := range res.path {
		if nodes[NodeID(s.node)] || (s.link >= 0 && links[s.link]) {
			return true
		}
	}
	return false
}

// MergeReservations returns one reservation holding, on every element any
// of rs holds, the sum of their fractions accumulated in slice order — bit
// for bit the load SetLoad(rs) puts there. The sharded fleet merges its
// cross-region reservations into the overlay every shard adds on top of its
// own load. The merged reservation records no path: it is load, not a
// deployment, and is never scored.
func MergeReservations(rs []Reservation) Reservation {
	var out Reservation
	nodeAt, linkAt := make(map[int]int), make(map[int]int)
	for _, res := range rs {
		out.nodes = mergeShares(out.nodes, nodeAt, res.nodes)
		out.links = mergeShares(out.links, linkAt, res.links)
	}
	return out
}

// mergeShares adds src into dst, where at indexes dst's shares by element.
func mergeShares(dst []share, at map[int]int, src []share) []share {
	for _, s := range src {
		i, ok := at[s.id]
		if !ok {
			i = len(dst)
			at[s.id] = i
			dst = append(dst, share{id: s.id})
		}
		dst[i].frac += s.frac
	}
	return dst
}

// ResidualNetwork is a capacity view of a base Network shared by many
// pipeline deployments: it tracks the outstanding fractional load on every
// node and link and materializes scaled Network snapshots whose node powers
// and link bandwidths are the unreserved remainder. The paper's solvers run
// unchanged against a snapshot, which is what turns the single-pipeline
// algorithms into multi-tenant placement.
//
// Besides load, the view carries per-element capacity factors mutated by
// churn events (ApplyChurn): a node's effective capacity is its nominal
// power times the factor (1 nominal, 0 down), and loads are always
// fractions of *nominal* capacity, so a factor drop can leave an element
// over capacity until its reservations are repaired.
//
// ResidualNetwork performs no synchronization; callers that share one across
// goroutines must serialize access to each element. SetRegionLoad writes,
// and RegionSnapshot, Fits of a regional reservation and ScorePath of a
// regional path read, only one region's nodes and internal links, so a
// sharded fleet (internal/fleet.ShardedFleet) lets each region work on its
// own elements of one shared view under its own lock.
type ResidualNetwork struct {
	base     *Network
	nodeLoad []float64
	linkLoad []float64
	// nodeCap and linkCap are the churn capacity factors in [0, 1]
	// (1 = nominal); see ApplyChurn in churn.go.
	nodeCap []float64
	linkCap []float64
}

// NewResidualNetwork builds an unloaded residual view of base at full
// nominal capacity.
func NewResidualNetwork(base *Network) *ResidualNetwork {
	r := &ResidualNetwork{
		base:     base,
		nodeLoad: make([]float64, base.N()),
		linkLoad: make([]float64, base.M()),
		nodeCap:  make([]float64, base.N()),
		linkCap:  make([]float64, base.M()),
	}
	for i := range r.nodeCap {
		r.nodeCap[i] = 1
	}
	for i := range r.linkCap {
		r.linkCap[i] = 1
	}
	return r
}

// Base returns the underlying full-capacity network.
func (r *ResidualNetwork) Base() *Network { return r.base }

// SetLoad replaces the outstanding load of every node and link with the
// exact sum of the given reservations, accumulated in slice order.
// Recomputing from the outstanding set — rather than incrementally adding
// and subtracting — makes Release exact: the empty set restores every load
// to precisely zero, with no floating-point residue. Each element sums only
// the shares held on it.
func (r *ResidualNetwork) SetLoad(outstanding []Reservation) {
	clear(r.nodeLoad)
	clear(r.linkLoad)
	for _, res := range outstanding {
		r.AddLoad(res)
	}
}

// SetRegionLoad is SetLoad confined to region v: it zeroes v's nodes and
// internal links, then adds every outstanding share that falls on them, in
// slice order, and leaves every other element untouched. Each of v's
// elements ends up bit for bit where SetLoad(outstanding) would put it,
// whatever the reservations hold elsewhere. A nil v is SetLoad.
func (r *ResidualNetwork) SetRegionLoad(v *RegionView, outstanding []Reservation) {
	if v == nil {
		r.SetLoad(outstanding)
		return
	}
	for _, g := range v.Nodes {
		r.nodeLoad[g] = 0
	}
	for _, id := range v.Links {
		r.linkLoad[id] = 0
	}
	for _, res := range outstanding {
		for _, s := range res.nodes {
			if v.part.PartOf[s.id] == v.Region {
				r.nodeLoad[s.id] += s.frac
			}
		}
		for _, s := range res.links {
			if v.part.LinkOwner[s.id] == v.Region {
				r.linkLoad[s.id] += s.frac
			}
		}
	}
}

// AddLoad adds res on top of the current outstanding load; SetLoad is one
// AddLoad per reservation, so a recompute that replays the same additions in
// the same order sums bit for bit alike. res must have been built against
// this view's base network.
func (r *ResidualNetwork) AddLoad(res Reservation) {
	for _, s := range res.nodes {
		r.nodeLoad[s.id] += s.frac
	}
	for _, s := range res.links {
		r.linkLoad[s.id] += s.frac
	}
}

// CapacityFactors returns copies of the churn capacity factors per node and
// per link (1 = nominal, 0 = down; indices match the base network).
func (r *ResidualNetwork) CapacityFactors() (node, link []float64) {
	return append([]float64(nil), r.nodeCap...), append([]float64(nil), r.linkCap...)
}

// SetCapacityFactors replaces the churn capacity factors wholesale. Factors
// must be in [0, 1] and shaped like the base network; loads are untouched.
// It does not commit churn — ApplyChurn does; snapshot restore uses it to
// put back the factors a snapshot recorded.
func (r *ResidualNetwork) SetCapacityFactors(node, link []float64) error {
	if len(node) != r.base.N() || len(link) != r.base.M() {
		return fmt.Errorf("model: capacity factors shape (%d nodes, %d links) does not match network (%d, %d)",
			len(node), len(link), r.base.N(), r.base.M())
	}
	for i, f := range node {
		if f < 0 || f > 1 {
			return fmt.Errorf("model: node %d capacity factor %v outside [0,1]", i, f)
		}
	}
	for i, f := range link {
		if f < 0 || f > 1 {
			return fmt.Errorf("model: link %d capacity factor %v outside [0,1]", i, f)
		}
	}
	copy(r.nodeCap, node)
	copy(r.linkCap, link)
	return nil
}

// Fits reports whether adding res keeps every node and link res holds at or
// below its current capacity factor (load + share <= factor; the factor is
// 1 unless churn reduced it). Elements res does not hold are not checked:
// one that churn left over capacity blocks only the reservations that
// would add to it, not every admission or migration in the view.
func (r *ResidualNetwork) Fits(res Reservation) bool {
	for _, s := range res.nodes {
		if r.nodeLoad[s.id]+s.frac > r.nodeCap[s.id] {
			return false
		}
	}
	for _, s := range res.links {
		if r.linkLoad[s.id]+s.frac > r.linkCap[s.id] {
			return false
		}
	}
	return true
}

// Loads returns copies of the outstanding load fraction per node and per
// link (indices match the base network).
func (r *ResidualNetwork) Loads() (node, link []float64) {
	return append([]float64(nil), r.nodeLoad...), append([]float64(nil), r.linkLoad...)
}

// NodeLoad returns the outstanding load fraction on node v.
func (r *ResidualNetwork) NodeLoad(v NodeID) float64 { return r.nodeLoad[v] }

// LinkLoad returns the outstanding load fraction on link id.
func (r *ResidualNetwork) LinkLoad(id int) float64 { return r.linkLoad[id] }

// residualFraction clamps the unreserved remainder of the effective
// capacity (factor minus load, both fractions of nominal) into
// [MinResidualFraction, 1].
func residualFraction(capFactor, load float64) float64 {
	f := capFactor - load
	if f < MinResidualFraction {
		return MinResidualFraction
	}
	if f > 1 {
		return 1
	}
	return f
}

// nodePower is node v's materialized power: its base power scaled by the
// unreserved remainder of its effective capacity once `excluded` of its load
// is set aside (0 for the view as it stands). nodePower and linkBandwidth are
// the one per-element expression every snapshot and path score reads, so a
// path score agrees with a full materialization bit for bit.
func (r *ResidualNetwork) nodePower(v int, excluded float64) float64 {
	return r.base.Nodes[v].Power * residualFraction(r.nodeCap[v], r.nodeLoad[v]-excluded)
}

// linkBandwidth is link id's materialized bandwidth with `excluded` of its
// load set aside; see nodePower.
func (r *ResidualNetwork) linkBandwidth(id int, excluded float64) float64 {
	return r.base.Links[id].BWMbps * residualFraction(r.linkCap[id], r.linkLoad[id]-excluded)
}

// Snapshot materializes the residual view as a standalone Network: node v's
// power and link l's bandwidth are the base values scaled by the unreserved
// remainder of the effective capacity (floored at MinResidualFraction, so a
// down node stays structurally present but priced out of every solve).
// Minimum link delays are propagation latency and do not scale with load.
// The snapshot shares no state with the residual view; solvers may use it
// freely while the view keeps changing.
func (r *ResidualNetwork) Snapshot() *Network {
	return r.SnapshotInto(nil)
}

// SnapshotInto is Snapshot materializing into buf's backing arrays when buf
// is a previous snapshot of this view (same shape and topology), avoiding
// the per-solve slice allocations on hot repair paths. The caller owns the
// buffer and must not pass one a retained solver state still references —
// internal/core.WarmState double-buffers its snapshots for exactly this.
// A nil or mismatched buf falls back to a fresh Snapshot.
func (r *ResidualNetwork) SnapshotInto(buf *Network) *Network {
	if buf == nil || len(buf.Nodes) != len(r.base.Nodes) ||
		len(buf.Links) != len(r.base.Links) || buf.topo != r.base.topo {
		// The base was validated and scaling preserves positivity and
		// endpoints, so the base topology index describes the snapshot
		// exactly; reusing it skips the O(links) graph rebuild that used
		// to dominate repair time.
		buf = sharedTopoNetwork(make([]Node, len(r.base.Nodes)), make([]Link, len(r.base.Links)), r.base.topo)
	}
	copy(buf.Nodes, r.base.Nodes)
	for i := range buf.Nodes {
		buf.Nodes[i].Power = r.nodePower(i, 0)
	}
	copy(buf.Links, r.base.Links)
	for i := range buf.Links {
		buf.Links[i].BWMbps = r.linkBandwidth(i, 0)
	}
	return buf
}

// pathScratch is how many per-element busy times ScorePath keeps on the
// stack: a path of up to pathScratch/2 module groups scores without
// allocating.
const pathScratch = 64

// ScorePath evaluates the mapping res records, of pipeline pl, as the holder
// of res sees the network — the residual view with res's own shares set
// aside — and returns its Eq. 1 delay (TotalDelay under opt) and its shared
// Eq. 2 bottleneck (SharedBottleneck). It walks the recorded path once,
// reading each element straight off the view through the expressions a
// snapshot materializes (nodePower, linkBandwidth) with the element's share
// excluded, and adds compute and transfer times in the order TotalDelay and
// SharedBottleneck add them: module by module, each element's busy time
// summed over its own visits. So the scores equal, bit for bit, the scores
// on a full materialization with res subtracted from every load. It takes
// no snapshot and allocates nothing unless the path has more than
// pathScratch/2 groups. pl must be the pipeline res was built for; a
// reservation that records no path scores (0, 0). The caller must serialize
// access to r.
func (r *ResidualNetwork) ScorePath(pl *Pipeline, res Reservation, opt CostOptions) (delayMs, bottleneckMs float64) {
	// Node busy times fill busy[:n] and link busy times busy[n:]: a path of
	// n groups visits at most n distinct nodes and n-1 distinct links.
	n := len(res.path)
	var buf [pathScratch]float64
	busy := buf[:]
	if 2*n > len(busy) {
		busy = make([]float64, 2*n)
	}
	for _, s := range res.path {
		excluded := 0.0
		if s.nodeAt < len(res.nodes) {
			excluded = res.nodes[s.nodeAt].frac
		}
		power := r.nodePower(s.node, excluded)
		for j := s.first; j <= s.last; j++ {
			t := pl.ComputeTime(j, power)
			delayMs += t
			busy[s.nodeAt] += t
		}
		if s.link < 0 {
			continue
		}
		excluded = 0
		if s.linkAt < len(res.links) {
			excluded = res.links[s.linkAt].frac
		}
		link := r.base.Links[s.link]
		link.BWMbps = r.linkBandwidth(s.link, excluded)
		// Eq. 2 occupies the link for the bandwidth term alone; Eq. 1
		// adds the MLD to it as TransferTime(bytes, true) does.
		t := link.TransferTime(pl.OutBytes(s.last), false)
		busy[n+s.linkAt] += t
		if opt.IncludeMLDInDelay {
			t += link.MLDms
		}
		delayMs += t
	}
	for _, t := range busy[:max(2*n-1, 0)] {
		if t > bottleneckMs {
			bottleneckMs = t
		}
	}
	return delayMs, bottleneckMs
}
