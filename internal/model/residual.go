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

// Reservation is the fractional capacity a deployment holds. Under the cost
// model (Eq. 1–2) a mapping loads only the nodes its module groups run on
// and the links between consecutive groups, so a reservation holds one
// share per such node and link — O(path), not O(network) — each the
// fraction of that element's nominal capacity consumed, in [0, 1]. The zero
// Reservation holds nothing. MappingReservation builds reservations;
// ResidualNetwork reads them.
type Reservation struct {
	nodes, links []share
}

// share is the fraction of one node's power or one link's bandwidth a
// reservation holds.
type share struct {
	id   int
	frac float64
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
// busy time per frame (at nominal capacity) times the frame arrival rate. A
// non-positive rate yields the zero Reservation. Mappings that reuse a node
// or link accumulate the utilization of every visit, module by module in
// visit order.
func MappingReservation(net *Network, pl *Pipeline, m *Mapping, rateFPS float64) (Reservation, error) {
	if rateFPS <= 0 {
		return Reservation{}, nil
	}
	framesPerMs := rateFPS / 1000.0
	groups := m.Groups()
	// A path holds at most one node per group and one link between groups.
	res := Reservation{
		nodes: make([]share, 0, len(groups)),
		links: make([]share, 0, max(len(groups)-1, 0)),
	}
	for gi, g := range groups {
		power := net.Power(g.Node)
		var i int
		res.nodes, i = shareOf(res.nodes, int(g.Node))
		for j := g.First; j <= g.Last; j++ {
			res.nodes[i].frac += pl.ComputeTime(j, power) * framesPerMs
		}
		if gi+1 < len(groups) {
			link, ok := net.LinkBetween(g.Node, groups[gi+1].Node)
			if !ok {
				return Reservation{}, fmt.Errorf("model: reservation: no link %d->%d", g.Node, groups[gi+1].Node)
			}
			res.links, i = shareOf(res.links, link.ID)
			res.links[i].frac += link.TransferTime(pl.OutBytes(g.Last), false) * framesPerMs
		}
	}
	return res, nil
}

// MergeReservations returns one reservation holding, on every element any
// of rs holds, the sum of their fractions accumulated in slice order — bit
// for bit the load SetLoad(rs) puts there. The sharded fleet merges its
// cross-region reservations into the overlay every shard adds on top of its
// own load.
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
// and RegionSnapshot and Fits of a regional reservation read, only one
// region's nodes and internal links, so a sharded fleet
// (internal/fleet.ShardedFleet) lets each region work on its own elements
// of one shared view under its own lock.
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

// ScorePath evaluates mapping m of pipeline pl as the holder of exclude sees
// the network — the residual view with exclude's load set aside — and
// returns its Eq. 1 delay (TotalDelay under opt) and its shared Eq. 2
// bottleneck (SharedBottleneck). snap must be a snapshot of r (Snapshot or
// SnapshotInto) taken since r last changed. ScorePath rewrites in snap only
// the elements exclude holds — every other element already has its value
// with nothing excluded — scores m on snap, and writes those elements back.
// So the scores equal, bit for bit, the scores on a full materialization
// with exclude subtracted from every load, and on return snap equals
// Snapshot() again. For a deployment's own reservation the cost is O(path);
// nothing is allocated in proportion to the network. The caller must
// serialize use of snap.
func (r *ResidualNetwork) ScorePath(snap *Network, pl *Pipeline, m *Mapping, opt CostOptions, exclude Reservation) (delayMs, bottleneckMs float64, err error) {
	if snap == r.base || len(snap.Nodes) != len(r.base.Nodes) ||
		len(snap.Links) != len(r.base.Links) || snap.topo != r.base.topo {
		return 0, 0, fmt.Errorf("model: path score: network is not a snapshot of this residual view")
	}
	r.setShares(snap, exclude, 1)
	delayMs = TotalDelay(snap, pl, m, opt)
	bottleneckMs = SharedBottleneck(snap, pl, m)
	r.setShares(snap, exclude, 0)
	return delayMs, bottleneckMs, nil
}

// setShares writes into snap the materialized value of every element res
// holds with scale times res's share of its load set aside: scale 1
// excludes res, scale 0 restores the snapshot's own value (shares are
// finite and non-negative, so both products are exact).
func (r *ResidualNetwork) setShares(snap *Network, res Reservation, scale float64) {
	for _, s := range res.nodes {
		snap.Nodes[s.id].Power = r.nodePower(s.id, scale*s.frac)
	}
	for _, s := range res.links {
		snap.Links[s.id].BWMbps = r.linkBandwidth(s.id, scale*s.frac)
	}
}
