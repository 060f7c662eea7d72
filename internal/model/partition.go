package model

import (
	"fmt"

	"elpc/internal/graph"
)

// This file defines the region partition of a Network that the sharded
// fleet manager (internal/fleet.ShardedFleet) is built on: nodes are split
// into K connected regions, every link is either internal to exactly one
// region or a member of the explicit cross-region boundary set, and the
// partition can materialize a standalone sub-network per region that the
// paper's solvers run against unchanged.

// Partition is a K-way region partition of a network's nodes and links.
// Build one (or rebuild a decoded one) with PartitionNetwork or
// NewPartitionFromAssignment; no other value is usable.
type Partition struct {
	// K is the number of regions (>= 1).
	K int `json:"k"`
	// PartOf maps every node to its region index in [0, K).
	PartOf []int `json:"part_of"`
	// Regions lists each region's nodes in ascending node-ID order.
	Regions [][]NodeID `json:"regions"`
	// LinkOwner maps every link to the region containing both its
	// endpoints, or BoundaryOwner when the endpoints lie in different
	// regions (a boundary link).
	LinkOwner []int `json:"link_owner"`
	// Boundary lists the cross-region link IDs in ascending order. Boundary
	// links belong to no region; only the sharded coordinator path reserves
	// capacity on them.
	Boundary []int `json:"boundary"`

	// local maps every node to its index in its region's Regions list, the
	// local ID RegionView.Local returns.
	local []int
}

// BoundaryOwner is the LinkOwner value of boundary (cross-region) links.
const BoundaryOwner = -1

// PartitionNetwork splits net into k regions using the deterministic
// balanced graph partitioner (graph.PartitionK: farthest-point seeds →
// lockstep attachment-strength growth → Lloyd reseeding on region medoids
// → boundary refinement) and derives the link ownership and boundary sets.
// It requires 1 <= k <= net.N().
//
// A sharded fleet pays for it on every install and every durable restart:
// O(N+M) memory, and time mostly in up to four medoid rounds, each running
// one BFS inside its region from every node (~12 ms at k = 8 on the
// 8-cluster n504/l4896 network on a 2-vCPU VM, BenchmarkPartitionNetwork).
func PartitionNetwork(net *Network, k int) (*Partition, error) {
	if net == nil {
		return nil, fmt.Errorf("model: partition of nil network")
	}
	if k < 1 || k > net.N() {
		return nil, fmt.Errorf("model: partition needs 1 <= k <= %d nodes, got k=%d", net.N(), k)
	}
	return NewPartitionFromAssignment(net, k, net.Topology().PartitionK(k))
}

// NewPartitionFromAssignment builds the Partition for a caller-supplied
// per-node region assignment (every partOf value in [0, k)): region
// listings in ascending node order, link ownership and the boundary set
// derived from the endpoints' regions. PartitionNetwork layers the graph
// partitioner on top; generators with known layouts (gen.ClusterSpec) call
// it directly.
func NewPartitionFromAssignment(net *Network, k int, partOf []int) (*Partition, error) {
	if k < 1 {
		return nil, fmt.Errorf("model: partition needs k >= 1, got k=%d", k)
	}
	if len(partOf) != net.N() {
		return nil, fmt.Errorf("model: assignment covers %d nodes, network has %d", len(partOf), net.N())
	}
	p := &Partition{
		K:         k,
		PartOf:    partOf,
		Regions:   make([][]NodeID, k),
		LinkOwner: make([]int, net.M()),
		local:     make([]int, net.N()),
	}
	for v, r := range partOf {
		if r < 0 || r >= k {
			return nil, fmt.Errorf("model: node %d assigned to region %d, want [0,%d)", v, r, k)
		}
		p.local[v] = len(p.Regions[r])
		p.Regions[r] = append(p.Regions[r], NodeID(v))
	}
	for i, l := range net.Links {
		if partOf[l.From] == partOf[l.To] {
			p.LinkOwner[i] = partOf[l.From]
		} else {
			p.LinkOwner[i] = BoundaryOwner
			p.Boundary = append(p.Boundary, i)
		}
	}
	return p, nil
}

// Region returns the region index of node v.
func (p *Partition) Region(v NodeID) int { return p.PartOf[v] }

// SameRegion reports whether u and v lie in the same region.
func (p *Partition) SameRegion(u, v NodeID) bool { return p.PartOf[u] == p.PartOf[v] }

// RegionView is the index translation between a network and one region's
// sub-network: region nodes and internal links are renumbered densely in
// ascending global-ID order. Build one with Partition.View; it holds
// O(region), and Local reads the partition's per-node tables.
type RegionView struct {
	// Region is the region index this view covers.
	Region int
	// Nodes maps local node index -> global NodeID (ascending).
	Nodes []NodeID
	// Links maps local link index -> global link ID (ascending).
	Links []int

	// part is the partition the view was built from.
	part *Partition
	// topo is the region sub-network's topology index, built once in View
	// (local edge i corresponds to Links[i]). Every RegionSnapshot shares
	// it, so regional snapshots carry a stable Topology() pointer — the
	// structural identity warm-start solvers key on — and skip the graph
	// rebuild entirely.
	topo *graph.Graph
}

// View builds the index translation for region r of net.
func (p *Partition) View(net *Network, r int) *RegionView {
	v := &RegionView{Region: r, Nodes: p.Regions[r], part: p}
	for i := range net.Links {
		if p.LinkOwner[i] == r {
			v.Links = append(v.Links, i)
		}
	}
	v.topo = graph.NewFor(len(v.Nodes), len(v.Links), func(i int) (int, int) {
		l := net.Links[v.Links[i]]
		return v.Local(l.From), v.Local(l.To)
	})
	for _, g := range v.Links {
		l := net.Links[g]
		if _, err := v.topo.AddEdge(v.Local(l.From), v.Local(l.To)); err != nil {
			// The link set was validated when net was built and the view
			// renumbers densely; this cannot fail.
			panic(fmt.Sprintf("model: region %d view topology: %v", r, err))
		}
	}
	return v
}

// Local returns node g's local index in the view's region, or -1 when g is
// outside the region or not a node of the network.
func (v *RegionView) Local(g NodeID) int {
	if g < 0 || int(g) >= len(v.part.PartOf) || v.part.PartOf[g] != v.Region {
		return -1
	}
	return v.part.local[g]
}

// RegionSnapshot materializes one region's residual-scaled sub-network
// directly from the view — the hot path of a sharded fleet's regional
// solves. Region nodes and internal links keep their attributes, renumbered
// densely per the view, and each power and bandwidth is the value a full
// Snapshot gives that element, bit for bit (the same nodePower and
// linkBandwidth expressions), so a regional mapping scores the same on
// either. It costs O(region) instead of O(network), which is where
// sharding's per-deploy speedup comes from.
func (r *ResidualNetwork) RegionSnapshot(v *RegionView) *Network {
	nodes := make([]Node, len(v.Nodes))
	for local, g := range v.Nodes {
		nodes[local] = r.base.Nodes[g]
		nodes[local].ID = NodeID(local)
	}
	links := make([]Link, len(v.Links))
	for local, gid := range v.Links {
		l := r.base.Links[gid]
		l.ID, l.From, l.To = local, NodeID(v.Local(l.From)), NodeID(v.Local(l.To))
		links[local] = l
	}
	// The view's cached sub-topology describes exactly these renumbered
	// links; sharing it keeps regional snapshots O(region) with no graph
	// rebuild and gives them a stable Topology() pointer.
	return r.RegionSnapshotInto(v, sharedTopoNetwork(nodes, links, v.topo))
}

// RegionSnapshotInto is RegionSnapshot materializing into buf when buf is a
// previous regional snapshot of the same view (same shape and shared
// sub-topology); a nil or mismatched buf falls back to a fresh
// RegionSnapshot. Same ownership contract as SnapshotInto.
func (r *ResidualNetwork) RegionSnapshotInto(v *RegionView, buf *Network) *Network {
	if buf == nil || len(buf.Nodes) != len(v.Nodes) ||
		len(buf.Links) != len(v.Links) || buf.topo != v.topo {
		return r.RegionSnapshot(v)
	}
	for local, g := range v.Nodes {
		buf.Nodes[local].Power = r.nodePower(int(g), 0)
	}
	for local, gid := range v.Links {
		buf.Links[local].BWMbps = r.linkBandwidth(gid, 0)
	}
	return buf
}

// ToGlobal translates a mapping solved on the region sub-network back to
// global node IDs.
func (v *RegionView) ToGlobal(m *Mapping) *Mapping {
	assign := make([]NodeID, len(m.Assign))
	for j, local := range m.Assign {
		assign[j] = v.Nodes[local]
	}
	return NewMapping(assign)
}
