// Package model defines the domain model of the ELPC reproduction: transport
// networks (nodes with processing power, links with bandwidth and minimum
// link delay), linear computing pipelines (modules with complexity and data
// sizes), pipeline-to-network mappings, and the analytical cost models of
// Section 2 of the paper (total end-to-end delay, Eq. 1, and frame-rate
// bottleneck, Eq. 2).
//
// Units are fixed throughout the repository:
//
//   - time: milliseconds (ms)
//   - data: bytes
//   - node power p: operations per millisecond
//   - module complexity c: operations per input byte
//   - link bandwidth: Mbit/s (converted internally to bytes/ms)
//   - minimum link delay (MLD): milliseconds
//
// so that T_compute = c·m/p ms and T_transport = m/(125·Mbps) + MLD ms.
package model

import (
	"fmt"
	"math"

	"elpc/internal/graph"
)

// NodeID identifies a network node (dense, 0-based).
type NodeID int

// BytesPerMsPerMbps converts link bandwidth from Mbit/s to bytes/ms:
// 1 Mbit/s = 10^6 bits/s = 125000 bytes/s = 125 bytes/ms.
const BytesPerMsPerMbps = 125.0

// Node is a computing node with a normalized processing power, as in the
// paper's cost model (NodeID, NodeIP, ProcessingPower). Power is expressed in
// operations per millisecond.
type Node struct {
	ID    NodeID  `json:"id"`
	Name  string  `json:"name,omitempty"`
	Power float64 `json:"power"`
}

// Link is a directed communication link characterized by bandwidth (BW) and
// minimum link delay (MLD), mirroring the paper's five link parameters
// (startNodeID, endNodeID, LinkID, LinkBWInMbps, LinkDelayInMilliseconds).
type Link struct {
	ID     int     `json:"id"`
	From   NodeID  `json:"from"`
	To     NodeID  `json:"to"`
	BWMbps float64 `json:"bw_mbps"`
	MLDms  float64 `json:"mld_ms"`
}

// BytesPerMs returns the link bandwidth in bytes per millisecond.
func (l Link) BytesPerMs() float64 { return l.BWMbps * BytesPerMsPerMbps }

// TransferTime returns the time in ms to move `bytes` across the link:
// bytes/bandwidth plus, when includeMLD is set, the minimum link delay.
func (l Link) TransferTime(bytes float64, includeMLD bool) float64 {
	t := bytes / l.BytesPerMs()
	if includeMLD {
		t += l.MLDms
	}
	return t
}

// Network is an arbitrary-topology directed transport network. Link i in
// Links corresponds to edge i in the topology graph, so graph algorithms can
// address link attributes by edge ID.
type Network struct {
	Nodes []Node
	Links []Link

	topo *graph.Graph
}

// NewNetwork validates the node and link sets and builds the topology index.
// Nodes must be densely numbered (Nodes[i].ID == i) with finite positive
// power; links must reference valid distinct endpoints, be unique per
// direction, be densely numbered, and have finite positive bandwidth and
// finite non-negative MLD.
func NewNetwork(nodes []Node, links []Link) (*Network, error) {
	for i, n := range nodes {
		if int(n.ID) != i {
			return nil, fmt.Errorf("model: node %d has ID %d; nodes must be densely numbered", i, n.ID)
		}
		if n.Power <= 0 {
			return nil, fmt.Errorf("model: node %d has non-positive power %v", i, n.Power)
		}
		if !finite(n.Power) {
			return nil, fmt.Errorf("model: node %d has non-finite power %v", i, n.Power)
		}
	}
	topo := graph.NewFor(len(nodes), len(links), func(i int) (int, int) {
		return int(links[i].From), int(links[i].To)
	})
	for i, l := range links {
		if l.ID != i {
			return nil, fmt.Errorf("model: link %d has ID %d; links must be densely numbered", i, l.ID)
		}
		if l.BWMbps <= 0 {
			return nil, fmt.Errorf("model: link %d has non-positive bandwidth %v", i, l.BWMbps)
		}
		if !finite(l.BWMbps) {
			return nil, fmt.Errorf("model: link %d has non-finite bandwidth %v", i, l.BWMbps)
		}
		if l.MLDms < 0 {
			return nil, fmt.Errorf("model: link %d has negative MLD %v", i, l.MLDms)
		}
		if !finite(l.MLDms) {
			return nil, fmt.Errorf("model: link %d has non-finite MLD %v", i, l.MLDms)
		}
		if _, err := topo.AddEdge(int(l.From), int(l.To)); err != nil {
			return nil, fmt.Errorf("model: link %d: %w", i, err)
		}
	}
	return &Network{Nodes: nodes, Links: links, topo: topo}, nil
}

// finite reports whether x is neither NaN nor infinite: the comparisons
// that bound a model value are all false for NaN.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// sharedTopoNetwork builds a Network over a pre-validated node/link set,
// reusing an existing topology index instead of rebuilding it edge by edge.
// The caller must guarantee that links[i].From/To match edge i of topo —
// residual snapshots qualify because scaling changes only Power and BWMbps.
// Sharing the index also gives warm-start solvers a free structural identity
// check: two snapshots of the same residual view satisfy
// a.Topology() == b.Topology().
func sharedTopoNetwork(nodes []Node, links []Link, topo *graph.Graph) *Network {
	return &Network{Nodes: nodes, Links: links, topo: topo}
}

// N returns the number of nodes.
func (n *Network) N() int { return len(n.Nodes) }

// M returns the number of directed links.
func (n *Network) M() int { return len(n.Links) }

// Topology returns the underlying directed graph. Edge i corresponds to
// Links[i]. The graph must not be mutated.
func (n *Network) Topology() *graph.Graph { return n.topo }

// Power returns the processing power of node v in ops/ms.
func (n *Network) Power(v NodeID) float64 { return n.Nodes[v].Power }

// LinkBetween returns the link u→v and whether it exists.
func (n *Network) LinkBetween(u, v NodeID) (Link, bool) {
	id, ok := n.topo.EdgeID(int(u), int(v))
	if !ok {
		return Link{}, false
	}
	return n.Links[id], true
}

// ValidNode reports whether v is a node of this network.
func (n *Network) ValidNode(v NodeID) bool { return v >= 0 && int(v) < len(n.Nodes) }

// Clone returns a deep copy of the network (fresh topology index included),
// so callers may mutate attributes (e.g. estimated bandwidths) independently.
func (n *Network) Clone() *Network {
	nodes := append([]Node(nil), n.Nodes...)
	links := append([]Link(nil), n.Links...)
	c, err := NewNetwork(nodes, links)
	if err != nil {
		// The source network was already validated; reconstruction cannot fail.
		panic(fmt.Sprintf("model: Clone: %v", err))
	}
	return c
}
