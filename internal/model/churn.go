package model

import (
	"errors"
	"fmt"
)

// ErrUnknownTarget is returned (wrapped) when a churn event names a node or
// link that does not exist in the network.
var ErrUnknownTarget = errors.New("unknown churn target")

// ErrChurnConflict is returned (wrapped) when a churn event contradicts the
// current capacity state: NodeDown on a node that is already down, NodeUp on
// a node that is up, or CapacityDrift on a down node. Conflicts abort the
// whole batch (ApplyChurn is transactional), so a duplicate failure report
// can never double-apply.
var ErrChurnConflict = errors.New("conflicting churn event")

// ChurnKind names one kind of network mutation. The string values are the
// wire form used by the elpcd /v1/events endpoint.
type ChurnKind string

const (
	// NodeDown fails a node: its capacity factor drops to zero, so no
	// reservation fits on it and residual snapshots price it out of every
	// solve.
	NodeDown ChurnKind = "node_down"
	// NodeUp restores a failed node to full nominal capacity.
	NodeUp ChurnKind = "node_up"
	// LinkDegrade reduces a link to Factor of its nominal bandwidth
	// (0 < Factor < 1). Degrading an already degraded link re-sets the
	// factor; it does not compound.
	LinkDegrade ChurnKind = "link_degrade"
	// LinkRestore returns a link to full nominal bandwidth. Restoring an
	// undegraded link is a no-op, so restores are idempotent.
	LinkRestore ChurnKind = "link_restore"
	// CapacityDrift multiplies a node's or link's capacity factor by Factor
	// (> 0), modeling gradual capacity change; the result is clamped to at
	// most 1 (nominal). Drift on a down node conflicts — a failed node has
	// no capacity to drift.
	CapacityDrift ChurnKind = "capacity_drift"
)

// Valid reports whether k names a known churn kind.
func (k ChurnKind) Valid() bool {
	switch k {
	case NodeDown, NodeUp, LinkDegrade, LinkRestore, CapacityDrift:
		return true
	}
	return false
}

// ChurnTarget selects what a CapacityDrift event applies to.
type ChurnTarget string

const (
	// TargetNode drifts a node's processing power.
	TargetNode ChurnTarget = "node"
	// TargetLink drifts a link's bandwidth.
	TargetLink ChurnTarget = "link"
)

// ChurnEvent is one network mutation. Node events (NodeDown, NodeUp) read
// Node; link events (LinkDegrade, LinkRestore) read Link; CapacityDrift
// reads Target to decide which of the two it addresses (empty defaults to
// TargetNode). Factor is required by LinkDegrade (absolute fraction of
// nominal, in (0,1)) and CapacityDrift (multiplicative, > 0).
type ChurnEvent struct {
	Kind   ChurnKind   `json:"kind"`
	Target ChurnTarget `json:"target,omitempty"`
	Node   NodeID      `json:"node,omitempty"`
	Link   int         `json:"link,omitempty"`
	Factor float64     `json:"factor,omitempty"`
}

// String renders the event compactly for logs: "node_down v3",
// "link_degrade l17 x0.40".
func (e ChurnEvent) String() string {
	switch e.Kind {
	case NodeDown, NodeUp:
		return fmt.Sprintf("%s v%d", e.Kind, e.Node)
	case LinkDegrade:
		return fmt.Sprintf("%s l%d x%.2f", e.Kind, e.Link, e.Factor)
	case LinkRestore:
		return fmt.Sprintf("%s l%d", e.Kind, e.Link)
	case CapacityDrift:
		if e.OnLink() {
			return fmt.Sprintf("%s l%d x%.2f", e.Kind, e.Link, e.Factor)
		}
		return fmt.Sprintf("%s v%d x%.2f", e.Kind, e.Node, e.Factor)
	}
	return string(e.Kind)
}

// OnLink reports whether the event addresses a link (rather than a node).
func (e ChurnEvent) OnLink() bool {
	switch e.Kind {
	case LinkDegrade, LinkRestore:
		return true
	case CapacityDrift:
		return e.Target == TargetLink
	}
	return false
}

// applyChurnEvent validates ev against the scratch capacity factors and
// applies it to them. nodeCap and linkCap are the transaction's working
// copies; the caller commits them only when every event applies cleanly.
func applyChurnEvent(ev ChurnEvent, nodeCap, linkCap []float64) error {
	checkNode := func() error {
		if int(ev.Node) < 0 || int(ev.Node) >= len(nodeCap) {
			return fmt.Errorf("model: %w: node %d (network has %d nodes)", ErrUnknownTarget, ev.Node, len(nodeCap))
		}
		return nil
	}
	checkLink := func() error {
		if ev.Link < 0 || ev.Link >= len(linkCap) {
			return fmt.Errorf("model: %w: link %d (network has %d links)", ErrUnknownTarget, ev.Link, len(linkCap))
		}
		return nil
	}
	switch ev.Kind {
	case NodeDown:
		if err := checkNode(); err != nil {
			return err
		}
		if nodeCap[ev.Node] == 0 {
			return fmt.Errorf("model: %w: node %d is already down", ErrChurnConflict, ev.Node)
		}
		nodeCap[ev.Node] = 0
	case NodeUp:
		if err := checkNode(); err != nil {
			return err
		}
		if nodeCap[ev.Node] > 0 {
			return fmt.Errorf("model: %w: node %d is not down", ErrChurnConflict, ev.Node)
		}
		nodeCap[ev.Node] = 1
	case LinkDegrade:
		if err := checkLink(); err != nil {
			return err
		}
		if ev.Factor <= 0 || ev.Factor >= 1 {
			return fmt.Errorf("model: link_degrade factor must be in (0,1), got %v", ev.Factor)
		}
		linkCap[ev.Link] = ev.Factor
	case LinkRestore:
		if err := checkLink(); err != nil {
			return err
		}
		linkCap[ev.Link] = 1
	case CapacityDrift:
		if ev.Factor <= 0 {
			return fmt.Errorf("model: capacity_drift factor must be positive, got %v", ev.Factor)
		}
		if ev.OnLink() {
			if err := checkLink(); err != nil {
				return err
			}
			linkCap[ev.Link] = clampCap(linkCap[ev.Link] * ev.Factor)
		} else {
			if ev.Target != "" && ev.Target != TargetNode {
				return fmt.Errorf("model: capacity_drift target must be %q or %q, got %q", TargetNode, TargetLink, ev.Target)
			}
			if err := checkNode(); err != nil {
				return err
			}
			if nodeCap[ev.Node] == 0 {
				return fmt.Errorf("model: %w: node %d is down, cannot drift", ErrChurnConflict, ev.Node)
			}
			nodeCap[ev.Node] = clampCap(nodeCap[ev.Node] * ev.Factor)
		}
	default:
		return fmt.Errorf("model: unknown churn kind %q", ev.Kind)
	}
	return nil
}

// clampCap bounds a drifted capacity factor to at most nominal.
func clampCap(f float64) float64 {
	if f > 1 {
		return 1
	}
	return f
}

// ApplyChurn applies the events to the residual view's capacity factors in
// order, transactionally: either every event applies and the new factors
// commit at once, or the first invalid event in batch order (unknown
// target, conflicting state, bad factor) aborts the whole batch and the
// view is left exactly as it was; the error names that event by its index
// in events. Outstanding loads are untouched — churn changes what the
// network can carry, not what tenants have reserved — so after a
// capacity-reducing batch, Fits may report elements over capacity until the
// caller repairs or evicts the touching reservations.
func (r *ResidualNetwork) ApplyChurn(events []ChurnEvent) error {
	nodeCap := append([]float64(nil), r.nodeCap...)
	linkCap := append([]float64(nil), r.linkCap...)
	for i, ev := range events {
		if err := applyChurnEvent(ev, nodeCap, linkCap); err != nil {
			return fmt.Errorf("event %d (%s): %w", i, ev, err)
		}
	}
	copy(r.nodeCap, nodeCap)
	copy(r.linkCap, linkCap)
	return nil
}

// NodeCapacity returns node v's capacity factor: 1 nominal, 0 down,
// in between for drifted nodes.
func (r *ResidualNetwork) NodeCapacity(v NodeID) float64 { return r.nodeCap[v] }

// LinkCapacity returns link id's capacity factor.
func (r *ResidualNetwork) LinkCapacity(id int) float64 { return r.linkCap[id] }

// NodeIsDown reports whether node v is failed (capacity factor zero).
func (r *ResidualNetwork) NodeIsDown(v NodeID) bool { return r.nodeCap[v] == 0 }
