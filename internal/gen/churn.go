package gen

import (
	"fmt"
	"math/rand/v2"

	"elpc/internal/model"
)

// ChurnEvent is one timed network mutation of a generated churn trace.
type ChurnEvent struct {
	TimeMs float64
	Event  model.ChurnEvent
}

// ChurnSpec shapes a generated churn trace: how many events, how fast they
// arrive, and the mix of failures, degradations, and drift. The generator
// tracks the network state it implies (which nodes are down, which links
// degraded), so every trace replays cleanly — no double-downs, no restores
// of healthy nodes — and deterministically for a given seed.
type ChurnSpec struct {
	// Events is the trace length.
	Events int
	// MeanIntervalMs spaces events exponentially.
	MeanIntervalMs float64
	// NodeShare is the fraction of events that fail/recover nodes,
	// LinkShare the fraction that degrade/restore links; the remainder
	// drifts capacity. Each must be in [0, 1] with NodeShare+LinkShare <= 1.
	NodeShare float64
	LinkShare float64
	// MaxDownFrac caps the fraction of nodes that may be down at once, so
	// a trace can not black out the whole network; at least one node
	// always stays up.
	MaxDownFrac float64
	// DegradeLo..DegradeHi bounds LinkDegrade factors (fractions of
	// nominal bandwidth, in (0,1)).
	DegradeLo, DegradeHi float64
	// DriftLo..DriftHi bounds CapacityDrift factors (multiplicative; < 1
	// shrinks, > 1 grows — growth clamps at nominal).
	DriftLo, DriftHi float64
}

// DefaultChurnSpec returns a trace shape calibrated for Suite20-class
// networks: a 60-event mixed trace with at most a fifth of the nodes down
// at once, moderate degradations, and ±25% drift.
func DefaultChurnSpec() ChurnSpec {
	return ChurnSpec{
		Events:         60,
		MeanIntervalMs: 5000,
		NodeShare:      0.3,
		LinkShare:      0.4,
		MaxDownFrac:    0.2,
		DegradeLo:      0.2,
		DegradeHi:      0.8,
		DriftLo:        0.75,
		DriftHi:        1.25,
	}
}

func (s ChurnSpec) validate() error {
	if s.Events < 1 {
		return fmt.Errorf("gen: churn trace needs >= 1 event, got %d", s.Events)
	}
	if s.MeanIntervalMs <= 0 {
		return fmt.Errorf("gen: churn mean interval must be positive")
	}
	if s.NodeShare < 0 || s.LinkShare < 0 || s.NodeShare+s.LinkShare > 1 {
		return fmt.Errorf("gen: churn shares (%v node, %v link) must be non-negative and sum to <= 1",
			s.NodeShare, s.LinkShare)
	}
	if s.MaxDownFrac < 0 || s.MaxDownFrac > 1 {
		return fmt.Errorf("gen: max down fraction %v outside [0,1]", s.MaxDownFrac)
	}
	if s.DegradeLo <= 0 || s.DegradeHi >= 1 || s.DegradeLo > s.DegradeHi {
		return fmt.Errorf("gen: degrade factors [%v,%v] must satisfy 0 < lo <= hi < 1", s.DegradeLo, s.DegradeHi)
	}
	if s.DriftLo <= 0 || s.DriftLo > s.DriftHi {
		return fmt.Errorf("gen: drift factors [%v,%v] must satisfy 0 < lo <= hi", s.DriftLo, s.DriftHi)
	}
	return nil
}

// Churn generates a deterministic timed churn trace over net. The trace is
// state-consistent by construction: a node goes down only while up and
// comes up only while down, drift never targets a down node, and the
// number of concurrently down nodes never exceeds spec.MaxDownFrac (and
// never reaches the whole network) — so replaying the trace in order
// through model.ResidualNetwork.ApplyChurn (or churn.Reconciler.Apply)
// applies cleanly end to end.
func Churn(spec ChurnSpec, net *model.Network, rng *rand.Rand) ([]ChurnEvent, error) {
	if net == nil {
		return nil, fmt.Errorf("gen: churn trace needs a network")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}

	maxDown := int(spec.MaxDownFrac * float64(net.N()))
	if maxDown >= net.N() {
		maxDown = net.N() - 1
	}

	down := make(map[model.NodeID]bool)
	degraded := make(map[int]bool)
	// upNodes returns the currently up nodes (deterministic order).
	upNodes := func() []model.NodeID {
		out := make([]model.NodeID, 0, net.N()-len(down))
		for v := 0; v < net.N(); v++ {
			if !down[model.NodeID(v)] {
				out = append(out, model.NodeID(v))
			}
		}
		return out
	}
	downNodes := func() []model.NodeID {
		out := make([]model.NodeID, 0, len(down))
		for v := 0; v < net.N(); v++ {
			if down[model.NodeID(v)] {
				out = append(out, model.NodeID(v))
			}
		}
		return out
	}
	degradedLinks := func() []int {
		out := make([]int, 0, len(degraded))
		for l := 0; l < net.M(); l++ {
			if degraded[l] {
				out = append(out, l)
			}
		}
		return out
	}

	events := make([]ChurnEvent, 0, spec.Events)
	clock := 0.0
	for len(events) < spec.Events {
		clock += rng.ExpFloat64() * spec.MeanIntervalMs
		var ev model.ChurnEvent
		switch c := rng.Float64(); {
		case c < spec.NodeShare:
			// Node failure/recovery: fail while below the cap, recover
			// otherwise (coin-flipped when both are possible).
			canFail := len(down) < maxDown
			canRecover := len(down) > 0
			switch {
			case canFail && (!canRecover || rng.Float64() < 0.5):
				up := upNodes()
				ev = model.ChurnEvent{Kind: model.NodeDown, Node: up[rng.IntN(len(up))]}
				down[ev.Node] = true
			case canRecover:
				dn := downNodes()
				ev = model.ChurnEvent{Kind: model.NodeUp, Node: dn[rng.IntN(len(dn))]}
				delete(down, ev.Node)
			default:
				// maxDown == 0 and nothing to recover: fall through to a
				// link degrade so the trace still makes progress.
				ev = model.ChurnEvent{
					Kind:   model.LinkDegrade,
					Link:   rng.IntN(net.M()),
					Factor: uniform(rng, spec.DegradeLo, spec.DegradeHi),
				}
				degraded[ev.Link] = true
			}
		case c < spec.NodeShare+spec.LinkShare:
			// Link degrade/restore.
			if dl := degradedLinks(); len(dl) > 0 && rng.Float64() < 0.5 {
				ev = model.ChurnEvent{Kind: model.LinkRestore, Link: dl[rng.IntN(len(dl))]}
				delete(degraded, ev.Link)
			} else {
				ev = model.ChurnEvent{
					Kind:   model.LinkDegrade,
					Link:   rng.IntN(net.M()),
					Factor: uniform(rng, spec.DegradeLo, spec.DegradeHi),
				}
				degraded[ev.Link] = true
			}
		default:
			// Capacity drift on a random up node or any link.
			factor := logUniform(rng, spec.DriftLo, spec.DriftHi)
			if rng.Float64() < 0.5 {
				up := upNodes()
				ev = model.ChurnEvent{
					Kind: model.CapacityDrift, Target: model.TargetNode,
					Node: up[rng.IntN(len(up))], Factor: factor,
				}
			} else {
				ev = model.ChurnEvent{
					Kind: model.CapacityDrift, Target: model.TargetLink,
					Link: rng.IntN(net.M()), Factor: factor,
				}
			}
		}
		events = append(events, ChurnEvent{TimeMs: clock, Event: ev})
	}
	return events, nil
}

// Heal returns the events that undo the outages a trace leaves behind:
// NodeUp for every node still down at its end and LinkRestore for every
// link still degraded, in ascending ID order (drift is left in place).
// Applied after the trace, it replays cleanly; nil means nothing is down.
func Heal(trace []ChurnEvent) []model.ChurnEvent {
	down := make(map[model.NodeID]bool)
	degraded := make(map[int]bool)
	maxNode, maxLink := model.NodeID(-1), -1
	for _, te := range trace {
		ev := te.Event
		switch ev.Kind {
		case model.NodeDown:
			down[ev.Node] = true
			maxNode = max(maxNode, ev.Node)
		case model.NodeUp:
			delete(down, ev.Node)
		case model.LinkDegrade:
			degraded[ev.Link] = true
			maxLink = max(maxLink, ev.Link)
		case model.LinkRestore:
			delete(degraded, ev.Link)
		}
	}
	var out []model.ChurnEvent
	for v := model.NodeID(0); v <= maxNode; v++ {
		if down[v] {
			out = append(out, model.ChurnEvent{Kind: model.NodeUp, Node: v})
		}
	}
	for l := 0; l <= maxLink; l++ {
		if degraded[l] {
			out = append(out, model.ChurnEvent{Kind: model.LinkRestore, Link: l})
		}
	}
	return out
}
