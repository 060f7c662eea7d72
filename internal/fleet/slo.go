package fleet

import (
	"fmt"
	"math"

	"elpc/internal/model"
)

// This file is the SLO scoring side of the health engine: SLOReport
// re-evaluates every live deployment's delivered delay and sustainable rate
// on the *current* residual network — as churn has left it, not as
// admission saw it — against its admission SLO. The service layer runs a
// report after every mutating request (deploy, deploy-batch, release,
// rebalance, and each /v1/events batch) and on every GET /v1/health and
// /v1/debug/dump, and folds the result into /v1/health and the elpc_slo_*
// metric families.
//
// A report costs one snapshot of the fleet's ledger, then O(path) per
// deployment: Eq. 1 and Eq. 2 read only the nodes a mapping's groups run on
// and the links between them, so each deployment is scored on the shared
// snapshot with just those elements rewritten to exclude its own
// reservation (model.ResidualNetwork.ScorePath).

// SLOStatus is one deployment's compliance verdict.
type SLOStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	// Shard is the owning region label ("main" for the only shard of a
	// one-shard fleet, "s3" for shard 3, "x" for coordinator-owned
	// cross-region deployments).
	Shard string `json:"shard,omitempty"`
	// DelayMs and RateFPS are the delivered values: the admission mapping
	// re-scored on the current residual network with the deployment's own
	// reservation excluded.
	DelayMs float64 `json:"delay_ms"`
	RateFPS float64 `json:"rate_fps"`
	// MaxDelayMs and ReservedFPS echo the admission constraints the
	// delivered values are judged against (MaxDelayMs 0 = unconstrained).
	MaxDelayMs  float64 `json:"max_delay_ms,omitempty"`
	ReservedFPS float64 `json:"reserved_fps"`
	Compliant   bool    `json:"compliant"`
	// Reason names the violated constraint when non-compliant.
	Reason string `json:"reason,omitempty"`
}

// SLOReport aggregates one evaluation pass over every live deployment.
type SLOReport struct {
	Evaluated int `json:"evaluated"`
	Compliant int `json:"compliant"`
	Violating int `json:"violating"`
	// Statuses holds one verdict per deployment, in listing order.
	Statuses []SLOStatus `json:"statuses,omitempty"`
}

// add folds one status into the report's tallies.
func (r *SLOReport) add(st SLOStatus) {
	r.Evaluated++
	if st.Compliant {
		r.Compliant++
	} else {
		r.Violating++
	}
	r.Statuses = append(r.Statuses, st)
}

// ViolatingTenants returns the distinct tenants with at least one
// non-compliant deployment, in first-violation order.
func (r SLOReport) ViolatingTenants() []string {
	seen := make(map[string]bool)
	var out []string
	for _, st := range r.Statuses {
		if st.Compliant {
			continue
		}
		name := st.Tenant
		if name == "" {
			name = st.ID
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// sloStatusOf scores one deployment on the residual view r through snap, a
// snapshot of r taken since r last changed: the current mapping is
// re-evaluated with the deployment's own reservation excluded (the network
// as this tenant sees it) and judged by the placement guard's host and SLO
// checks (downHost, shortfall) — the report judges but never reserves — so
// a compliant verdict means the admission placement still delivers its SLO
// on the churned network. Caller must serialize access to r and snap.
func sloStatusOf(r *model.ResidualNetwork, snap *model.Network, d *Deployment, shard string) SLOStatus {
	st := SLOStatus{
		ID:          d.ID,
		Tenant:      d.Tenant,
		Shard:       shard,
		MaxDelayMs:  d.SLO.MaxDelayMs,
		ReservedFPS: d.ReservedFPS,
	}
	if st.Reason = downHost(r, d.Assignment); st.Reason != "" {
		st.DelayMs = math.Inf(1)
		return st
	}
	// The scorer only reads the mapping, so it may share the assignment.
	delay, bottleneck, err := r.ScorePath(snap, d.pipe, &model.Mapping{Assign: d.Assignment}, d.cost, d.reservation)
	if err != nil {
		// ScorePath refuses only a network that is not a snapshot of r,
		// which SLOReport's snapshot always is: corrupted state, not a user
		// error.
		st.Reason = fmt.Sprintf("unscorable: %v", err)
		return st
	}
	st.DelayMs = delay
	st.RateFPS = model.FrameRate(bottleneck)
	st.Reason = shortfall(st.DelayMs, st.RateFPS, d.SLO, d.ReservedFPS)
	st.Compliant = st.Reason == ""
	return st
}

// SLOReport re-scores every live deployment — regional and cross-region —
// on the whole ledger, so a deployment whose path crosses a churned
// boundary link is judged against the capacity it actually has. Statuses
// list shard 0's deployments in admission order, then shard 1's, and so
// on, with coordinator deployments last.
func (s *ShardedFleet) SLOReport() SLOReport {
	var rep SLOReport
	s.composed(func(rn *model.ResidualNetwork) {
		// Every lock is held, so the coordinator's scoring buffer is free.
		snap := s.coord.scoringSnapshotLocked()
		for _, f := range s.regions {
			for _, id := range f.order {
				rep.add(sloStatusOf(rn, snap, f.deps[id], shardLabel(f.idPrefix)))
			}
		}
	})
	return rep
}
