package fleet

import (
	"fmt"
	"math"

	"elpc/internal/model"
)

// This file is the SLO scoring side of the health engine: SLOReport
// re-evaluates every live deployment's delivered delay and sustainable rate
// on the *current* residual network — the network as churn has left it, not
// as admission saw it — and compares them against the deployment's admission
// SLO. The service layer runs a report after every churn batch, repair, and
// rebalance pass and folds the result into /v1/health and the elpc_slo_*
// metric families.

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

// sloStatusOf scores one deployment on the residual view r: the current
// mapping is re-evaluated on a snapshot with the deployment's own
// reservation excluded (the network as this tenant sees it), so a compliant
// verdict means the admission placement still delivers its SLO on the
// churned network. Caller must serialize access to r.
func sloStatusOf(r *model.ResidualNetwork, d *Deployment, shard string) SLOStatus {
	st := SLOStatus{
		ID:          d.ID,
		Tenant:      d.Tenant,
		Shard:       shard,
		MaxDelayMs:  d.SLO.MaxDelayMs,
		ReservedFPS: d.ReservedFPS,
	}
	for _, v := range d.Assignment {
		if r.NodeIsDown(v) {
			st.DelayMs = math.Inf(1)
			st.Reason = fmt.Sprintf("node v%d hosting a module is down", v)
			return st
		}
	}
	snap, err := r.SnapshotWithout(d.reservation)
	if err != nil {
		// Reservations are shaped by the fleet against the same base
		// network; a mismatch means corrupted state, not a user error.
		st.Reason = fmt.Sprintf("unscorable: %v", err)
		return st
	}
	m := model.NewMapping(d.Assignment)
	st.DelayMs = model.TotalDelay(snap, d.pipe, m, d.cost)
	st.RateFPS = model.FrameRate(model.SharedBottleneck(snap, d.pipe, m))
	switch {
	case math.IsInf(st.DelayMs, 1):
		st.Reason = "mapping traverses an unusable path"
	case d.SLO.MaxDelayMs > 0 && st.DelayMs > d.SLO.MaxDelayMs:
		st.Reason = fmt.Sprintf("delay %.3f ms exceeds SLO %.3f ms", st.DelayMs, d.SLO.MaxDelayMs)
	case st.RateFPS < d.ReservedFPS:
		st.Reason = fmt.Sprintf("sustainable rate %.3f fps below reserved %.3f fps", st.RateFPS, d.ReservedFPS)
	default:
		st.Compliant = true
	}
	return st
}

// SLOReport re-scores every live deployment — regional and cross-region —
// on the composed residual view of the whole network, so a deployment whose
// path crosses a churned boundary link is judged against the capacity it
// actually has. Statuses list shard 0's deployments in admission order, then
// shard 1's, and so on, with coordinator deployments last.
func (s *ShardedFleet) SLOReport() SLOReport {
	var rep SLOReport
	s.composed(func(rn *model.ResidualNetwork) {
		for _, f := range s.regions {
			for _, id := range f.order {
				rep.add(sloStatusOf(rn, f.deps[id], shardLabel(f.idPrefix)))
			}
		}
	})
	return rep
}
