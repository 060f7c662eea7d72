package fleet

import (
	"fmt"
	"math"

	"elpc/internal/model"
)

// This file is the placement guard: the one judgment admission, the repair
// keep and migrate steps, rebalance and the SLO report pass on a mapping. A
// placement is sound when every module has a live host, its Eq. 1 delay is
// finite and within the delay SLO, its Eq. 2 rate sustains the reserved
// frame rate, and — for a mapping about to be reserved — its reservation
// fits the residual network. The checks run in that order; the first that
// fails is the reason reported.

// downHost names the first node of assign that churn has taken down, or
// returns "". The residual snapshot floors a down node rather than removing
// it, and a zero-cost module (a pinned source or sink) reserves nothing
// there, so neither the solver nor the capacity checks alone keep a module
// off a down node; such a module has no host.
func downHost(rn *model.ResidualNetwork, assign []model.NodeID) string {
	for _, v := range assign {
		if rn.NodeIsDown(v) {
			return fmt.Sprintf("node v%d hosting a module is down", v)
		}
	}
	return ""
}

// shortfall names the first term a placement scored (delay, rate) misses —
// an unusable path, the delay SLO, then the reserved rate fps — or returns
// "".
func shortfall(delay, rate float64, slo SLO, fps float64) string {
	switch {
	case math.IsInf(delay, 1):
		return "mapping traverses an unusable path"
	case slo.MaxDelayMs > 0 && delay > slo.MaxDelayMs:
		return fmt.Sprintf("delay %.3f ms exceeds SLO %.3f ms", delay, slo.MaxDelayMs)
	case rate < fps:
		return fmt.Sprintf("sustainable rate %.3f fps below reserved %.3f fps", rate, fps)
	}
	return ""
}

// judgeLocked guards a mapping m of pl about to be reserved at fps, scored
// (delay, rate) on the region's residual view: downHost, then shortfall,
// then whether the reservation fits. It returns the reservation when m
// passes, otherwise the reason, with overcommit set when the fit failed —
// the one refusal a fresher view can cure. Caller holds f.mu (the
// coordinator: every lock).
func (f *region) judgeLocked(pl *model.Pipeline, m *model.Mapping, delay, rate float64, slo SLO, fps float64) (res model.Reservation, reason string, overcommit bool, err error) {
	if reason = downHost(f.residual, m.Assign); reason == "" {
		reason = shortfall(delay, rate, slo, fps)
	}
	if reason != "" {
		return model.Reservation{}, reason, false, nil
	}
	if res, err = model.MappingReservation(f.base, pl, m, fps); err != nil {
		return model.Reservation{}, "", false, err
	}
	if !f.residual.Fits(res) {
		return model.Reservation{}, fmt.Sprintf("reservation at %.3f fps overcommits the network", fps), true, nil
	}
	return res, "", false, nil
}

// placeLocked migrates d onto the judged mapping m, scored (delay, rate),
// holding res, and recomputes the residual loads; the reserved rate is
// unchanged. Caller holds f.mu.
func (f *region) placeLocked(d *Deployment, m *model.Mapping, delay, rate float64, res model.Reservation) {
	d.Assignment = m.Assign
	d.Mapping = m.String()
	d.DelayMs = delay
	d.RateFPS = rate
	d.reservation = res
	f.recomputeLocked()
}
