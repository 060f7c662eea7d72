package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"elpc/internal/fleet"
)

// This file is elpcd's SLO health engine. Every state-changing fleet
// operation (deploy, release, churn batch, rebalance) re-scores the live
// deployments against their admission SLOs on the current residual network
// (fleet.Manager.SLOReport) and feeds the result here; GET /v1/health folds
// the latest evaluation, burn-rate windows, and operational gauges (parked
// queue, worker-queue depth, 2PC abort rate) into one green/degraded/red
// verdict with machine-readable reasons.

// Health status values, ordered by severity.
const (
	HealthGreen    = "green"
	HealthDegraded = "degraded"
	HealthRed      = "red"
)

// Health thresholds.
const (
	// redViolatingFraction escalates degraded to red when at least this
	// fraction of evaluated deployments are violating their SLO.
	redViolatingFraction = 0.5
	// degradedQueueFactor flags the worker queue when its depth exceeds
	// this multiple of the pool size (requests are waiting longer than one
	// full pool rotation).
	degradedQueueFactor = 2
	// degradedAbortRate flags cross-region admission when more than this
	// fraction of coordinator admissions end in a two-phase abort.
	degradedAbortRate = 0.05
	// burnShortWindow and burnLongWindow are the compliance burn-rate
	// windows exposed by /v1/health and elpc_slo_burn_rate.
	burnShortWindow = time.Minute
	burnLongWindow  = 10 * time.Minute
)

// burnBuckets is the number of one-second buckets the burn-rate ring
// keeps: enough to cover the long window.
const burnBuckets = int64(burnLongWindow / time.Second)

// burnBucket accumulates the SLO evaluations of one second.
type burnBucket struct {
	// sec is the second the bucket holds, counted from the engine's first
	// evaluation; a ring slot whose sec is not the one being written is
	// stale and starts over.
	sec int64
	// sum adds up the violating fractions of the second's evaluations;
	// count is how many there were (evaluations of an empty fleet count for
	// nothing).
	sum   float64
	count int
}

// healthEngine retains the most recent SLO evaluation and a fixed ring of
// one-second buckets covering the long burn window, so folding in an
// evaluation is O(1) and the engine's memory stays constant however fast
// evaluations arrive. All methods are safe for concurrent use.
type healthEngine struct {
	mu   sync.Mutex
	last fleet.SLOReport
	// now is the clock: time.Now in a server, injected by tests. It is read
	// under mu, so no evaluation is stamped before the one that set start.
	now func() time.Time
	// start anchors bucket seconds at the first evaluation (monotonic
	// readings, so wall-clock steps do not move the windows).
	start   time.Time
	buckets [burnBuckets]burnBucket
}

// secondLocked returns the bucket second t falls in.
func (h *healthEngine) secondLocked(t time.Time) int64 {
	return int64(t.Sub(h.start) / time.Second)
}

// observe folds one evaluation into the engine: it becomes the latest
// report, and its violating fraction joins the current second's bucket.
func (h *healthEngine) observe(rep fleet.SLOReport) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	h.last = rep
	if h.start.IsZero() {
		h.start = now
	}
	if rep.Evaluated == 0 {
		return
	}
	sec := h.secondLocked(now)
	b := &h.buckets[sec%burnBuckets]
	if b.sec != sec {
		*b = burnBucket{sec: sec}
	}
	b.sum += float64(rep.Violating) / float64(rep.Evaluated)
	b.count++
}

// report returns the latest evaluation.
func (h *healthEngine) report() fleet.SLOReport {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// snapshot returns the latest report and the burn rates over both windows.
func (h *healthEngine) snapshot() (rep fleet.SLOReport, burn1m, burn10m float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	return h.last, h.burnLocked(now, burnShortWindow), h.burnLocked(now, burnLongWindow)
}

// burnLocked is the mean violating fraction across the evaluations inside
// the window (0 when nothing was evaluated — an idle fleet is not burning).
// The window is whole buckets: the current second and the ones before it,
// up to the window's length in seconds.
func (h *healthEngine) burnLocked(now time.Time, window time.Duration) float64 {
	cur, span := h.secondLocked(now), int64(window/time.Second)
	var sum float64
	n := 0
	for _, b := range h.buckets[:] {
		if age := cur - b.sec; age >= 0 && age < span {
			sum += b.sum
			n += b.count
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// evaluateSLO runs one SLO evaluation against the installed fleet and
// records it in the health engine; a no-fleet state records nothing. Called
// after every state-changing fleet operation and by GET /v1/health.
func (s *Server) evaluateSLO() {
	var rep fleet.SLOReport
	if err := s.fleet.withFleet(func(f fleet.Manager) error {
		rep = f.SLOReport()
		return nil
	}); err != nil {
		return
	}
	s.health.observe(rep)
}

// healthReason is one machine-readable contribution to a non-green verdict.
type healthReason struct {
	// Code is a stable identifier ("slo_violations", "parked_tenants",
	// "queue_depth", "two_phase_aborts"); Detail is the human rendering.
	Code   string `json:"code"`
	Detail string `json:"detail"`
}

// healthResponse is the GET /v1/health payload.
type healthResponse struct {
	Status  string         `json:"status"`
	Reasons []healthReason `json:"reasons"`
	// SLO summarizes the evaluation this verdict is based on; absent before
	// a fleet network is installed.
	SLO *sloSummaryWire `json:"slo,omitempty"`
	// Parked is the displaced-tenant queue length; QueueDepth is the
	// solver's worker-queue depth; TwoPhaseAbortRate is the fraction of
	// coordinator admissions abandoned after exhausting every 2PC round
	// (sharded fleets only).
	Parked            int     `json:"parked"`
	QueueDepth        int     `json:"queue_depth"`
	TwoPhaseAbortRate float64 `json:"two_phase_abort_rate"`
}

// sloSummaryWire is the compliance summary shared by /v1/health and
// /v1/stats.
type sloSummaryWire struct {
	Evaluated int `json:"evaluated"`
	Compliant int `json:"compliant"`
	Violating int `json:"violating"`
	// ViolatingTenants names the tenants behind the violating count.
	ViolatingTenants []string `json:"violating_tenants,omitempty"`
	// Burn1m and Burn10m are the mean violating fractions across the
	// evaluations inside each window.
	Burn1m  float64 `json:"burn_1m"`
	Burn10m float64 `json:"burn_10m"`
}

// twoPhaseAbortRate computes the coordinator abort fraction from its
// counters (0 for an idle coordinator, which a one-shard fleet's always is).
func twoPhaseAbortRate(st fleet.CoordinatorStats) float64 {
	attempts := st.Admitted + st.Rejected
	if attempts == 0 {
		return 0
	}
	return float64(st.TwoPhaseAborts) / float64(attempts)
}

// handleHealth evaluates fleet health live and reports the verdict:
// GET /v1/health. Always 200 — the verdict is in the body, so load
// balancers probing liveness keep using /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.evaluateSLO()
	rep, burn1m, burn10m := s.health.snapshot()

	out := healthResponse{
		Status:     HealthGreen,
		Reasons:    []healthReason{},
		QueueDepth: int(s.solver.queueDepth.Load()),
	}
	if st := s.churnStats(); st != nil {
		out.Parked = st.ParkedNow
	}
	configured := s.fleet.withFleet(func(f fleet.Manager) error {
		out.TwoPhaseAbortRate = twoPhaseAbortRate(f.CoordinatorStats())
		return nil
	}) == nil
	if configured {
		out.SLO = &sloSummaryWire{
			Evaluated:        rep.Evaluated,
			Compliant:        rep.Compliant,
			Violating:        rep.Violating,
			ViolatingTenants: rep.ViolatingTenants(),
			Burn1m:           burn1m,
			Burn10m:          burn10m,
		}
	}

	degrade := func(code, detail string) {
		out.Status = HealthDegraded
		out.Reasons = append(out.Reasons, healthReason{Code: code, Detail: detail})
	}
	if rep.Violating > 0 {
		degrade("slo_violations", joinDetail("deployments violating their SLO", rep.ViolatingTenants(), rep.Violating))
	}
	if out.Parked > 0 {
		degrade("parked_tenants", joinDetail("tenants parked awaiting capacity", nil, out.Parked))
	}
	if workers := s.solver.opt.Workers; out.QueueDepth > degradedQueueFactor*workers {
		degrade("queue_depth", joinDetail("requests queued beyond the worker pool", nil, out.QueueDepth))
	}
	if out.TwoPhaseAbortRate > degradedAbortRate {
		degrade("two_phase_aborts", fmt.Sprintf("%.1f%% of coordinator admissions aborting", out.TwoPhaseAbortRate*100))
	}
	if rep.Evaluated > 0 && float64(rep.Violating) >= redViolatingFraction*float64(rep.Evaluated) && rep.Violating > 0 {
		out.Status = HealthRed
	}
	writeJSON(w, http.StatusOK, out)
}

// joinDetail renders a reason detail like "3 deployments violating their SLO
// (tenant-a, tenant-b)".
func joinDetail(what string, names []string, n int) string {
	detail := fmt.Sprintf("%d %s", n, what)
	if len(names) > 0 {
		detail += " (" + strings.Join(names, ", ") + ")"
	}
	return detail
}

// sloSummary snapshots the latest evaluation for /v1/stats (nil before a
// fleet network is installed).
func (s *Server) sloSummary() *sloSummaryWire {
	if err := s.fleet.withFleet(func(fleet.Manager) error { return nil }); err != nil {
		return nil
	}
	rep, burn1m, burn10m := s.health.snapshot()
	return &sloSummaryWire{
		Evaluated:        rep.Evaluated,
		Compliant:        rep.Compliant,
		Violating:        rep.Violating,
		ViolatingTenants: rep.ViolatingTenants(),
		Burn1m:           burn1m,
		Burn10m:          burn10m,
	}
}
