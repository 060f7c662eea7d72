package service

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"elpc/internal/telemetry"
)

// This file is elpcd's observability surface: the HTTP middleware that
// records per-endpoint latency histograms, status-class counters, and
// request traces; the GET /metrics and GET /v1/traces handlers; the opt-in
// pprof mount; and the scrape-time gauges that read live solver and fleet
// state. The metrics themselves live in the process-global
// telemetry.Default() registry, which the instrumented leaf packages
// (core, fleet, churn) also record into.

// Per-operation solver latency histograms (cold solves only; cache hits are
// counted by the cache series). Package-level so the hot path pays one map
// lookup at init, not per request.
var (
	solveSecondsByOp = map[Op]*telemetry.Histogram{
		OpMinDelay: telemetry.Default().Histogram(
			`elpc_solve_seconds{op="mindelay"}`,
			"cold-solve latency by operation, queue wait excluded (seconds)", nil),
		OpMaxFrameRate: telemetry.Default().Histogram(
			`elpc_solve_seconds{op="maxframerate"}`, "", nil),
		OpFront: telemetry.Default().Histogram(
			`elpc_solve_seconds{op="front"}`, "", nil),
	}
	poolWaitSeconds = telemetry.Default().Histogram(
		"elpc_solver_pool_wait_seconds",
		"time cold solves spent waiting for a worker slot (seconds)", nil)

	// Admission intake counters: requests that entered the bounded intake
	// queue ahead of the fleet lock, and best-effort requests shed at it.
	// (The companion elpc_admission_preempted_total lives in internal/fleet,
	// where preemption happens; the registry is process-global, so all three
	// families scrape together.)
	admissionQueuedTotal = telemetry.Default().Counter(
		"elpc_admission_queued_total",
		"deploy requests admitted to the intake queue")
	admissionShedTotal = telemetry.Default().Counter(
		"elpc_admission_shed_total",
		"best-effort deploy requests shed at the intake queue (429)")
)

// statusClass buckets an HTTP status code into its Prometheus label ("2xx",
// "4xx", ...).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return fmt.Sprintf("%dxx", code/100)
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// withTelemetry is the outermost HTTP middleware: it starts a trace whose
// root span is renamed to the matched route pattern after the handler
// returns, records the per-endpoint latency histogram and status-class
// counter, and emits the structured slow-request log when the configured
// threshold is exceeded.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	reg := telemetry.Default()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace := s.tracer.Start(r.Method + " " + r.URL.Path)
		// ServeMux stamps the matched pattern on the request it serves, so
		// route attribution reads r2 (the context-carrying copy), not r.
		r2 := r.WithContext(telemetry.ContextWithSpan(r.Context(), trace.Root()))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r2)
		elapsed := time.Since(start)

		route := r2.Pattern
		if route == "" {
			route = "unmatched"
		}
		trace.Root().Rename(route)
		trace.Root().Annotate(fmt.Sprintf("status=%d", rec.status))
		trace.Finish()

		reg.Histogram(fmt.Sprintf(`elpc_http_request_seconds{route=%q}`, route),
			"request latency by matched route (seconds)", nil).Observe(elapsed.Seconds())
		reg.Counter(fmt.Sprintf(`elpc_http_requests_total{route=%q,code=%q}`, route, statusClass(rec.status)),
			"requests by matched route and status class").Inc()

		if thr := s.slowRequest; thr > 0 && elapsed >= thr {
			slog.Warn("slow request",
				"route", route,
				"status", rec.status,
				"duration_ms", float64(elapsed)/float64(time.Millisecond),
				"remote", r.RemoteAddr)
		}
	})
}

// handleMetrics serves the registry in the Prometheus text exposition
// format: GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.Default().WritePrometheus(w) // response committed; nothing to do
}

// tracesResponse is the GET /v1/traces payload.
type tracesResponse struct {
	// Capacity is the slowest-traces ring size; Started counts traces begun
	// since boot (one per request).
	Capacity int    `json:"capacity"`
	Started  uint64 `json:"started"`
	// Traces lists the retained slowest traces, slowest first.
	Traces []telemetry.TraceRecord `json:"traces"`
}

// handleTraces dumps the slowest retained request traces: GET /v1/traces.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, tracesResponse{
		Capacity: s.tracer.Capacity(),
		Started:  s.tracer.Started(),
		Traces:   s.tracer.Slowest(),
	})
}

// mountPprof exposes net/http/pprof on the server's own mux (the package's
// DefaultServeMux registrations are never served). Opt-in via
// Options.EnablePprof / elpcd's -pprof flag: profiling endpoints expose
// internals and cost CPU when scraped, so production deployments enable
// them deliberately.
func (s *Server) mountPprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// registerGauges wires the scrape-time callbacks that read this server's
// live state. Re-registering replaces the previous server's callbacks (the
// registry is process-global and tests build many servers), so a scrape
// always reads the most recently built instance.
func (s *Server) registerGauges() {
	reg := telemetry.Default()
	reg.GaugeFunc("elpc_uptime_seconds", "seconds since the server was built",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("elpc_solver_workers", "worker-slot pool size",
		func() float64 { return float64(s.solver.opt.Workers) })
	reg.GaugeFunc("elpc_solver_in_flight", "solves currently holding a worker slot",
		func() float64 { return float64(s.solver.inFlight.Load()) })
	reg.GaugeFunc("elpc_solver_queue_depth", "requests waiting for a worker slot",
		func() float64 { return float64(s.solver.queueDepth.Load()) })
	reg.CounterFunc("elpc_solver_cold_solves_total", "solves that went to the DP",
		func() float64 { return float64(s.solver.coldSolves.Load()) })
	reg.CounterFunc("elpc_solver_coalesced_total", "requests served by joining an identical in-progress solve",
		func() float64 { return float64(s.solver.coalesced.Load()) })
	reg.CounterFunc("elpc_solver_timeouts_total", "requests abandoned on context deadline or cancellation",
		func() float64 { return float64(s.solver.timeouts.Load()) })
	reg.CounterFunc("elpc_cache_hits_total", "solution-cache hits",
		func() float64 { return float64(s.solver.cache.stats().Hits) })
	reg.CounterFunc("elpc_cache_body_hits_total", "solution-cache hits answered from the body tier without decoding",
		func() float64 { return float64(s.solver.cache.stats().BodyHits) })
	reg.CounterFunc("elpc_cache_misses_total", "solution-cache misses",
		func() float64 { return float64(s.solver.cache.stats().Misses) })
	reg.CounterFunc("elpc_cache_evictions_total", "solution-cache LRU evictions",
		func() float64 { return float64(s.solver.cache.stats().Evictions) })
	reg.GaugeFunc("elpc_cache_entries", "solutions resident in the cache",
		func() float64 { return float64(s.solver.cache.stats().Entries) })
	reg.GaugeFunc("elpc_cache_capacity", "solution-cache capacity",
		func() float64 { return float64(s.solver.opt.CacheCapacity) })

	// Fleet and churn gauges read whatever manager is currently installed
	// (zero before the first POST /v1/fleet/network). Counter-style fleet
	// series live in internal/fleet; these are the point-in-time gauges.
	reg.GaugeFunc("elpc_fleet_deployments", "deployments currently admitted",
		func() float64 { return float64(s.fleetGaugeStats().Deployments) })
	reg.GaugeFunc("elpc_fleet_reserved_fps", "total frame rate reserved across deployments",
		func() float64 { return s.fleetGaugeStats().ReservedFPS })
	reg.GaugeFunc("elpc_fleet_max_node_util", "hottest node's outstanding load fraction",
		func() float64 { return s.fleetGaugeStats().MaxNodeUtil })
	reg.GaugeFunc("elpc_fleet_max_link_util", "hottest link's outstanding load fraction",
		func() float64 { return s.fleetGaugeStats().MaxLinkUtil })
	reg.GaugeFunc("elpc_churn_parked_now", "deployments currently parked awaiting capacity",
		func() float64 {
			if st := s.churnStats(); st != nil {
				return float64(st.ParkedNow)
			}
			return 0
		})
	reg.GaugeFunc("elpc_admission_queue_depth", "deploy requests currently inside the intake queue",
		func() float64 { return float64(s.intakeDepth.Load()) })
	reg.GaugeFunc("elpc_admission_intake_bound", "intake queue bound (negative = best-effort brownout drill)",
		func() float64 { return float64(s.solver.opt.IntakeBound) })
	reg.GaugeFunc("elpc_journal_depth", "events retained in the journal ring",
		func() float64 { return float64(s.journal.Stats().Depth) })
	reg.GaugeFunc("elpc_journal_capacity", "journal ring capacity",
		func() float64 { return float64(s.journal.Stats().Capacity) })

	// SLO gauges read the health engine's latest evaluation — scrapes never
	// take fleet locks; the evaluation runs after state-changing operations.
	reg.GaugeFunc("elpc_slo_evaluated", "deployments scored in the latest SLO evaluation",
		func() float64 { return float64(s.health.report().Evaluated) })
	reg.GaugeFunc("elpc_slo_compliant", "deployments meeting their SLO in the latest evaluation",
		func() float64 { return float64(s.health.report().Compliant) })
	reg.GaugeFunc("elpc_slo_violating", "deployments violating their SLO in the latest evaluation",
		func() float64 { return float64(s.health.report().Violating) })
	reg.GaugeFunc(`elpc_slo_burn_rate{window="1m"}`, "mean violating fraction across SLO evaluations in the window",
		func() float64 { _, b, _ := s.health.snapshot(); return b })
	reg.GaugeFunc(`elpc_slo_burn_rate{window="10m"}`, "",
		func() float64 { _, _, b := s.health.snapshot(); return b })
}

// fleetGaugeStats is fleetStats with a zero-value fallback so gauge
// callbacks stay total before a network is installed.
func (s *Server) fleetGaugeStats() fleetStatsView {
	if st := s.fleetStats(); st != nil {
		return fleetStatsView{
			Deployments: st.Deployments,
			ReservedFPS: st.ReservedFPS,
			MaxNodeUtil: st.MaxNodeUtil,
			MaxLinkUtil: st.MaxLinkUtil,
		}
	}
	return fleetStatsView{}
}

// fleetStatsView is the subset of fleet.Stats the gauges read.
type fleetStatsView struct {
	Deployments int
	ReservedFPS float64
	MaxNodeUtil float64
	MaxLinkUtil float64
}

// logTelemetrySummary emits the final drain-time summary: one structured
// line per request-latency route plus total request and solve counts, so a
// short-lived run (CI, a load test) still surfaces its numbers without a
// scraper attached.
func logTelemetrySummary(l *slog.Logger) {
	var requests, solves uint64
	for _, h := range telemetry.Default().Summaries() {
		family, _ := splitSeries(h.Name)
		switch family {
		case "elpc_http_request_seconds":
			requests += h.Count
			l.Info("telemetry summary",
				"series", h.Name,
				"count", h.Count,
				"mean_ms", h.Mean*1000,
				"p50_ms", h.P50*1000,
				"p99_ms", h.P99*1000)
		case "elpc_solve_seconds":
			solves += h.Count
		}
	}
	l.Info("telemetry totals", "requests", requests, "cold_solves", solves)
}

// splitSeries separates `family{labels}` (telemetry naming) into its parts.
func splitSeries(name string) (family, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i], name[i:]
		}
	}
	return name, ""
}
