package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"elpc/internal/churn"
	"elpc/internal/fleet"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/service/wire"
	"elpc/internal/sim"
	"elpc/internal/telemetry"
	"elpc/internal/wal"
)

// Wire limits, applied before any decoding work happens.
const (
	// MaxRequestBytes bounds a single request body.
	MaxRequestBytes = 32 << 20
	// MaxBatchRequests bounds the number of problems in one /v1/batch call.
	MaxBatchRequests = 256
	// MaxFrontPoints bounds a request's "points": a front solves one
	// budgeted DP per point, plus one.
	MaxFrontPoints = 256
	// MaxSimFrames bounds a request's "frames": the simulator keeps one
	// completion time per frame.
	MaxSimFrames = 100000
)

// wireRequest is the JSON body shared by every planning endpoint: the
// problem instance (same shape as the CLI's instance files) plus the
// operation parameters. Cost defaults to model.DefaultCostOptions when
// omitted.
type wireRequest struct {
	Network  *model.Network     `json:"network"`
	Pipeline *model.Pipeline    `json:"pipeline"`
	Src      model.NodeID       `json:"src"`
	Dst      model.NodeID       `json:"dst"`
	Cost     *model.CostOptions `json:"cost,omitempty"`

	// Op is honored by /v1/batch and /v1/simulate; the dedicated planning
	// endpoints fix it.
	Op            Op      `json:"op,omitempty"`
	DelayBudgetMs float64 `json:"delay_budget_ms,omitempty"`
	Points        int     `json:"points,omitempty"`
	// AllowSimilar opts into similarity-tier cache adaptations (the result
	// carries "approximate": true when one is served).
	AllowSimilar bool `json:"allow_similar,omitempty"`

	// Simulation parameters (/v1/simulate only).
	Frames int     `json:"frames,omitempty"`
	PaceMs float64 `json:"pace_ms,omitempty"`
}

// request converts the wire form into a solver Request.
func (w *wireRequest) request(op Op) (Request, error) {
	if w.Network == nil || w.Pipeline == nil {
		return Request{}, fmt.Errorf("request missing network or pipeline")
	}
	if w.Points > MaxFrontPoints {
		return Request{}, fmt.Errorf("points %d exceeds limit %d", w.Points, MaxFrontPoints)
	}
	if w.Frames > MaxSimFrames {
		return Request{}, fmt.Errorf("frames %d exceeds limit %d", w.Frames, MaxSimFrames)
	}
	cost := model.DefaultCostOptions()
	if w.Cost != nil {
		cost = *w.Cost
	}
	return Request{
		Op: op,
		Problem: &model.Problem{
			Net:  w.Network,
			Pipe: w.Pipeline,
			Src:  w.Src,
			Dst:  w.Dst,
			Cost: cost,
		},
		DelayBudgetMs: w.DelayBudgetMs,
		Points:        w.Points,
		AllowSimilar:  w.AllowSimilar,
	}, nil
}

// simResponse is the /v1/simulate payload: the (cached) plan plus the
// discrete-event replay metrics.
type simResponse struct {
	Plan            *Result `json:"plan"`
	Frames          int     `json:"frames"`
	FirstFrameDelay float64 `json:"first_frame_delay_ms"`
	SteadyPeriodMs  float64 `json:"steady_period_ms"`
	MeasuredRateFPS float64 `json:"measured_rate_fps"`
	MakeSpanMs      float64 `json:"makespan_ms"`
	Events          uint64  `json:"events"`
}

// statsResponse is the /v1/stats payload.
type statsResponse struct {
	Service  string      `json:"service"`
	UptimeMs float64     `json:"uptime_ms"`
	Solver   SolverStats `json:"solver"`
	// Fleet and Churn gauges are present once a fleet network is installed.
	Fleet *fleet.Stats `json:"fleet,omitempty"`
	Churn *churn.Stats `json:"churn,omitempty"`
	// FleetShards breaks the fleet gauges down per region when the
	// installed manager is sharded.
	FleetShards *fleet.ShardedStats `json:"fleet_shards,omitempty"`
	// Warm reports the warm-start solve outcome counters and the derived
	// hit ratio (present once a fleet network is installed).
	Warm *warmStatsWire `json:"warm,omitempty"`
	// Journal reports the event journal's depth/capacity/drop gauges.
	Journal journal.Stats `json:"journal"`
	// SLO is the latest compliance evaluation (present once a fleet network
	// is installed).
	SLO *sloSummaryWire `json:"slo,omitempty"`
}

// Server is the elpcd HTTP planning server. Build one with NewServer and
// mount Handler on any mux or listener (httptest works too).
type Server struct {
	solver *Solver
	fleet  fleetState
	mux    *http.ServeMux
	start  time.Time
	// journal projects every fleet/churn/service transition record; all
	// layers share this one instance, which also appends their records to
	// the write-ahead log, so /v1/journal is the service's total event
	// order and the log's. health retains SLO evaluations for /v1/health.
	journal *journal.Journal
	health  *healthEngine
	// tracer retains the slowest request traces for GET /v1/traces;
	// slowRequest is the structured-log latency threshold (0 = off).
	tracer      *telemetry.Tracer
	slowRequest time.Duration
	// intakeDepth is the admission intake queue's live depth: deploy and
	// deploy-batch requests that entered intake and have not yet cleared the
	// fleet. When it would exceed Options.IntakeBound, best-effort traffic is
	// shed with 429 + Retry-After instead of queueing on the fleet lock.
	intakeDepth atomic.Int64
	// wal is the durable control-plane log (nil unless built with
	// NewDurableServer and a DataDir); stopSnap/snapDone bracket the
	// background snapshot loop, and closeWAL makes Close idempotent.
	wal      *wal.Log
	stopSnap chan struct{}
	snapDone chan struct{}
	closeWAL sync.Once
}

// NewServer builds a Server and its routes around a fresh Solver.
func NewServer(opt Options) *Server {
	s := &Server{solver: NewSolver(opt), mux: http.NewServeMux(), start: time.Now()}
	s.journal = journal.New(s.solver.opt.JournalCapacity)
	s.health = &healthEngine{now: time.Now}
	s.tracer = telemetry.NewTracer(s.solver.opt.TraceCapacity)
	s.slowRequest = s.solver.opt.SlowRequest
	s.mux.HandleFunc("POST /v1/mindelay", s.planHandler(OpMinDelay))
	s.mux.HandleFunc("POST /v1/maxframerate", s.planHandler(OpMaxFrameRate))
	s.mux.HandleFunc("POST /v1/front", s.planHandler(OpFront))
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/fleet/network", s.handleFleetNetwork)
	s.mux.HandleFunc("POST /v1/fleet/deploy", s.handleFleetDeploy)
	s.mux.HandleFunc("POST /v1/fleet/deploy-batch", s.handleFleetDeployBatch)
	s.mux.HandleFunc("POST /v1/fleet/release", s.handleFleetRelease)
	s.mux.HandleFunc("POST /v1/fleet/rebalance", s.handleFleetRebalance)
	s.mux.HandleFunc("GET /v1/fleet", s.handleFleetList)
	s.mux.HandleFunc("GET /v1/fleet/{id}", s.handleFleetDescribe)
	s.mux.HandleFunc("POST /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/events/log", s.handleEventsLog)
	s.mux.HandleFunc("GET /v1/fleet/{id}/timeline", s.handleTimeline)
	s.mux.HandleFunc("GET /v1/journal", s.handleJournal)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /v1/debug/dump", s.handleDebugDump)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if opt.EnablePprof {
		s.mountPprof()
	}
	s.registerGauges()
	return s
}

// Handler returns the server's HTTP handler: the route mux wrapped in the
// telemetry middleware (per-endpoint histograms, status-class counters,
// request tracing, slow-request logging).
func (s *Server) Handler() http.Handler { return s.withTelemetry(s.mux) }

// Solver exposes the underlying solver (embedders can share it with
// in-process callers; its cache then serves both).
func (s *Server) Solver() *Solver { return s.solver }

// Close releases the server's background resources: the solver's
// engine-pool goroutines, the fleet's churn reconciliation loop, and (for a
// durable server) the snapshot loop and the write-ahead log, after one
// final snapshot so the next boot's replay is trivial. Handlers still work
// afterwards — solves just lose helper parallelism, parked deployments wait
// for explicit capacity-raising events, and mutations are no longer durably
// logged — so it is safe to call once the listener is down.
func (s *Server) Close() {
	s.fleet.close()
	if s.wal != nil {
		s.closeWAL.Do(func() {
			if s.stopSnap != nil {
				close(s.stopSnap)
				<-s.snapDone
			}
			s.maybeSnapshot(true)
			_ = s.wal.Close()
		})
	}
	s.solver.Close()
}

// ListenAndServe builds a Server and serves it on addr until the listener
// fails. It is the programmatic equivalent of `elpc serve` without signal
// handling; use Run for graceful shutdown.
func ListenAndServe(addr string, opt Options) error {
	return Run(context.Background(), addr, opt, 0)
}

// Run builds a Server and serves it on addr until the listener fails or ctx
// is canceled. On cancellation it drains gracefully: the listener closes,
// in-flight requests get up to drain to finish (0 waits indefinitely), and
// the return is nil on a clean drain. Pair it with signal.NotifyContext for
// SIGINT/SIGTERM handling — cmd/elpcd does.
// Run also installs a SIGQUIT handler that writes the debug snapshot
// (DebugDump) to elpcd-dump-<unixtime>.json in the working directory — the
// "what is it doing right now" escape hatch when the HTTP surface is wedged.
func Run(ctx context.Context, addr string, opt Options, drain time.Duration) error {
	s, err := NewDurableServer(opt)
	if err != nil {
		return err
	}
	defer s.Close()
	stopDump := s.dumpOnSIGQUIT()
	defer stopDump()
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx := context.Background()
		if drain > 0 {
			var cancel context.CancelFunc
			sctx, cancel = context.WithTimeout(sctx, drain)
			defer cancel()
		}
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("service: draining: %w", err)
		}
		// Drained cleanly: flush the final telemetry summary so short-lived
		// runs surface their numbers without a scraper attached.
		logTelemetrySummary(slog.Default())
		return nil
	}
}

// dumpOnSIGQUIT installs a signal handler that writes the debug snapshot to
// disk on SIGQUIT (falling back to stderr when the file cannot be written)
// and returns a function that uninstalls it.
func (s *Server) dumpOnSIGQUIT() (stop func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-sigc:
				if _, err := s.writeDump(""); err != nil {
					slog.Error("debug dump failed", "err", err)
				}
			}
		}
	}()
	return func() {
		signal.Stop(sigc)
		close(done)
	}
}

// writeDump serializes the debug snapshot to a timestamped JSON file in dir
// ("" = current directory) and returns its path.
func (s *Server) writeDump(dir string) (string, error) {
	payload, err := json.MarshalIndent(s.DebugDump(), "", "  ")
	if err != nil {
		return "", fmt.Errorf("service: marshaling debug dump: %w", err)
	}
	// Write-then-rename so a reader (or a crash mid-write) never observes a
	// half-written dump under the final name.
	name := filepath.Join(dir, fmt.Sprintf("elpcd-dump-%d.json", time.Now().Unix()))
	tmp := name + ".tmp"
	err = os.WriteFile(tmp, payload, 0o644)
	if err == nil {
		err = os.Rename(tmp, name)
	}
	if err != nil {
		// The dump is a last-resort diagnostic: when the directory is not
		// writable, losing it entirely is worse than spamming stderr.
		_ = os.Remove(tmp)
		fmt.Fprintln(os.Stderr, string(payload))
		return "", fmt.Errorf("service: writing debug dump: %w", err)
	}
	slog.Info("debug dump written", "file", name, "bytes", len(payload))
	return name, nil
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // response already committed; nothing useful to do
}

// retryAfterSeconds is the Retry-After hint attached to shed responses.
const retryAfterSeconds = 1

// errShed marks best-effort traffic turned away at the admission intake
// queue before it could reach the fleet lock.
var errShed = errors.New("admission intake queue full; best-effort request shed")

// codeOf maps solver, fleet, and churn errors onto the stable wire codes:
// intake sheds are "shed", fleet admission rejections and conflicting churn
// events (double-down) are "conflict" (the request conflicts with current
// state), unknown deployments and unknown churn targets are "not_found",
// well-formed but unsolvable problems are "infeasible", timeouts and
// cancellations are "unavailable", and everything else is an
// "invalid_request" input error. The HTTP status follows via wire.StatusOf.
func codeOf(err error) string {
	switch {
	case errors.Is(err, errShed):
		return wire.CodeShed
	case errors.Is(err, fleet.ErrRejected), errors.Is(err, model.ErrChurnConflict):
		return wire.CodeConflict
	case errors.Is(err, fleet.ErrNotFound), errors.Is(err, model.ErrUnknownTarget):
		return wire.CodeNotFound
	case errors.Is(err, model.ErrInfeasible):
		return wire.CodeInfeasible
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return wire.CodeUnavailable
	}
	return wire.CodeInvalidRequest
}

// wireError renders err in the envelope's Error shape (shared by the
// top-level error writer and per-item deploy-batch outcomes).
func wireError(err error) wire.Error {
	code := codeOf(err)
	return wire.Error{Code: code, Message: err.Error(), Retryable: wire.Retryable(code)}
}

// writeError writes the structured error envelope every /v1 error response
// carries. Shed responses additionally carry a Retry-After header: the
// client is invited back once the intake queue drains.
func writeError(w http.ResponseWriter, err error) {
	e := wireError(err)
	status := wire.StatusOf(e.Code)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, wire.ErrorEnvelope{Error: e})
}

// planHandler answers the dedicated planning endpoints.
func (s *Server) planHandler(op Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, readErr := readBody(w, r)
		res, err := s.solver.solveBody(r.Context(), op, body, readErr)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// handleSimulate plans (through the cache) and replays the mapping in the
// discrete-event simulator.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, err := decodeRequest(w, r, readPlainRequest)
	if err != nil {
		writeError(w, err)
		return
	}
	op := body.Op
	if op == "" {
		op = OpMaxFrameRate
	}
	if op == OpFront {
		writeError(w, fmt.Errorf("simulate needs a single mapping; op %q is not simulatable", op))
		return
	}
	req, err := body.request(op)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.solver.Solve(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	frames := body.Frames
	if frames <= 0 {
		frames = 200
	}
	sr, err := sim.Simulate(req.Problem, model.NewMapping(res.Assignment), sim.Config{
		Frames:         frames,
		InterArrivalMs: body.PaceMs,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, simResponse{
		Plan:            res,
		Frames:          frames,
		FirstFrameDelay: sr.FirstFrameDelay,
		SteadyPeriodMs:  sr.SteadyPeriod,
		MeasuredRateFPS: sr.MeasuredRate(),
		MakeSpanMs:      sr.MakeSpan,
		Events:          sr.Events,
	})
}

// batchWire is the /v1/batch request body.
type batchWire struct {
	Requests []wireRequest `json:"requests"`
}

// batchItemWire is one /v1/batch response item: result or error, in request
// order.
type batchItemWire struct {
	Index  int     `json:"index"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// handleBatch solves many problems in one round trip over the shared pool.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := decodeRequest(w, r, readPlainBatch)
	if err != nil {
		writeError(w, err)
		return
	}
	if len(body.Requests) == 0 {
		writeError(w, fmt.Errorf("batch has no requests"))
		return
	}
	if len(body.Requests) > MaxBatchRequests {
		writeError(w, fmt.Errorf("batch of %d exceeds limit %d", len(body.Requests), MaxBatchRequests))
		return
	}
	reqs := make([]Request, len(body.Requests))
	errs := make([]error, len(body.Requests))
	for i := range body.Requests {
		op := body.Requests[i].Op
		if op == "" {
			op = OpMinDelay
		}
		reqs[i], errs[i] = body.Requests[i].request(op)
	}
	items := s.solver.SolveBatch(r.Context(), reqs)
	out := make([]batchItemWire, len(items))
	for i, it := range items {
		out[i] = batchItemWire{Index: i, Result: it.Result}
		if errs[i] != nil {
			out[i] = batchItemWire{Index: i, Error: errs[i].Error()}
		} else if it.Err != nil {
			out[i] = batchItemWire{Index: i, Error: it.Err.Error()}
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Results []batchItemWire `json:"results"`
	}{Results: out})
}

// uptimeMs renders the elapsed time since start in milliseconds.
func uptimeMs(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// statsResponse assembles the /v1/stats payload (shared with DebugDump).
func (s *Server) statsResponse() statsResponse {
	return statsResponse{
		Service:     "elpcd",
		UptimeMs:    uptimeMs(s.start),
		Solver:      s.solver.Stats(),
		Fleet:       s.fleetStats(),
		Churn:       s.churnStats(),
		FleetShards: s.fleetShardStats(),
		Warm:        s.fleetWarmStats(),
		Journal:     s.journal.Stats(),
		SLO:         s.sloSummary(),
	}
}

// handleStats reports solver, cache, fleet, journal, and SLO counters.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statsResponse())
}
