package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"elpc/internal/churn"
	"elpc/internal/engine"
	"elpc/internal/fleet"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/service"
	"elpc/internal/service/wire"
	"elpc/internal/wal"
)

// The traced replay splits request time by layer from outside the program.
// The first T requests of the open-loop stream are sent one at a time to two
// in-process service.Servers configured as elpcd is: one plain, one whose
// handler is wrapped in a timer. After each request, the same request is fed
// to shadow stacks built from each layer's public constructors
// (service.NewSolver, fleet.New/NewSharded, churn.New), timing each public
// call, and every shadow span is attributed to the handler span of the
// request it replays. Doing all three back to back, request by request,
// keeps them in the same stretch of machine time, so the handler and the
// shadow calls that split it are measured under the same conditions. The
// plain server gives the tracing overhead; the two servers take turns going
// first.

// span is one timed call. Start and End are offsets in microseconds from
// the start of the replay; Parent is the ID of the span that caused the
// call, -1 for a request's root. Spans of one request share Req.
type span struct {
	Req    int     `json:"req"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; IDs are indices into spans.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(req, parent int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name,
		Start: float64(start.Sub(t.t0)) / 1e3, End: float64(end.Sub(t.t0)) / 1e3})
	return id
}

// time runs fn inside a span and returns the span's ID.
func (t *tracer) time(req, parent int, name string, fn func()) int {
	start := time.Now()
	fn()
	return t.add(req, parent, name, start, time.Now())
}

// layerTime is one layer's time summed over the replay, in microseconds.
type layerTime struct {
	calls   int
	dur     float64 // the layer's spans
	covered float64 // the child spans they cover
}

// self is the layer's self time: its time minus the part its child spans
// cover, never below zero. The children of one span are sequential calls,
// so together they cover the sum of their durations. The subtraction is
// made over the sums rather than per span: a shadow call and the handler
// span it splits are separate timings whose noise has no sign, and clamping
// each request's difference at zero would count that noise as time.
func (l layerTime) self() float64 { return max(0, l.dur-l.covered) }

// layerTimes sums the spans by layer and returns the summed duration of the
// roots.
func layerTimes(spans []span) (map[string]*layerTime, float64) {
	layers := map[string]*layerTime{}
	at := func(name string) *layerTime {
		if layers[name] == nil {
			layers[name] = &layerTime{}
		}
		return layers[name]
	}
	var roots float64
	for _, s := range spans {
		l := at(s.Name)
		l.calls++
		l.dur += s.dur()
		if s.Parent < 0 {
			roots += s.dur()
		} else {
			at(spans[s.Parent].Name).covered += s.dur()
		}
	}
	return layers, roots
}

// coverage is the summed self time of every layer over the summed duration
// of the roots: 1 when the layers account for exactly the traced time, above
// 1 when shadow calls take longer than the layer they are attributed to.
func coverage(layers map[string]*layerTime, roots float64) float64 {
	total := 0.0
	for _, l := range layers {
		total += l.self()
	}
	return ratio(total, roots)
}

// selfName names a span's self time in the per-layer metrics.
var selfName = map[string]string{
	"client.roundtrip": "net.roundtrip_self",
	"service.handler":  "service.http_self",
	"service.solve":    "service.solver_self",
}

// perItem names layers whose time is reported per deploy rather than per
// call: every deploy-batch request carries batchSize deploys.
var perItem = map[string]string{"fleet.batch": "fleet.batch_item"}

// traceLayers are the span names every workload reports, in report order.
// A layer a workload does not reach reports 0.
var traceLayers = []string{
	"client.roundtrip", "service.handler", "model.decode",
	"service.solve", "service.hash", "core.solve", "engine.front",
	"fleet.deploy", "fleet.batch", "fleet.release", "fleet.read", "fleet.slo_report",
	"churn.apply",
}

// handlerTimer times each call of the wrapped handler. The replay is
// sequential, so after a response arrives the fields hold that request's
// handler interval.
type handlerTimer struct {
	next       http.Handler
	mu         sync.Mutex
	start, end time.Time
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.mu.Lock()
	h.start, h.end = start, end
	h.mu.Unlock()
}

func (h *handlerTimer) last() (time.Time, time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.start, h.end
}

// replayServer is an in-process service.Server configured as elpcd is,
// serving loopback, with a one-connection runner that has sent the
// workload's setup.
type replayServer struct {
	s      *service.Server
	srv    *http.Server
	done   chan struct{}
	r      *runner
	setupN int // setup requests sent
}

func startReplayServer(w *workload, dataDir string, timer *handlerTimer) (*replayServer, error) {
	opt := service.Options{}
	if w.durable {
		opt.DataDir = dataDir
	}
	s, err := service.NewDurableServer(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	h := s.Handler()
	if timer != nil {
		timer.next = h
		h = timer
	}
	p := &replayServer{s: s, srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		_ = p.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	p.r = newRunner(w, newClient(ln.Addr().String(), 1))
	if p.setupN, err = p.r.runSetup(1); err != nil {
		p.close()
		return nil, fmt.Errorf("replay %w", err)
	}
	return p, nil
}

func (p *replayServer) close() {
	p.r.c.close()
	_ = p.srv.Close() // no request is in flight: the replay is sequential
	<-p.done
	p.s.Close()
}

// shadow replays requests on stacks built from the layers' public
// constructors, timing each call.
type shadow interface {
	// replay performs request i, as the traced server received it, and
	// records its calls under the handler span parent.
	replay(tr *tracer, i int, q request, parent int) error
	close()
}

// traceReplay runs the traced replay, writes its spans to
// <traceDir>/<workload>.trace.json and fills res.Layers.
func (cfg *config) traceReplay(w *workload, reps []*replica, res *result) error {
	// The in-process servers log recoveries and snapshots; the report is
	// the benchmark's output.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	T := min(cfg.traceN, len(w.ops))
	dir := filepath.Join(cfg.work, "replay", w.name)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	plain, err := startReplayServer(w, filepath.Join(dir, "untraced"), nil)
	if err != nil {
		return err
	}
	defer plain.close()
	timer := &handlerTimer{}
	traced, err := startReplayServer(w, filepath.Join(dir, "traced"), timer)
	if err != nil {
		return err
	}
	defer traced.close()
	var sh shadow
	var fleetSh *fleetShadows
	if w.net != nil {
		fleetSh, err = newFleetShadows(w, traced.setupN, dir)
		sh = fleetSh
	} else {
		sh, err = newPlanShadow(w, traced.setupN)
	}
	if err != nil {
		return err
	}
	defer sh.close()

	tr := &tracer{t0: time.Now()}
	slowdown := make([]float64, T) // traced roundtrip over plain roundtrip, per request
	for i := 0; i < T; i++ {
		var q request
		var handler int
		var plainRTT time.Duration
		for turn := 0; turn < 2; turn++ {
			start := time.Now()
			if (turn+i)%2 == 0 {
				plain.r.exchange(&w.ops[i], i)
				plainRTT = time.Since(start)
				continue
			}
			_, q = traced.r.exchange(&w.ops[i], i)
			end := time.Now()
			slowdown[i] = float64(end.Sub(start))
			root := tr.add(i, -1, "client.roundtrip", start, end)
			hs, he := timer.last()
			handler = tr.add(i, root, "service.handler", hs, he)
		}
		slowdown[i] /= float64(plainRTT)
		if err := sh.replay(tr, i, q, handler); err != nil {
			return err
		}
	}
	for _, p := range []*replayServer{plain, traced} {
		res.Failed += p.r.failed
		res.Notes = append(res.Notes, p.r.notes...)
	}
	res.Correct = res.Failed == 0

	res.Layers = map[string]metric{}
	layerShares(tr.spans, res.Layers)
	var costs fleetCosts
	if fleetSh != nil {
		costs = fleetSh.costs
	}
	res.Layers["journal.tax_ms"] = metric{ratio(costs.journalTax, float64(costs.mutations)) / 1e3, "ms"}
	res.Layers["wal.tax_ms"] = metric{ratio(costs.walTax, float64(costs.mutations)) / 1e3, "ms"}
	res.Layers["fleet.solves_per_deploy"] = metric{ratio(float64(costs.deploySolves), float64(costs.deployItems)), "count"}
	// The median, because a GC pause that lands in one of a pair of
	// roundtrips moves a sum far more than the timing code does.
	res.Layers["trace.overhead_pct"] = metric{100 * (median(slowdown) - 1), "%"}
	res.Layers["trace.requests"] = metric{float64(T), "count"}
	layerCounts(reps, res.Layers)

	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Requests int    `json:"requests"`
		Spans    []span `json:"spans"`
	}{w.name, cfg.seed, T, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.traceDir, w.name+".trace.json"), b, 0o644)
}

// layerShares folds the spans into per-layer metrics: for every layer its
// mean time per call (per deploy for deploy-batches), its self time as a
// share of the traced roundtrip time, and the coverage of the split.
func layerShares(spans []span, out map[string]metric) {
	layers, roots := layerTimes(spans)
	perCall := func(total float64, n int) metric { return metric{ratio(total, float64(n)) / 1e3, "ms"} }
	for _, name := range traceLayers {
		l := layers[name]
		if l == nil {
			l = &layerTime{}
		}
		if item, ok := perItem[name]; ok {
			out[item+"_ms"] = perCall(l.dur, l.calls*batchSize)
		} else {
			out[name+"_ms"] = perCall(l.dur, l.calls)
		}
		label := name
		if s, ok := selfName[name]; ok {
			label = s
			out[label+"_ms"] = perCall(l.self(), l.calls)
		}
		out[label+"_share"] = metric{ratio(l.self(), roots), "ratio"}
	}
	out["trace.coverage"] = metric{coverage(layers, roots), "ratio"}
}

// planWire mirrors the planning endpoints' request body.
type planWire struct {
	Network  *model.Network  `json:"network"`
	Pipeline *model.Pipeline `json:"pipeline"`
	Src      model.NodeID    `json:"src"`
	Dst      model.NodeID    `json:"dst"`
	Budget   float64         `json:"delay_budget_ms"`
	Points   int             `json:"points"`
}

func (p *planWire) request(op string) service.Request {
	return service.Request{
		Op: service.Op(op),
		Problem: &model.Problem{Net: p.Network, Pipe: p.Pipeline, Src: p.Src, Dst: p.Dst,
			Cost: model.DefaultCostOptions()},
		DelayBudgetMs: p.Budget,
		Points:        p.Points,
	}
}

// planShadow is a service.Solver configured as elpcd's, given the same
// setup solves.
type planShadow struct {
	solver *service.Solver
}

func newPlanShadow(w *workload, setupN int) (*planShadow, error) {
	sh := &planShadow{solver: service.NewSolver(service.Options{})}
	for _, o := range w.setup[:setupN] {
		var pw planWire
		if err := json.Unmarshal(bytes.Join(o.body, nil), &pw); err != nil {
			sh.close()
			return nil, err
		}
		_, _ = sh.solver.Solve(context.Background(), pw.request(w.plans[o.plan].op)) // refusals are answers too
	}
	return sh, nil
}

func (sh *planShadow) close() { sh.solver.Close() }

// replay times decode, the solve, the canonical hash and, on a cache miss,
// the core or engine solve the miss ran.
func (sh *planShadow) replay(tr *tracer, i int, q request, parent int) error {
	body := bytes.Join(q.body, nil)
	var pw planWire
	var err error
	tr.time(i, parent, "model.decode", func() { err = json.Unmarshal(body, &pw) })
	if err != nil {
		return err
	}
	op := strings.TrimPrefix(q.path, "/v1/")
	req := pw.request(op)
	var res *service.Result
	var solveErr error
	solve := tr.time(i, parent, "service.solve", func() { res, solveErr = sh.solver.Solve(context.Background(), req) })
	tr.time(i, solve, "service.hash", func() { _, _ = service.Hash(req.Problem) })
	if solveErr != nil && !errors.Is(solveErr, model.ErrInfeasible) {
		return solveErr
	}
	if solveErr == nil && res.Cached {
		return nil
	}
	name := "core.solve"
	if op == "front" {
		name = "engine.front"
	}
	tr.time(i, solve, name, func() { _, _ = referenceSolve(req.Problem, op, pw.Budget, pw.Points, sh.solver.Pool()) })
	return nil
}

// fleetShadow is one fleet stack built from the public constructors.
type fleetShadow struct {
	f    fleet.Manager
	rec  *churn.Reconciler
	pool *engine.Pool
	log  *wal.Log
}

// newFleetShadow builds a manager from the install request body as elpcd's
// install does, with the journal and the write-ahead log (in walDir; "" =
// none) attached or not.
func newFleetShadow(install []byte, journaled bool, walDir string) (*fleetShadow, error) {
	var in wire.FleetNetwork
	if err := json.Unmarshal(install, &in); err != nil {
		return nil, err
	}
	var f fleet.Manager
	var err error
	if in.Shards > 1 {
		f, err = fleet.NewSharded(in.Network, in.Shards)
	} else {
		f, err = fleet.New(in.Network)
	}
	if err != nil {
		return nil, err
	}
	sh := &fleetShadow{f: f, pool: engine.NewPool(0)}
	f.UsePool(sh.pool)
	opt := churn.Options{Workers: sh.pool.Workers()}
	if journaled {
		opt.Journal = journal.New(0)
		f.UseJournal(opt.Journal)
	}
	sh.rec = churn.New(f, opt)
	if walDir != "" {
		if sh.log, _, err = wal.Open(walDir, wal.Options{}); err != nil {
			sh.pool.Close()
			return nil, err
		}
		if err := fleet.AppendInstall(sh.log, in.Network, in.Shards); err != nil {
			sh.close()
			return nil, err
		}
		f.UseWAL(sh.log)
		sh.rec.UseWAL(sh.log)
	}
	return sh, nil
}

func (sh *fleetShadow) close() {
	sh.pool.Close()
	if sh.log != nil {
		_ = sh.log.Close() // scratch log
	}
}

// fleetRequest converts a deploy body as elpcd's handler does.
func fleetRequest(q wire.FleetDeploy) fleet.Request {
	obj := model.MinDelay
	if q.Op == "maxframerate" {
		obj = model.MaxFrameRate
	}
	return fleet.Request{Tenant: q.Tenant, Pipeline: q.Pipeline, Src: q.Src, Dst: q.Dst, Objective: obj,
		SLO: fleet.SLO{MaxDelayMs: q.MaxDelayMs, MinRateFPS: q.MinRateFPS, Class: fleet.Class(q.Class)}}
}

// mutation is one decoded mutating fleet request.
type mutation struct {
	route   string
	deploy  wire.FleetDeploy
	batch   wire.DeployBatch
	release wire.FleetRelease
	events  wire.Events
}

// mutationSpan names the span of each mutating route.
var mutationSpan = map[string]string{
	routeDeploy: "fleet.deploy", routeBatch: "fleet.batch", routeRelease: "fleet.release", routeEvents: "churn.apply",
}

func decodeMutation(route string, body []byte) (*mutation, error) {
	m := &mutation{route: route}
	var v any
	switch route {
	case routeDeploy:
		v = &m.deploy
	case routeBatch:
		v = &m.batch
	case routeRelease:
		v = &m.release
	default:
		v = &m.events
	}
	return m, json.Unmarshal(body, v)
}

// apply performs one mutating request on the shadow, as the handler does
// before its SLO evaluation, and returns the deploy items it attempted.
func (sh *fleetShadow) apply(m *mutation) int {
	switch m.route {
	case routeDeploy:
		_, _ = sh.f.Deploy(fleetRequest(m.deploy)) // rejections are outcomes
		sh.rec.AdoptPreempted()
		return 1
	case routeBatch:
		reqs := make([]fleet.Request, len(m.batch.Requests))
		for i, d := range m.batch.Requests {
			reqs[i] = fleetRequest(d)
		}
		sh.f.DeployBatch(reqs)
		sh.rec.AdoptPreempted()
		return len(reqs)
	case routeRelease:
		_ = sh.f.Release(m.release.ID) // parked targets are refused here as they are by elpcd
	case routeEvents:
		_, _ = sh.rec.Apply(m.events.Events) // the trace is conflict-free
	}
	return 0
}

// fleetCosts is what the untraced shadow stacks measured.
type fleetCosts struct {
	journalTax, walTax float64 // µs summed over the mutating requests
	mutations          int
	deployItems        int
	deploySolves       uint64
}

// fleetShadows are up to three stacks fed the same requests: full, as elpcd
// runs them (journal, plus the WAL when durable), journaled (the journal
// only) and bare (neither). full is traced; the differences give the
// journal and WAL taxes per mutating request.
type fleetShadows struct {
	full, journaled, bare *fleetShadow
	costs                 fleetCosts
}

func newFleetShadows(w *workload, setupN int, dir string) (*fleetShadows, error) {
	s := &fleetShadows{}
	install := bytes.Join(w.setup[0].body, nil)
	var err error
	if !w.durable {
		s.full, err = newFleetShadow(install, true, "")
		s.journaled = s.full
	} else if s.full, err = newFleetShadow(install, true, filepath.Join(dir, "shadow-wal")); err == nil {
		s.journaled, err = newFleetShadow(install, true, "")
	}
	if err == nil {
		s.bare, err = newFleetShadow(install, false, "")
	}
	if err != nil {
		s.close()
		return nil, err
	}
	for _, o := range w.setup[1:setupN] { // [0] is the install
		m, err := decodeMutation(o.route, bytes.Join(o.body, nil))
		if err != nil {
			s.close()
			return nil, err
		}
		for _, sh := range s.stacks() {
			sh.apply(m)
		}
	}
	return s, nil
}

// stacks lists the distinct stacks.
func (s *fleetShadows) stacks() []*fleetShadow {
	var out []*fleetShadow
	for _, sh := range []*fleetShadow{s.full, s.journaled, s.bare} {
		if sh != nil && (len(out) == 0 || out[len(out)-1] != sh) {
			out = append(out, sh)
		}
	}
	return out
}

func (s *fleetShadows) close() {
	for _, sh := range s.stacks() {
		sh.close()
	}
}

// replay times the fleet and churn calls the handler of q makes, with the
// SLO re-evaluation every mutating handler and GET /v1/health run.
func (s *fleetShadows) replay(tr *tracer, i int, q request, parent int) error {
	full := s.full
	if name, ok := mutationSpan[q.route]; ok {
		var m *mutation
		var err error
		body := bytes.Join(q.body, nil)
		tr.time(i, parent, "model.decode", func() { m, err = decodeMutation(q.route, body) })
		if err != nil {
			return err
		}
		solves := full.f.SolveCount()
		var items int
		tFull := tr.spans[tr.time(i, parent, name, func() { items = full.apply(m) })].dur()
		s.costs.deployItems += items
		s.costs.deploySolves += full.f.SolveCount() - solves
		tr.time(i, parent, "fleet.slo_report", func() { full.f.SLOReport() })
		tJournal := tFull
		if s.journaled != full {
			tJournal = timeUS(func() { s.journaled.apply(m) })
		}
		tBare := timeUS(func() { s.bare.apply(m) })
		s.costs.journalTax += tJournal - tBare
		s.costs.walTax += tFull - tJournal
		s.costs.mutations++
		return nil
	}
	switch {
	case q.path == "/v1/health":
		tr.time(i, parent, "fleet.slo_report", func() { full.f.SLOReport() })
		tr.time(i, parent, "fleet.read", func() { full.rec.Stats() })
	case q.path == "/v1/stats":
		tr.time(i, parent, "fleet.read", func() {
			full.f.Stats()
			full.f.WarmSolveStats()
			full.rec.Stats()
		})
	default: // GET /v1/fleet/{id}
		id := strings.TrimPrefix(q.path, "/v1/fleet/")
		tr.time(i, parent, "fleet.read", func() { full.f.Describe(id) })
	}
	return nil
}

// timeUS runs fn and returns its duration in microseconds.
func timeUS(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / 1e3
}
