package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// result is everything one workload run measured.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the end-to-end metrics, measured with tracing off.
	Metrics map[string]metric `json:"metrics"`
	// Report holds per-route latencies, quality ratios and counts: printed
	// and written by -out, but not bounded.
	Report map[string]metric `json:"report"`
	// Layers are the per-layer metrics (-trace 1 only).
	Layers map[string]metric `json:"layers,omitempty"`
	Notes  []string          `json:"notes,omitempty"`
}

// replica is one independent measurement of a workload: a freshly started
// and set-up elpcd, its share of the open and closed loops, its checks and
// restarts. A run pools several replicas, because part of the run-to-run
// variation comes with the process (its heap and GC pacing, where its
// threads run) rather than with the seconds measured.
type replica struct {
	setup      float64 // seconds
	sent       []sent  // by position in the replica's slice of the stream
	openLat    []float64
	lag        []float64
	openN      int
	closedN    int
	closedTime time.Duration
	drained    bool          // the closed loop ran out of generated requests
	steal      float64       // share of the CPU time wanted during the loops that the hypervisor took
	openWall   time.Duration // the open loop's wall time
	elpcdCPU   time.Duration // elpcd's CPU time over the open loop
	selfCPU    time.Duration // the generator's CPU time over the open loop
	before     exposition    // /metrics after setup
	after      exposition    // /metrics after the closed loop
	statsBef   map[string]any
	statsAft   map[string]any
	rss        float64 // MiB
	restarts   []float64
	dials      int // connections the generator opened
	checks     int
	failed     int
	notes      []string
	fleet      *fleetView // fleet workloads: the listing after the loops
	owned      int        // fleet workloads: deployments the generator owns at the end
	compliant  int
	evaluated  int
}

// setupDaemon execs elpcd and runs the workload's setup requests.
func (cfg *config) setupDaemon(w *workload, trial int) (*daemon, *runner, error) {
	var args []string
	if w.durable {
		dir := filepath.Join(cfg.work, "data", w.name)
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		args = append(args, "-data", dir)
	}
	d, err := startDaemon(cfg.bin, filepath.Join(cfg.work, fmt.Sprintf("%s.%d.log", w.name, trial)), args...)
	if err != nil {
		return nil, nil, err
	}
	r := newRunner(w, newClient(d.addr, cfg.conns))
	if _, err := r.runSetup(cfg.conns); err != nil {
		r.c.close()
		d.kill()
		return nil, nil, err
	}
	return d, r, nil
}

// runSetup sends the workload's setup requests and returns how many it
// sent. Plan warm-ups go out over conns connections in any order (the cache
// ends up the same); the fleet install and pre-population go one at a time,
// in order, until the target is admitted.
func (r *runner) runSetup(conns int) (int, error) {
	if r.w.net == nil {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(r.w.setup); i = int(next.Add(1) - 1) {
					r.send(&r.w.setup[i], -1)
				}
			}()
		}
		wg.Wait()
		if r.failed > 0 {
			return 0, fmt.Errorf("setup failed: %v", r.notes)
		}
		return len(r.w.setup), nil
	}
	for i := range r.w.setup {
		if r.admitted >= r.w.target {
			return i, nil
		}
		if s := r.send(&r.w.setup[i], -1); s.out == outFailed {
			return 0, fmt.Errorf("setup request %d failed: %v", i, r.notes)
		}
	}
	return len(r.w.setup), nil
}

// runWorkload measures one workload: several replicas, each set up from
// scratch (timed) and given an equal share of the open and closed loops,
// then verified and restarted; then the traced replay when asked.
func runWorkload(cfg *config, spec workloadSpec) (*result, error) {
	// Each replica sends its own slice of the stream: an open loop of whole
	// blocks, then a closed loop with enough requests for spec.peak. Slices
	// start on block boundaries too. The open loops send about rate ×
	// openShare × seconds requests, and at least the samples a p95 of the
	// generator's timer lag needs.
	perBlocks := float64(cfg.replicas * spec.block)
	blocks := max(int(math.Ceil(float64(minSamples(0.95))/perBlocks)),
		int(math.Round(spec.rate*cfg.seconds*openShare/perBlocks)))
	if cfg.openN > 0 {
		blocks = int(math.Ceil(float64(cfg.openN) / perBlocks))
	}
	sl := slice{open: blocks * spec.block,
		closedFor: time.Duration(cfg.seconds * (1 - openShare) / float64(cfg.replicas) * float64(time.Second))}
	closed := int(math.Ceil(spec.peak * sl.closedFor.Seconds()))
	sl.n = sl.open + (closed+spec.block-1)/spec.block*spec.block
	w, err := buildWorkload(spec, cfg.seed, max(cfg.traceN, cfg.replicas*sl.n))
	if err != nil {
		return nil, err
	}
	var reps []*replica
	for t := 0; t < cfg.replicas; t++ {
		sl.base = t * sl.n
		rep, err := cfg.runReplica(w, t, sl)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	res := summarize(w, reps)
	if cfg.trace {
		if err := cfg.traceReplay(w, reps, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// slice is one replica's part of the stream: n requests from base, the
// first open of them in the open loop, the rest in a closed loop that lasts
// closedFor.
type slice struct {
	base, n, open int
	closedFor     time.Duration
}

// runReplica sets up a fresh elpcd, runs the loops, checks the answers and
// restarts it.
func (cfg *config) runReplica(w *workload, trial int, sl slice) (*replica, error) {
	start := time.Now()
	d, r, err := cfg.setupDaemon(w, trial)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	defer r.c.close()
	rep := &replica{setup: time.Since(start).Seconds()}
	if err := cfg.phases(w, d, r, rep, trial, sl); err != nil {
		return nil, err
	}
	if rep.rss, err = d.peakRSSMB(); err != nil {
		return nil, err
	}

	// Verification, outside every timed phase.
	if w.net != nil {
		rep.fleet, rep.checks = r.checkFleet()
		var health struct {
			SLO *struct {
				Evaluated int `json:"evaluated"`
				Compliant int `json:"compliant"`
			} `json:"slo"`
		}
		if err := r.getJSON("/v1/health", &health); err != nil || health.SLO == nil {
			r.fail("GET /v1/health: %v", err)
		} else {
			rep.compliant, rep.evaluated = health.SLO.Compliant, health.SLO.Evaluated
		}
	} else {
		rep.checks = r.checkPlans()
	}

	rep.dials = int(r.c.dials.Load())

	// recover_s: SIGTERM until /healthz answers again. A durable elpcd must
	// come back with the same fleet.
	for i := 0; i < cfg.restarts; i++ {
		r.c.close() // the connections die with the process
		took, err := d.restart()
		if err != nil {
			return nil, err
		}
		rep.restarts = append(rep.restarts, took.Seconds())
		if w.durable && rep.fleet != nil {
			rep.checks += r.checkRecovered(rep.fleet)
		}
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	rep.failed, rep.notes, rep.owned = r.failed, r.notes, len(r.live)
	return rep, nil
}

// scrape reads elpcd's /metrics exposition and /v1/stats.
func (r *runner) scrape() (exposition, map[string]any, error) {
	resp := r.c.do(http.MethodGet, "/metrics", nil)
	if resp.err != nil || resp.status != http.StatusOK {
		return nil, nil, fmt.Errorf("GET /metrics: status %d: %v", resp.status, resp.err)
	}
	var stats map[string]any
	if err := r.getJSON("/v1/stats", &stats); err != nil {
		return nil, nil, err
	}
	return parseExposition(string(resp.body)), stats, nil
}

// phases runs the replica's open loop and then its closed loop.
func (cfg *config) phases(w *workload, d *daemon, r *runner, rep *replica, trial int, sl slice) error {
	ops := w.ops[sl.base : sl.base+sl.n]
	send := func(i int) sent { return r.send(&ops[i], sl.base+i) }
	for _, o := range ops {
		if o.route == routeEvents {
			r.seq.next = o.churn // the slice's churn events run in trace order from here
			break
		}
	}
	rep.sent, rep.openN = make([]sent, sl.n), sl.open
	var err error
	if rep.before, rep.statsBef, err = r.scrape(); err != nil {
		return err
	}

	sched := subRNG(cfg.seed, w.name, fmt.Sprintf("schedule/%d", trial))
	due := make([]time.Duration, sl.open)
	t := 0.0
	for i := range due {
		t += sched.ExpFloat64() / w.rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	stat0, err := readCPUStat()
	if err != nil {
		return err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	self0, start := selfCPU(), time.Now()
	timings := openLoop(due, cfg.conns, func(i int) { rep.sent[i] = send(i) })
	rep.openWall = time.Since(start)
	rep.selfCPU = selfCPU() - self0
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	rep.elpcdCPU = cpu1 - cpu0
	for _, tm := range timings {
		rep.openLat = append(rep.openLat, ms(tm.latency()))
		rep.lag = append(rep.lag, ms(tm.lag()))
	}

	rep.closedN, rep.closedTime = closedLoop(sl.open, sl.n, cfg.conns, sl.closedFor, func(i int) { rep.sent[i] = send(i) })
	rep.drained = sl.open+rep.closedN == sl.n
	stat1, err := readCPUStat()
	if err != nil {
		return err
	}
	rep.steal = stealShare(stat0, stat1)
	rep.after, rep.statsAft, err = r.scrape()
	return err
}

// timedReplicas is how many replicas of a run the timing metrics come from.
const timedReplicas = 3

// quietest returns the n replicas whose loops lost the smallest share of
// their CPU time to the hypervisor, in run order. On a shared virtual
// machine that share reaches two fifths in spells of seconds, and a replica
// that caught one runs up to a third slower. What the hypervisor takes does
// not depend on the code under test, so leaving those replicas out of the
// timings favours neither side of a comparison.
func quietest(reps []*replica, n int) []*replica {
	order := make([]int, len(reps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reps[order[a]].steal < reps[order[b]].steal })
	order = order[:min(n, len(order))]
	sort.Ints(order)
	out := make([]*replica, len(order))
	for i, k := range order {
		out[i] = reps[k]
	}
	return out
}

// summarize pools the replicas into the end-to-end metrics and the report.
// Set-up time, memory, restarts, correctness and admission come from every
// replica; the loops' timings from the quietest ones.
func summarize(w *workload, reps []*replica) *result {
	res := &result{Workload: w.name, Metrics: map[string]metric{}, Report: map[string]metric{}}
	var setups, rss, restarts, steal []float64
	var dials int
	items, admitted, checks, compliant, evaluated := 0, 0, 0, 0, 0
	for _, rep := range reps {
		setups = append(setups, rep.setup)
		rss = append(rss, rep.rss)
		restarts = append(restarts, rep.restarts...)
		steal = append(steal, rep.steal)
		for _, s := range rep.sent[:rep.openN] {
			items += s.items
			admitted += s.admitted
		}
		if rep.drained {
			res.Notes = append(res.Notes, "the closed loop sent every generated request before its time was up")
		}
		res.Attempted += rep.openN + rep.closedN
		res.Failed += rep.failed
		res.Notes = append(res.Notes, rep.notes...)
		checks += rep.checks
		compliant += rep.compliant
		evaluated += rep.evaluated
		dials = max(dials, rep.dials)
	}
	res.Correct = res.Failed == 0

	timed := quietest(reps, timedReplicas)
	var openLat, lag, timedSteal []float64
	var closedN, closedOK int
	var closedTime, cpu time.Duration
	byRoute := map[string][]float64{}
	for _, rep := range timed {
		openLat = append(openLat, rep.openLat...)
		lag = append(lag, rep.lag...)
		timedSteal = append(timedSteal, rep.steal)
		cpu += rep.elpcdCPU
		closedTime += rep.closedTime
		closedN += rep.closedN
		for _, s := range rep.sent[rep.openN : rep.openN+rep.closedN] {
			if s.out != outFailed {
				closedOK++
			}
		}
		for i, s := range rep.sent[:rep.openN] {
			byRoute[s.route] = append(byRoute[s.route], rep.openLat[i])
		}
	}

	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["throughput_rps"] = metric{float64(closedOK) / closedTime.Seconds(), "req/s"}
	res.Metrics["cpu_ms_per_request"] = metric{ms(cpu) / float64(len(openLat)), "ms"}
	res.Metrics["rss_peak_mb"] = metric{median(rss), "MB"}
	// Open-loop latency and restart time move by a quarter and more from
	// run to run on a machine whose hypervisor takes CPU time in spells: a
	// request or a restart that runs into one waits for all of it. That is
	// more than any bound allows, so they are reported rather than bounded.
	percentiles(res.Report, "latency", openLat, 0.5, 0.95, 0.99)
	if len(restarts) > 0 {
		res.Report["recover_s"] = metric{median(restarts), "s"}
	}
	for route, xs := range byRoute {
		res.Report[route+".count"] = metric{float64(len(xs)), "count"}
		percentiles(res.Report, route, xs, 0.5, 0.95, 0.99)
	}
	percentiles(res.Report, "loadgen.lag", lag, 0.5, 0.95, 0.99)
	if items > 0 {
		res.Report["admit_ratio"] = metric{ratio(float64(admitted), float64(items)), "ratio"}
	}
	if evaluated > 0 {
		res.Report["slo_compliance"] = metric{ratio(float64(compliant), float64(evaluated)), "ratio"}
	}
	res.Report["error_ratio"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
	res.Report["checks"] = metric{float64(checks), "count"}
	res.Report["open.rate"] = metric{w.rate, "req/s"}
	res.Report["open.requests"] = metric{float64(len(openLat)), "count"}
	res.Report["closed.requests"] = metric{float64(closedN), "count"}
	res.Report["replicas"] = metric{float64(len(reps)), "count"}
	res.Report["replicas.timed"] = metric{float64(len(timed)), "count"}
	res.Report["machine.steal_share"] = metric{mean(steal), "ratio"}
	res.Report["machine.steal_share_timed"] = metric{mean(timedSteal), "ratio"}
	res.Report["loadgen.connections"] = metric{float64(dials), "count"}
	if w.net != nil {
		last := reps[len(reps)-1]
		if last.fleet != nil {
			res.Report["fleet.deployments_at_end"] = metric{float64(len(last.fleet.deployments)), "count"}
			res.Report["fleet.parked_at_end"] = metric{float64(len(last.fleet.parked)), "count"}
		}
		res.Report["fleet.owned_at_end"] = metric{float64(last.owned), "count"}
	}
	return res
}

// percentiles records name_pNN_ms of xs for each quantile in qs that has
// ten samples beyond it.
func percentiles(out map[string]metric, name string, xs []float64, qs ...float64) {
	for _, q := range qs {
		if v, err := percentile(xs, q); err == nil {
			out[fmt.Sprintf("%s_p%d_ms", name, int(math.Round(100*q)))] = metric{v, "ms"}
		}
	}
}

// replicas pools counter deltas over the replicas of one run.
type replicas []*replica

// delta is the summed growth of a /metrics family (or, with a label set,
// one series) over the replicas' loops.
func (rs replicas) delta(name string) float64 {
	total := 0.0
	for _, r := range rs {
		total += delta(r.before, r.after, name)
	}
	return total
}

// stat is the summed growth of one /v1/stats counter.
func (rs replicas) stat(path ...string) float64 {
	total := 0.0
	for _, r := range rs {
		total += statNum(r.statsAft, path...) - statNum(r.statsBef, path...)
	}
	return total
}

// meanMS is the mean observation of a histogram family over the loops, in
// milliseconds.
func (rs replicas) meanMS(family string) float64 {
	return 1000 * ratio(rs.delta(family+"_sum"), rs.delta(family+"_count"))
}

// layerCounts fills the per-layer metrics elpcd's own counters give over
// the untraced loops, and the generator's view of its own load.
func layerCounts(rs replicas, out map[string]metric) {
	var reqs, items float64
	var lag []float64
	var elpcdCPU, selfCPU, openWall time.Duration
	for _, r := range rs {
		reqs += float64(r.openN + r.closedN)
		for _, s := range r.sent[:r.openN+r.closedN] {
			items += float64(s.items)
		}
		lag = append(lag, r.lag...)
		elpcdCPU += r.elpcdCPU
		selfCPU += r.selfCPU
		openWall += r.openWall
	}
	hits, misses := rs.delta("elpc_cache_hits_total"), rs.delta("elpc_cache_misses_total")
	out["service.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	out["service.cold_solves_per_request"] = metric{rs.delta("elpc_solver_cold_solves_total") / reqs, "count"}
	out["service.pool_wait_ms"] = metric{rs.meanMS("elpc_solver_pool_wait_seconds"), "ms"}
	out["fleet.lock_wait_ms"] = metric{rs.meanMS("elpc_fleet_lock_wait_seconds"), "ms"}

	warm := rs.delta("elpc_solve_warm_total")
	reused := rs.delta(`elpc_solve_warm_total{outcome="hit"}`) + rs.delta(`elpc_solve_warm_total{outcome="partial"}`)
	out["core.warm_hit_ratio"] = metric{ratio(reused, warm), "ratio"}
	out["core.cells_recomputed_per_solve"] = metric{ratio(rs.delta("elpc_solve_warm_cells_recomputed_total"), warm), "count"}

	out["fleet.preemptions_per_deploy"] = metric{ratio(rs.delta("elpc_admission_preempted_total"), items), "count"}
	events := rs.stat("churn", "events_applied")
	out["churn.affected_per_event"] = metric{ratio(rs.stat("churn", "affected"), events), "count"}
	out["churn.displaced_per_event"] = metric{ratio(rs.stat("churn", "displaced"), events), "count"}
	out["journal.events_per_request"] = metric{rs.delta("elpc_journal_events_total") / reqs, "count"}
	appends := rs.delta("elpc_wal_appends_total")
	out["wal.appends_per_request"] = metric{appends / reqs, "count"}
	out["wal.fsyncs_per_append"] = metric{ratio(rs.delta("elpc_wal_fsyncs_total"), appends), "count"}

	out["elpcd.cpu_util"] = metric{ratio(elpcdCPU.Seconds(), openWall.Seconds()), "cores"}
	out["loadgen.cpu_share"] = metric{ratio(selfCPU.Seconds(), (selfCPU + elpcdCPU).Seconds()), "ratio"}
	// p95, not p99: a run's open loop holds a few hundred requests, fewer
	// than the thousand a p99 needs.
	if v, err := percentile(lag, 0.95); err == nil {
		out["loadgen.lag_p95_ms"] = metric{v, "ms"}
	}
}

// statNum digs a number out of a decoded /v1/stats document.
func statNum(stats map[string]any, path ...string) float64 {
	var cur any = stats
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[p]
	}
	v, _ := cur.(float64)
	return v
}
