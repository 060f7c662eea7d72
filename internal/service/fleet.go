package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"elpc/internal/churn"
	"elpc/internal/engine"
	"elpc/internal/fleet"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/service/wire"
	"elpc/internal/wal"
)

// errFleetNotConfigured is returned by fleet endpoints before a shared
// network has been installed via POST /v1/fleet/network.
var errFleetNotConfigured = errors.New("fleet network not configured (POST /v1/fleet/network first)")

// fleetState guards the server's fleet manager (one shard unless the
// install asked for more). The manager itself is concurrency-safe, but
// installing/replacing the shared network must be atomic with respect to
// whole operations, not just pointer lookups: every handler runs under the
// read lock for its full duration, so a network swap can never orphan an
// in-flight deploy or release onto a discarded fleet.
type fleetState struct {
	mu sync.RWMutex
	// op serializes the solve-bearing operations (deploy, rebalance, churn
	// event application) with each other *before* they claim a worker-pool
	// slot. One-shard admission is serialized internally anyway, so without
	// this, concurrent fleet requests would each occupy a slot only to queue
	// on the shard mutex, starving the planning endpoints of pool capacity.
	// A multi-shard fleet skips this serialization: deployments in different
	// regions hold different locks, so letting them claim slots concurrently
	// is the whole point of sharding.
	op sync.Mutex
	f  fleet.Manager
	// rec reconciles churn events against f; its background requeue loop
	// runs from install until close (or the next install). Always non-nil
	// when f is.
	rec *churn.Reconciler
	// wal, when non-nil, is threaded onto every installed manager and
	// reconciler so their transitions are durably logged (set once by
	// NewDurableServer, before any traffic).
	wal *wal.Log
}

// withFleet runs fn on the current fleet under the read lock (or returns
// the not-configured error).
func (s *fleetState) withFleet(fn func(fleet.Manager) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.f == nil {
		return errFleetNotConfigured
	}
	return fn(s.f)
}

// withSolve is withFleet plus the solve-op serialization (skipped for
// multi-shard fleets, whose per-region locks make concurrent solve-bearing
// requests productive rather than queued).
func (s *fleetState) withSolve(fn func(fleet.Manager) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.f == nil {
		return errFleetNotConfigured
	}
	if s.f.Shards() == 1 {
		s.op.Lock()
		defer s.op.Unlock()
	}
	return fn(s.f)
}

// install replaces the shared network, one shard for shards <= 1 and
// region-partitioned otherwise. Replacing is refused while deployments are
// outstanding — their reservations reference the old topology. The write
// lock waits out every in-flight fleet operation. The fleet shares the
// solver's engine pool so parallel rebalance passes, churn repairs, and
// planning requests draw from one concurrency budget; the old
// reconciliation loop is stopped before the new one starts.
func (s *fleetState) install(net *model.Network, shards int, pool *engine.Pool, jr *journal.Journal) error {
	f, err := fleet.NewSharded(net, shards)
	if err != nil {
		return err
	}
	f.UsePool(pool)
	f.UseJournal(jr)
	rec := churn.New(f, churn.Options{Workers: pool.Workers(), Journal: jr})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if st := s.f.Stats(); st.Deployments > 0 {
			return fmt.Errorf("fleet network already installed with %d outstanding deployments; release them first", st.Deployments)
		}
	}
	if s.rec != nil {
		s.rec.Stop()
	}
	lsn := jr.Append(fleet.InstallRecord(net, shards), s.wal)
	if s.wal != nil {
		// Durably log the install before the manager can take traffic, so
		// replay always rebuilds the manager before its mutation records.
		if err := s.wal.Commit(lsn); err != nil {
			return err
		}
		f.UseWAL(s.wal)
		rec.UseWAL(s.wal)
	}
	s.f = f
	s.rec = rec
	rec.Start()
	return nil
}

// close stops the reconciliation loop (if any). The fleet remains usable —
// only the background requeue goroutine exits — so close is safe at any
// point during shutdown.
func (s *fleetState) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rec != nil {
		s.rec.Stop()
	}
}

// objectiveByOp maps the wire op strings onto placement objectives.
func objectiveByOp(op Op) (model.Objective, error) {
	switch op {
	case "", OpMinDelay:
		return model.MinDelay, nil
	case OpMaxFrameRate:
		return model.MaxFrameRate, nil
	default:
		return 0, fmt.Errorf("fleet: objective must be %q or %q, got %q", OpMinDelay, OpMaxFrameRate, op)
	}
}

// opByObjective renders a placement objective as its wire op string.
func opByObjective(obj model.Objective) Op {
	if obj == model.MaxFrameRate {
		return OpMaxFrameRate
	}
	return OpMinDelay
}

// toDeploymentWire renders one deployment in the wire shape.
func toDeploymentWire(d fleet.Deployment) wire.Deployment {
	return wire.Deployment{
		ID:          d.ID,
		Tenant:      d.Tenant,
		Op:          string(opByObjective(d.Objective)),
		Assignment:  d.Assignment,
		Mapping:     d.Mapping,
		DelayMs:     d.DelayMs,
		RateFPS:     d.RateFPS,
		ReservedFPS: d.ReservedFPS,
		SLO:         d.SLO,
		Seq:         d.Seq,
	}
}

// fleetRequest converts a wire deploy body (or one deploy-batch element)
// into the fleet's request form.
func fleetRequest(q wire.FleetDeploy, obj model.Objective) fleet.Request {
	return fleet.Request{
		Tenant:    q.Tenant,
		Pipeline:  q.Pipeline,
		Src:       q.Src,
		Dst:       q.Dst,
		Objective: obj,
		SLO: fleet.SLO{
			MaxDelayMs: q.MaxDelayMs,
			MinRateFPS: q.MinRateFPS,
			Class:      fleet.Class(q.Class),
		},
	}
}

// enterIntake admits n admission-path requests into the bounded intake
// queue ahead of the fleet lock. Guaranteed and standard traffic always
// enters; best-effort traffic is shed when the queue is over its bound
// (always, when the bound is negative — the brownout drill mode). The
// depth check is a read-then-add heuristic, not a reservation: two racing
// requests may both slip under the bound, which is fine — the bound
// protects the fleet lock from pile-up, it is not a hard quota.
func (s *Server) enterIntake(n int, class fleet.Class) (release func(), ok bool) {
	if class.Canon() == fleet.ClassBestEffort {
		bound := s.solver.opt.IntakeBound
		if bound < 0 || int(s.intakeDepth.Load())+n > bound {
			return nil, false
		}
	}
	s.intakeDepth.Add(int64(n))
	admissionQueuedTotal.Add(uint64(n))
	return func() { s.intakeDepth.Add(-int64(n)) }, true
}

// shed counts and journals one best-effort request turned away at intake.
// The fleet never saw it, so its record goes to the journal only.
func (s *Server) shed(tenant string) {
	admissionShedTotal.Inc()
	s.journal.Append(&wal.Record{Ops: []wal.Op{{
		Kind:   wal.AdmissionShed,
		Tenant: tenant,
		Detail: fmt.Sprintf("best-effort request shed at intake (bound %d)", s.solver.opt.IntakeBound),
	}}}, nil)
}

// drainPreempted hands deployments displaced by guaranteed admissions to
// the reconciler's background requeue loop, where they follow the same
// parked lifecycle as churn casualties: visible in GET /v1/events/log and
// re-admitted automatically once capacity returns.
func (s *Server) drainPreempted() {
	_ = s.fleet.withFleet(func(fleet.Manager) error {
		s.fleet.rec.AdoptPreempted()
		return nil
	})
}

// handleFleetNetwork installs the shared fleet network.
func (s *Server) handleFleetNetwork(w http.ResponseWriter, r *http.Request) {
	var body wire.FleetNetwork
	if err := decode(w, r, &body); err != nil {
		writeError(w, err)
		return
	}
	if body.Network == nil {
		writeError(w, fmt.Errorf("request missing network"))
		return
	}
	if body.Shards < 0 {
		writeError(w, fmt.Errorf("shards must be non-negative, got %d", body.Shards))
		return
	}
	if err := s.fleet.install(body.Network, body.Shards, s.solver.Pool(), s.journal); err != nil {
		writeError(w, err)
		return
	}
	shards := body.Shards
	if shards < 1 {
		shards = 1
	}
	writeJSON(w, http.StatusOK, struct {
		Nodes  int `json:"nodes"`
		Links  int `json:"links"`
		Shards int `json:"shards"`
	}{Nodes: body.Network.N(), Links: body.Network.M(), Shards: shards})
}

// handleFleetDeploy admits one pipeline onto the shared network. The solve
// runs behind the solver's worker pool, so fleet placements and one-shot
// planning requests share the same concurrency budget. The request first
// passes the intake queue: best-effort traffic over the bound is shed with
// 429 + Retry-After before it can queue on the fleet lock.
func (s *Server) handleFleetDeploy(w http.ResponseWriter, r *http.Request) {
	var body wire.FleetDeploy
	if err := decode(w, r, &body); err != nil {
		writeError(w, err)
		return
	}
	obj, err := objectiveByOp(Op(body.Op))
	if err != nil {
		writeError(w, err)
		return
	}
	release, ok := s.enterIntake(1, fleet.Class(body.Class))
	if !ok {
		s.shed(body.Tenant)
		writeError(w, fmt.Errorf("service: %w", errShed))
		return
	}
	defer release()
	var d fleet.Deployment
	err = s.fleet.withSolve(func(f fleet.Manager) error {
		release, err := s.solver.acquireSlot(r.Context())
		if err != nil {
			return fmt.Errorf("service: waiting for worker: %w", err)
		}
		defer release()
		d, err = f.Deploy(fleetRequest(body, obj))
		return err
	})
	if err != nil {
		writeError(w, err)
		return
	}
	// A guaranteed deploy may have displaced best-effort tenants: park them
	// for requeue before reporting success.
	s.drainPreempted()
	s.evaluateSLO()
	writeJSON(w, http.StatusOK, toDeploymentWire(d))
}

// handleFleetDeployBatch admits a burst of deploys in one fleet pass:
// POST /v1/fleet/deploy-batch. The whole batch is placed under one lock
// epoch in class/scarcity priority order (the fleet sorts; responses stay
// in request order), so a burst admits strictly more than the same arrivals
// trickled through /v1/fleet/deploy one at a time. Per-item failures are
// reported in the 200 response with the envelope's Error shape; best-effort
// items over the intake bound are shed per-item rather than failing the
// batch.
func (s *Server) handleFleetDeployBatch(w http.ResponseWriter, r *http.Request) {
	var body wire.DeployBatch
	if err := decode(w, r, &body); err != nil {
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

	items := make([]wire.DeployBatchItem, len(body.Requests))
	reqs := make([]fleet.Request, 0, len(body.Requests))
	submit := make([]int, 0, len(body.Requests)) // original index per submitted request
	bound := s.solver.opt.IntakeBound
	depth := int(s.intakeDepth.Load())
	for i, q := range body.Requests {
		items[i].Index = i
		obj, err := objectiveByOp(Op(q.Op))
		if err != nil {
			e := wireError(err)
			items[i].Error = &e
			continue
		}
		// Every submitted item occupies one intake unit; best-effort items
		// that would push the queue over its bound are shed individually.
		if fleet.Class(q.Class).Canon() == fleet.ClassBestEffort &&
			(bound < 0 || depth+len(submit)+1 > bound) {
			s.shed(q.Tenant)
			e := wireError(fmt.Errorf("service: %w", errShed))
			items[i].Error = &e
			continue
		}
		reqs = append(reqs, fleetRequest(q, obj))
		submit = append(submit, i)
	}

	if len(submit) > 0 {
		s.intakeDepth.Add(int64(len(submit)))
		admissionQueuedTotal.Add(uint64(len(submit)))
		var outcomes []fleet.BatchOutcome
		err := s.fleet.withSolve(func(f fleet.Manager) error {
			release, err := s.solver.acquireSlot(r.Context())
			if err != nil {
				return fmt.Errorf("service: waiting for worker: %w", err)
			}
			defer release()
			outcomes = f.DeployBatch(reqs)
			return nil
		})
		s.intakeDepth.Add(-int64(len(submit)))
		if err != nil {
			writeError(w, err)
			return
		}
		for _, o := range outcomes {
			i := submit[o.Index]
			if o.Err != nil {
				e := wireError(o.Err)
				items[i].Error = &e
				continue
			}
			d := toDeploymentWire(o.Deployment)
			items[i].Deployment = &d
		}
		s.drainPreempted()
		s.evaluateSLO()
	}

	resp := wire.DeployBatchResponse{Results: items}
	for i := range items {
		switch {
		case items[i].Deployment != nil:
			resp.Admitted++
		case items[i].Error != nil && items[i].Error.Code == wire.CodeShed:
			resp.Shed++
		default:
			resp.Rejected++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFleetRelease returns one deployment's capacity.
func (s *Server) handleFleetRelease(w http.ResponseWriter, r *http.Request) {
	var body wire.FleetRelease
	if err := decode(w, r, &body); err != nil {
		writeError(w, err)
		return
	}
	if body.ID == "" {
		writeError(w, fmt.Errorf("request missing id"))
		return
	}
	if err := s.fleet.withFleet(func(f fleet.Manager) error {
		return f.Release(body.ID)
	}); err != nil {
		writeError(w, err)
		return
	}
	s.evaluateSLO()
	writeJSON(w, http.StatusOK, struct {
		Released string `json:"released"`
	}{Released: body.ID})
}

// handleFleetRebalance runs one rebalance pass (solves share the worker
// pool, like deploys).
func (s *Server) handleFleetRebalance(w http.ResponseWriter, r *http.Request) {
	var opt fleet.RebalanceOptions
	if err := decode(w, r, &opt); err != nil {
		writeError(w, err)
		return
	}
	var rep fleet.Report
	if err := s.fleet.withSolve(func(f fleet.Manager) error {
		release, err := s.solver.acquireSlot(r.Context())
		if err != nil {
			return fmt.Errorf("service: waiting for worker: %w", err)
		}
		defer release()
		rep = f.Rebalance(opt)
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	s.evaluateSLO()
	writeJSON(w, http.StatusOK, rep)
}

// handleFleetList reports the fleet state: GET /v1/fleet (?limit=N caps the
// listed deployments; default 0 = all).
func (s *Server) handleFleetList(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit", 0)
	if err != nil {
		writeError(w, err)
		return
	}
	out := wire.FleetList{Deployments: []wire.Deployment{}}
	_ = s.fleet.withFleet(func(f fleet.Manager) error {
		out.Configured = true
		out.Nodes = f.Network().N()
		out.Links = f.Network().M()
		st := f.Stats()
		out.Stats = &st
		deps := f.List()
		if limit > 0 && len(deps) > limit {
			deps = deps[:limit]
		}
		for _, d := range deps {
			out.Deployments = append(out.Deployments, toDeploymentWire(d))
		}
		return nil
	})
	writeJSON(w, http.StatusOK, out)
}

// handleFleetDescribe reports one deployment: GET /v1/fleet/{id}.
func (s *Server) handleFleetDescribe(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var d fleet.Deployment
	err := s.fleet.withFleet(func(f fleet.Manager) error {
		var ok bool
		if d, ok = f.Describe(id); !ok {
			return fmt.Errorf("fleet: %w: %q", fleet.ErrNotFound, id)
		}
		return nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toDeploymentWire(d))
}

// fleetShardStats snapshots the per-region and coordinator gauges for
// /v1/stats (nil when the installed manager has one shard). Like every
// fleet read it runs under the install lock for its whole duration, so a
// concurrent network replacement cannot hand it a discarded manager.
func (s *Server) fleetShardStats() *fleet.ShardedStats {
	var st *fleet.ShardedStats
	_ = s.fleet.withFleet(func(f fleet.Manager) error {
		if f.Shards() > 1 {
			v := f.ShardStats()
			st = &v
		}
		return nil
	})
	return st
}

// fleetStats snapshots the fleet gauges for /v1/stats (nil when no network
// is installed).
func (s *Server) fleetStats() *fleet.Stats {
	var st fleet.Stats
	if err := s.fleet.withFleet(func(f fleet.Manager) error {
		st = f.Stats()
		return nil
	}); err != nil {
		return nil
	}
	return &st
}

// warmStatsWire is the /v1/stats warm block: the fleet's warm-start solve
// outcome counters plus the derived hit ratio.
type warmStatsWire struct {
	fleet.WarmSolveStats
	// HitRatio is (hits + partials) / total, 0 before any warm solve.
	HitRatio float64 `json:"hit_ratio"`
}

// fleetWarmStats snapshots the warm-start solve counters for /v1/stats
// (nil when no network is installed).
func (s *Server) fleetWarmStats() *warmStatsWire {
	var st fleet.WarmSolveStats
	if err := s.fleet.withFleet(func(f fleet.Manager) error {
		st = f.WarmSolveStats()
		return nil
	}); err != nil {
		return nil
	}
	return &warmStatsWire{WarmSolveStats: st, HitRatio: st.HitRatio()}
}
