// Package fleet is the multi-tenant placement subsystem: a fleet manager
// owns one shared transport network and admits many concurrently deployed
// pipelines onto it, each solved by the paper's single-pipeline algorithms
// against the *residual* network (node powers and link bandwidths scaled
// down by the capacity already reserved by earlier tenants —
// model.ResidualNetwork).
//
// The paper maps one pipeline onto an uncontended network; a production
// service must colocate many. The fleet closes that gap with these
// mechanisms:
//
//   - Admission control: Deploy solves the request's objective on the
//     residual network and rejects it (ErrRejected) when no mapping meets
//     the request's SLO or when reserving it would overcommit any resource.
//   - Capacity accounting: an admitted deployment reserves, on every node
//     and link its mapping touches, the utilization it imposes at its
//     reserved frame rate. Release returns exactly that capacity; the
//     outstanding-set recompute guarantees the empty fleet is bit-for-bit
//     identical to a fresh one.
//   - Live rebalancing: Rebalance re-solves deployments against the
//     capacity freed since they were admitted and migrates the ones whose
//     improvement clears a migration-cost guard.
//   - Incremental repair: when churn events mutate the network's capacity
//     (ApplyChurn), Affected identifies exactly the deployments whose
//     placements touch the mutated elements and Repair re-solves only the
//     broken ones — migrating what fits, parking (evicting with a
//     reusable admission request) what does not. internal/churn drives
//     this cycle and re-queues parked deployments when capacity returns.
//
// ShardedFleet is the one manager (New builds it with one shard). It runs
// one region per shard of a network partition plus a coordinator region for
// cross-region deployments; every region admits, repairs, logs, and
// recovers through the same code.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"elpc/internal/core"
	"elpc/internal/model"
	"elpc/internal/telemetry"
	"elpc/internal/wal"
)

// ErrRejected is returned (wrapped, with a reason) when admission control
// declines a deployment: no feasible mapping on the residual network, the
// SLO cannot be met, or reserving the mapping would overcommit a resource.
var ErrRejected = errors.New("admission rejected")

// ErrNotFound is returned for operations on unknown deployment IDs.
var ErrNotFound = errors.New("deployment not found")

// DefaultInteractiveFPS is the demand rate reserved for min-delay
// deployments that do not state one: interactive sessions still occupy
// capacity per processed frame, so admission must account for some rate.
const DefaultInteractiveFPS = 1.0

// Class is a deployment's SLO class: the priority band admission, repair,
// and rebalancing order work by, and the currency preemption trades in (a
// guaranteed deploy may displace best-effort tenants; see Deploy).
type Class string

const (
	// ClassGuaranteed deployments are admitted first and may preempt
	// best-effort tenants when normal admission fails.
	ClassGuaranteed Class = "guaranteed"
	// ClassStandard is the default band (an empty Class means standard).
	ClassStandard Class = "standard"
	// ClassBestEffort deployments are admitted last, shed first under
	// intake pressure, and eligible for preemption.
	ClassBestEffort Class = "best_effort"
)

// Valid reports whether c names a known class (empty = standard is valid).
func (c Class) Valid() bool {
	switch c {
	case "", ClassGuaranteed, ClassStandard, ClassBestEffort:
		return true
	}
	return false
}

// Canon maps the empty class to ClassStandard.
func (c Class) Canon() Class {
	if c == "" {
		return ClassStandard
	}
	return c
}

// Rank orders classes for admission preference: higher ranks admit first.
func (c Class) Rank() int {
	switch c {
	case ClassGuaranteed:
		return 2
	case ClassBestEffort:
		return 0
	default:
		return 1
	}
}

// SLO states what a deployment requires from its placement. Zero fields are
// unconstrained.
type SLO struct {
	// MaxDelayMs caps the end-to-end delay (Eq. 1, evaluated on the
	// residual network at admission).
	MaxDelayMs float64 `json:"max_delay_ms,omitempty"`
	// MinRateFPS is the frame rate the tenant will sustain. It is both an
	// SLO (reject if unachievable) and the demand the deployment reserves
	// capacity for.
	MinRateFPS float64 `json:"min_rate_fps,omitempty"`
	// Class is the SLO class ("guaranteed", "standard", "best_effort");
	// empty selects standard.
	Class Class `json:"class,omitempty"`
}

// Request asks the fleet to place one pipeline.
type Request struct {
	// Tenant labels the owner (informational; reported by List/Describe).
	Tenant string
	// Pipeline is the linear pipeline to place.
	Pipeline *model.Pipeline
	// Src and Dst are the designated data source and end-user nodes.
	Src, Dst model.NodeID
	// Objective selects min-delay (interactive) or max-frame-rate
	// (streaming) placement.
	Objective model.Objective
	// SLO constrains admission.
	SLO SLO
	// Cost overrides the cost-model options; nil selects the defaults.
	Cost *model.CostOptions
	// RequeueOf names the parked entry this request re-admits (set by the
	// churn reconciler's requeue loop). It does not affect admission; it is
	// recorded in the WAL so recovery drains the parked pool identically.
	RequeueOf string

	// warm carries the retained DP grids of a previously admitted deployment
	// back into admission (parked and preempted entries keep their grids so a
	// requeue solves warm). It never affects the solved result — a warm solve
	// is byte-identical to a cold one — so it is invisible to callers.
	warm *core.WarmState
}

// Deployment is one admitted pipeline: its mapping, the metrics it was
// admitted with (evaluated on the residual network it was solved against),
// and the capacity it holds.
type Deployment struct {
	// ID is the fleet-assigned handle ("d-000001", dense per fleet).
	ID string `json:"id"`
	// Tenant echoes Request.Tenant.
	Tenant string `json:"tenant,omitempty"`
	// Objective is the placement objective.
	Objective model.Objective `json:"-"`
	// Assignment maps module j to Assignment[j].
	Assignment []model.NodeID `json:"assignment"`
	// Mapping is the human-readable group rendering of Assignment.
	Mapping string `json:"mapping"`
	// DelayMs is the Eq. 1 delay on the residual network the mapping was
	// last solved against (admission or the latest applied migration).
	DelayMs float64 `json:"delay_ms"`
	// RateFPS is the sustainable frame rate (1000 / shared bottleneck) on
	// the residual network the mapping was last solved against.
	RateFPS float64 `json:"rate_fps"`
	// ReservedFPS is the frame rate the deployment reserves capacity for:
	// SLO.MinRateFPS when stated, otherwise the achieved rate (streaming)
	// or DefaultInteractiveFPS (interactive), fixed at admission.
	// Rebalancing never changes it — migrations move the mapping, not the
	// tenant's demand.
	ReservedFPS float64 `json:"reserved_fps"`
	// SLO echoes the admission constraints.
	SLO SLO `json:"slo"`
	// Seq orders deployments by admission (monotonic per fleet, never
	// reused; rebalanced deployments keep their seq).
	Seq uint64 `json:"seq"`

	pipe        *model.Pipeline
	cost        model.CostOptions
	src, dst    model.NodeID
	reservation model.Reservation

	// warm retains the deployment's DP grids between solves, so repair and
	// rebalance re-solves after churn recompute only the cells the capacity
	// delta invalidated. Nil when warm-start is disabled or the deployment was
	// recovered from the WAL (it re-warms on its first re-solve). Owned by the
	// fleet lock.
	warm *core.WarmState
}

// clone returns a caller-owned copy of the public view. The warm state stays
// behind: it is single-threaded scratch owned by the fleet's copy.
func (d *Deployment) clone() Deployment {
	c := *d
	c.warm = nil
	c.Assignment = append([]model.NodeID(nil), d.Assignment...)
	return c
}

// Stats is a point-in-time snapshot of fleet counters and utilization
// gauges.
type Stats struct {
	// Deployments is the number currently admitted.
	Deployments int `json:"deployments"`
	// Admitted, Rejected, Released, and Moves are monotonic lifecycle
	// counters (Moves counts applied rebalance migrations).
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	Released uint64 `json:"released"`
	Moves    uint64 `json:"rebalance_moves"`
	// Repaired counts deployments examined by Repair passes; RepairMoves
	// the migrations they applied; ParkEvictions the deployments evicted
	// because no feasible placement remained after churn.
	Repaired      uint64 `json:"repaired"`
	RepairMoves   uint64 `json:"repair_moves"`
	ParkEvictions uint64 `json:"park_evictions"`
	// Preemptions counts best-effort deployments displaced (parked) so a
	// guaranteed deploy could admit.
	Preemptions uint64 `json:"preemptions"`
	// GuaranteedActive / StandardActive / BestEffortActive count the
	// currently admitted deployments per SLO class.
	GuaranteedActive int `json:"guaranteed_active"`
	StandardActive   int `json:"standard_active"`
	BestEffortActive int `json:"best_effort_active"`
	// SolverCalls counts every objective solve run on the fleet's behalf.
	SolverCalls uint64 `json:"solver_calls"`
	// ReservedFPS is the total frame rate reserved across deployments.
	ReservedFPS float64 `json:"reserved_fps"`
	// MeanNodeUtil / MaxNodeUtil (MeanLinkUtil / MaxLinkUtil) gauge the
	// outstanding load fraction over all nodes (links).
	MeanNodeUtil float64 `json:"mean_node_util"`
	MaxNodeUtil  float64 `json:"max_node_util"`
	MeanLinkUtil float64 `json:"mean_link_util"`
	MaxLinkUtil  float64 `json:"max_link_util"`
}

// region is one independently locked placement scope: the deployments it
// owns, its share of the fleet's residual ledger, its counters, and its WAL
// epochs. ShardedFleet runs one region per shard plus a coordinator region
// for cross-region deployments. All methods are safe for concurrent use;
// admission is serialized internally so the solve and the reservation it
// justifies are atomic.
type region struct {
	mu   sync.Mutex
	base *model.Network
	// residual is the fleet's one ledger, shared by every region; see
	// ShardedFleet for who writes and reads which elements under which lock.
	residual *model.ResidualNetwork
	deps     map[string]*Deployment
	order    []string // admission order; recompute accumulates in this order
	seq      uint64

	// scope names the region in the WAL ("s3" on shard 3, wal.ScopeCross on
	// the coordinator, "" on the only shard of a one-shard fleet); idPrefix
	// namespaces its deployment IDs the same way ("s3-", "x-", "") so IDs
	// stay unique and routable across regions.
	scope    string
	idPrefix string
	// scoreSnap is the snapshot buffer (scoringSnapshotLocked) rebalance,
	// repair, two-phase admission and the SLO report score mappings on, and
	// the coordinator's two-phase proposal solves on: the region's
	// sub-network with a view, the whole network without. Nothing holds it
	// past one candidate, proposal or report.
	scoreSnap *model.Network
	// view, when non-nil, restricts every solve and score to the region's
	// sub-network (RegionSnapshot), translating mappings back to global
	// node IDs. Nil solves on the whole network (a one-shard fleet's shard,
	// and the coordinator).
	view *model.RegionView
	// external is a static load overlay (the coordinator's merged
	// cross-region reservations) re-added on the region's elements on every
	// recompute; the zero Reservation means none.
	external model.Reservation
	// refresh, set on the coordinator only, replaces the load recompute
	// with ShardedFleet.refreshLocked, which rewrites the whole ledger, so
	// every shard lock must be held wherever the coordinator recomputes.
	refresh func()
	// out, when non-nil, receives one wal.Record per mutating lock epoch,
	// labeled with scope, describing each of its transitions as one op —
	// see wal.go. Nil (the default, and the benchmark configuration) means
	// neither a log nor a journal is installed, and no record is built.
	out *sink
	// txn is the record under construction for the current lock epoch
	// (between beginTxnLocked and endTxnLocked); txnPre is the counter
	// state at epoch start, so counter-only epochs still log.
	txn    *wal.Record
	txnPre wal.Counters

	admitted    uint64
	rejected    uint64
	released    uint64
	moves       uint64
	repaired    uint64
	repairMoves uint64
	parkEvicts  uint64
	preempts    uint64
	// fallbacks counts regional rejections retried through the coordinator;
	// tpcRetries counts phase-2 validation failures that forced a re-solve;
	// tpcAborts counts admissions abandoned after exhausting every
	// two-phase round (the health engine's abort-rate signal). Only the
	// coordinator moves them.
	fallbacks  uint64
	tpcRetries uint64
	tpcAborts  uint64

	// preemptedQ holds deployments displaced by guaranteed admissions until
	// the owner drains them (TakePreempted) into the re-queue loop.
	preemptedQ []ParkedDeployment

	// resScratch is the reusable reservation list recomputeLocked (on the
	// coordinator, refreshLocked) hands to the ledger, which retains nothing.
	resScratch []model.Reservation

	// solves counts every objective solve run on the fleet's behalf
	// (admission, rebalance proposals, repair re-solves). Solves run under
	// mu; the counter is atomic because SolveCount reads it without the
	// lock. Tests use it to assert repair is incremental: an event touching
	// k deployments costs exactly k solves.
	solves atomic.Uint64

	// warmOff disables warm-start incremental solving (SetWarmStart); the
	// zero value keeps it on. Warm solves are byte-identical to cold ones —
	// the differential equivalence suite runs the same trace both ways and
	// asserts identical mappings and stats — so the toggle only trades CPU
	// for retained-grid memory. The coordinator is built with it set and
	// never toggled: its solves always run cold.
	warmOff bool
	// Warm solve outcome counters (see core.WarmOutcome), atomic because
	// WarmSolveStats reads them without the lock.
	warmRebuilds atomic.Uint64
	warmPartials atomic.Uint64
	warmHits     atomic.Uint64
	warmBypasses atomic.Uint64

	// lockWait is the per-shard Deploy lock-wait histogram, resolved lazily
	// on first use (see lockWaitHist).
	lockWaitOnce sync.Once
	lockWait     *telemetry.Histogram
}

// newRegion builds an empty region over the residual view rn of the shared
// base network, named by its WAL scope ("" for the only shard of a
// one-shard fleet).
func newRegion(rn *model.ResidualNetwork, scope string) *region {
	f := &region{
		base:     rn.Base(),
		residual: rn,
		deps:     make(map[string]*Deployment),
		scope:    scope,
	}
	if scope != "" {
		f.idPrefix = scope + "-"
	}
	return f
}

// recomputeLocked rebuilds the loads of the region's elements as the exact
// ordered sum of its outstanding reservations, then the external overlay.
// Caller holds f.mu (on the coordinator: every lock, see refresh).
func (f *region) recomputeLocked() {
	if f.refresh != nil {
		f.refresh()
		return
	}
	f.resScratch = append(f.appendReservationsLocked(f.resScratch[:0]), f.external)
	f.residual.SetRegionLoad(f.view, f.resScratch)
}

// appendReservationsLocked appends the region's reservations to dst in
// admission order. Caller holds f.mu.
func (f *region) appendReservationsLocked(dst []model.Reservation) []model.Reservation {
	for _, id := range f.order {
		dst = append(dst, f.deps[id].reservation)
	}
	return dst
}

// reject counts, logs and wraps an admission failure with the requesting
// tenant.
func (f *region) reject(req Request, format string, args ...any) error {
	f.rejected++
	rejectedTotal.Inc()
	reason := fmt.Sprintf(format, args...)
	f.logOp(wal.Op{Kind: wal.DeployRejected, Tenant: req.Tenant, Detail: reason})
	return fmt.Errorf("fleet: %w: %s", ErrRejected, reason)
}

// warmPool recycles WarmStates between deployments: released deployments and
// declined admissions return their (Reset) state here, so steady-state churn
// never allocates fresh grids.
var warmPool = sync.Pool{New: func() any { return core.NewWarmState() }}

// solve runs the objective's solver against the residual snapshot and
// evaluates the mapping on it. A non-nil ws solves through the warm state's
// retained grids (byte-identical results, see core.WarmState); nil is the
// cold path.
func solve(snap *model.Network, req Request, cost model.CostOptions, ws *core.WarmState) (*model.Mapping, float64, float64, error) {
	p := &model.Problem{Net: snap, Pipe: req.Pipeline, Src: req.Src, Dst: req.Dst, Cost: cost}
	var m *model.Mapping
	var err error
	switch req.Objective {
	case model.MinDelay:
		if ws != nil {
			m, err = ws.MinDelay(p)
		} else {
			m, err = core.MinDelay(p)
		}
	case model.MaxFrameRate:
		if ws != nil {
			m, err = ws.MaxFrameRate(p, core.FrameRateOptions{})
		} else {
			m, err = core.MaxFrameRate(p)
		}
	default:
		return nil, 0, 0, fmt.Errorf("fleet: unknown objective %v", req.Objective)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	delay := model.TotalDelay(snap, req.Pipeline, m, cost)
	period := model.SharedBottleneck(snap, req.Pipeline, m)
	return m, delay, model.FrameRate(period), nil
}

// solveCounted is solve plus the fleet's solver-call accounting, on its own
// snapshot of rn (the coordinator's two-phase proposal solves on its
// scoring buffer and counts itself). A region with a view solves on its
// sub-network alone (RegionSnapshot, the O(region) hot path sharding rests
// on), scaled bit-identically to a full snapshot, so the returned delay and
// rate match a full-network evaluation and the mapping comes back in global
// node IDs.
func (f *region) solveCounted(rn *model.ResidualNetwork, req Request, cost model.CostOptions, ws *core.WarmState) (*model.Mapping, float64, float64, error) {
	f.solves.Add(1)
	if f.warmOff {
		ws = nil
	}
	if f.view == nil {
		var snap *model.Network
		if ws != nil {
			// Materialize into the warm state's free snapshot buffer: the
			// grids retain at most one previous snapshot, so double
			// buffering makes the per-solve snapshot allocation-free.
			snap = rn.SnapshotInto(ws.SnapshotScratch())
			ws.TrackSnapshot(snap)
		} else {
			snap = rn.Snapshot()
		}
		m, delay, rate, err := solve(snap, req, cost, ws)
		f.noteWarm(ws)
		return m, delay, rate, err
	}
	ls, ld := f.view.Local(req.Src), f.view.Local(req.Dst)
	if ls < 0 || ld < 0 {
		return nil, 0, 0, fmt.Errorf("fleet: %w: endpoints %d -> %d leave region %d", model.ErrInfeasible, req.Src, req.Dst, f.view.Region)
	}
	local := req
	local.Src, local.Dst = model.NodeID(ls), model.NodeID(ld)
	var snap *model.Network
	if ws != nil {
		snap = rn.RegionSnapshotInto(f.view, ws.SnapshotScratch())
		ws.TrackSnapshot(snap)
	} else {
		snap = rn.RegionSnapshot(f.view)
	}
	m, delay, rate, err := solve(snap, local, cost, ws)
	f.noteWarm(ws)
	if err != nil {
		return nil, 0, 0, err
	}
	return f.view.ToGlobal(m), delay, rate, nil
}

// noteWarm folds the outcome of the warm solve that just ran into the
// fleet's counters; a nil ws (cold solve) is a no-op.
func (f *region) noteWarm(ws *core.WarmState) {
	if ws == nil {
		return
	}
	switch ws.Last().Outcome {
	case core.WarmRebuild:
		f.warmRebuilds.Add(1)
	case core.WarmPartial:
		f.warmPartials.Add(1)
	case core.WarmHit:
		f.warmHits.Add(1)
	case core.WarmBypass:
		f.warmBypasses.Add(1)
	}
}

// warmFor returns the deployment's warm state, lazily attaching a pooled one
// when warm-start is enabled. Deployments recovered from the WAL and
// coordinator-admitted cross-region deployments start without grids; they
// re-warm on their first repair or rebalance re-solve.
func (f *region) warmFor(d *Deployment) *core.WarmState {
	if f.warmOff {
		return nil
	}
	if d.warm == nil {
		d.warm = warmPool.Get().(*core.WarmState)
	}
	return d.warm
}

// recycleWarm resets and pools a deployment's warm state on release/eviction.
func recycleWarm(ws *core.WarmState) {
	if ws == nil {
		return
	}
	ws.Reset()
	warmPool.Put(ws)
}

// SetWarmStart toggles warm-start incremental solving (on by default).
// Turning it off detaches nothing: retained grids stay with their
// deployments, they are just bypassed until re-enabled.
func (f *region) SetWarmStart(on bool) {
	f.mu.Lock()
	f.warmOff = !on
	f.mu.Unlock()
}

// WarmSolveStats snapshots the warm-start outcome counters.
func (f *region) WarmSolveStats() WarmSolveStats {
	return WarmSolveStats{
		Rebuilds: f.warmRebuilds.Load(),
		Partials: f.warmPartials.Load(),
		Hits:     f.warmHits.Load(),
		Bypasses: f.warmBypasses.Load(),
	}
}

// WarmSolveStats counts warm-start solves by outcome. It is reported
// separately from Stats so a warm and a cold fleet replaying the same trace
// produce byte-identical Stats — the invariant the differential equivalence
// suite enforces.
type WarmSolveStats struct {
	// Rebuilds are solves that recomputed the full grid (first solve of a
	// deployment, signature change, or structural network change).
	Rebuilds uint64 `json:"rebuilds"`
	// Partials recomputed only the cells a capacity delta invalidated.
	Partials uint64 `json:"partials"`
	// Hits served the retained grids unchanged.
	Hits uint64 `json:"hits"`
	// Bypasses delegated to the cold path (problem over the retention caps).
	Bypasses uint64 `json:"bypasses"`
}

// Total is the number of solves that ran through a warm state.
func (w WarmSolveStats) Total() uint64 {
	return w.Rebuilds + w.Partials + w.Hits + w.Bypasses
}

// HitRatio is the fraction of warm solves that reused retained work (hits
// plus partials); 0 when no warm solves ran.
func (w WarmSolveStats) HitRatio() float64 {
	t := w.Total()
	if t == 0 {
		return 0
	}
	return float64(w.Hits+w.Partials) / float64(t)
}

// SolveCount returns the number of objective solves the fleet has run
// (admission, rebalance proposals, repair re-solves).
func (f *region) SolveCount() uint64 { return f.solves.Load() }

// admissionRate resolves the frame rate a deployment reserves capacity for
// given its achieved sustainable rate.
func admissionRate(req Request, rateFPS float64) float64 {
	if req.SLO.MinRateFPS > 0 {
		return req.SLO.MinRateFPS
	}
	if req.Objective == model.MinDelay {
		return DefaultInteractiveFPS
	}
	return rateFPS
}

// validateRequest runs the lock-free structural checks a request must pass
// before admission is attempted. Structural errors never wrap ErrRejected.
func (f *region) validateRequest(req Request) error {
	if req.Pipeline == nil {
		return fmt.Errorf("fleet: request missing pipeline")
	}
	if !f.base.ValidNode(req.Src) || !f.base.ValidNode(req.Dst) {
		return fmt.Errorf("fleet: invalid endpoints %d -> %d", req.Src, req.Dst)
	}
	if req.SLO.MaxDelayMs < 0 || req.SLO.MinRateFPS < 0 {
		return fmt.Errorf("fleet: negative SLO")
	}
	if !req.SLO.Class.Valid() {
		return fmt.Errorf("fleet: unknown SLO class %q", req.SLO.Class)
	}
	return nil
}

// tryAdmitLocked runs the admission core against the current residual state
// and commits on success. It returns (dep, "", nil) when the deployment was
// admitted, (zero, reason, nil) when admission control declines — without
// counting or logging the rejection, so callers (Deploy, DeployBatch,
// the preemption retry loop) decide whether a given attempt is final — and
// (zero, "", err) on a structural or solver error. Caller holds f.mu.
func (f *region) tryAdmitLocked(req Request, cost model.CostOptions) (Deployment, string, error) {
	// Solve warm: a requeued request brings the parked deployment's grids
	// back; a fresh request warms a pooled state so post-churn repairs of
	// this deployment recompute only invalidated cells. Declined or failed
	// admissions return a pool-acquired state (requeue-owned grids stay with
	// the request — the reconciler re-parks it on failure).
	ws := req.warm
	retained := ws != nil
	if ws == nil && !f.warmOff {
		ws = warmPool.Get().(*core.WarmState)
	}
	defer func() {
		if ws != nil && !retained {
			recycleWarm(ws)
		}
	}()
	m, delay, rate, err := f.solveCounted(f.residual, req, cost, ws)
	if err != nil {
		if errors.Is(err, model.ErrInfeasible) {
			return Deployment{}, fmt.Sprintf("no feasible mapping on residual network: %v", err), nil
		}
		return Deployment{}, "", err
	}
	d, reason, _, err := f.admitLocked(req, cost, m, delay, rate, ws)
	if reason == "" && err == nil {
		retained = true // the admitted deployment owns ws now
	}
	return d, reason, err
}

// admitLocked is admission control's guard-and-commit step for a solved
// mapping m, scored (delay, rate) on the region's current residual view: it
// runs the placement guard (judgeLocked) at the request's reserved rate and
// commits the reservation when the mapping passes. A decline returns the
// guard's reason, with overcommit set when the failing check was the fit —
// the one decline a fresher view can cure, which the coordinator's
// two-phase path retries. The committed deployment keeps ws (nil for none).
// Caller holds f.mu (the coordinator: every lock).
func (f *region) admitLocked(req Request, cost model.CostOptions, m *model.Mapping, delay, rate float64, ws *core.WarmState) (dep Deployment, reason string, overcommit bool, err error) {
	reserved := admissionRate(req, rate)
	res, reason, overcommit, err := f.judgeLocked(req.Pipeline, m, delay, rate, req.SLO, reserved)
	if reason != "" || err != nil {
		return Deployment{}, reason, overcommit, err
	}

	f.seq++
	d := &Deployment{
		ID:          fmt.Sprintf("%sd-%06d", f.idPrefix, f.seq),
		Tenant:      req.Tenant,
		Objective:   req.Objective,
		Assignment:  m.Assign,
		Mapping:     m.String(),
		DelayMs:     delay,
		RateFPS:     rate,
		ReservedFPS: reserved,
		SLO:         req.SLO,
		Seq:         f.seq,
		pipe:        req.Pipeline,
		cost:        cost,
		src:         req.Src,
		dst:         req.Dst,
		reservation: res,
		warm:        ws,
	}
	f.deps[d.ID] = d
	f.order = append(f.order, d.ID)
	f.recomputeLocked()
	f.admitted++
	admittedTotal.Inc()
	f.logOp(wal.Op{Kind: wal.DeployAdmitted, Deploy: deployState(d, req.RequeueOf)})
	return d.clone(), "", false, nil
}

// MaxPreemptionVictims bounds how many best-effort deployments one
// guaranteed admission may displace before giving up.
const MaxPreemptionVictims = 4

// preemptLocked retries a rejected guaranteed admission by displacing
// best-effort deployments: victims are removed latest-admitted-first, one at
// a time, with the admission core retried after each removal. On success the
// displaced deployments are logged (DeployPreempted) and queued for
// re-admission (TakePreempted); on exhaustion the fleet state is restored
// exactly (the residual recompute is an ordered sum, so restoration is
// bit-identical) and ok is false. Caller holds f.mu.
func (f *region) preemptLocked(req Request, cost model.CostOptions) (Deployment, bool) {
	var victims []*Deployment
	for i := len(f.order) - 1; i >= 0 && len(victims) < MaxPreemptionVictims; i-- {
		if d := f.deps[f.order[i]]; d.SLO.Class == ClassBestEffort {
			victims = append(victims, d)
		}
	}
	if len(victims) == 0 {
		return Deployment{}, false
	}
	savedOrder := append([]string(nil), f.order...)
	var removed []*Deployment
	for _, v := range victims {
		delete(f.deps, v.ID)
		f.order = removeID(f.order, v.ID)
		removed = append(removed, v)
		f.recomputeLocked()
		d, reason, err := f.tryAdmitLocked(req, cost)
		if err != nil {
			break
		}
		if reason == "" {
			for _, vd := range removed {
				f.preempts++
				preemptedTotal.Inc()
				entry := ParkedDeployment{
					ID:     vd.ID,
					Tenant: vd.Tenant,
					Reason: fmt.Sprintf("preempted by guaranteed deploy %s", d.ID),
					Req:    requestOf(vd),
				}
				f.preemptedQ = append(f.preemptedQ, entry)
				ps := parkedState(entry)
				f.logOp(wal.Op{Kind: wal.DeployPreempted, Remove: vd.ID, Park: &ps})
			}
			return d, true
		}
	}
	// No prefix of the victim list frees enough residual: restore exactly.
	for _, vd := range removed {
		f.deps[vd.ID] = vd
	}
	f.order = savedOrder
	f.recomputeLocked()
	return Deployment{}, false
}

// Deploy admits one pipeline: it solves the objective against the residual
// network, checks the SLO, reserves capacity, and returns the deployment.
// A guaranteed-class request that fails admission additionally attempts
// preemption — displacing up to MaxPreemptionVictims best-effort tenants
// (parked and logged, recoverable via TakePreempted) when that frees
// enough residual to admit. Rejections wrap ErrRejected; structural errors
// (bad request) do not.
func (f *region) Deploy(req Request) (Deployment, error) {
	if err := f.validateRequest(req); err != nil {
		return Deployment{}, err
	}
	cost := model.DefaultCostOptions()
	if req.Cost != nil {
		cost = *req.Cost
	}

	t0 := time.Now()
	defer deploySeconds.ObserveSince(t0)
	lockWait := f.lockWaitHist()
	f.mu.Lock()
	lockWait.ObserveSince(t0)
	f.beginTxnLocked()
	d, err := f.deployLocked(req, cost)
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return d, err
}

// deployLocked is the admission attempt plus the guaranteed-class preemption
// fallback, with rejection accounting. Caller holds f.mu.
func (f *region) deployLocked(req Request, cost model.CostOptions) (Deployment, error) {
	d, reason, err := f.tryAdmitLocked(req, cost)
	if err != nil {
		return Deployment{}, err
	}
	if reason == "" {
		return d, nil
	}
	if req.SLO.Class == ClassGuaranteed {
		if d, ok := f.preemptLocked(req, cost); ok {
			return d, nil
		}
	}
	return Deployment{}, f.reject(req, "%s", reason)
}

// BatchOutcome is the per-request result of DeployBatch, reported at the
// request's original index.
type BatchOutcome struct {
	// Index is the request's position in the submitted batch.
	Index int
	// Deployment is the admitted deployment when Err is nil.
	Deployment Deployment
	// Err is the admission error (wrapping ErrRejected) or structural error.
	Err error
}

// batchOrder returns the admission order for a batch: SLO class rank
// descending (guaranteed first), then reserved demand descending (scarcer
// requests pack first, first-fit-decreasing style), then delay-SLO tightness
// ascending, then submission order. Invalid indices (out[i].Err already set)
// are excluded.
func batchOrder(reqs []Request, out []BatchOutcome) []int {
	order := make([]int, 0, len(reqs))
	for i := range reqs {
		if out[i].Err == nil {
			order = append(order, i)
		}
	}
	sortByPriority(reqs, order)
	return order
}

// sortByPriority sorts the index list order in place by the batch admission
// key (see batchOrder). Shared with the sharded coordinator pass.
func sortByPriority(reqs []Request, order []int) {
	slack := func(r Request) float64 {
		if r.SLO.MaxDelayMs <= 0 {
			return math.Inf(1)
		}
		return r.SLO.MaxDelayMs
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := reqs[order[a]], reqs[order[b]]
		if ka, kb := ra.SLO.Class.Rank(), rb.SLO.Class.Rank(); ka != kb {
			return ka > kb
		}
		if ra.SLO.MinRateFPS != rb.SLO.MinRateFPS {
			return ra.SLO.MinRateFPS > rb.SLO.MinRateFPS
		}
		if sa, sb := slack(ra), slack(rb); sa != sb {
			return sa < sb
		}
		return order[a] < order[b]
	})
}

// DeployBatch admits a burst of requests under one lock epoch: structurally
// invalid requests fail fast without the lock, the rest are sorted by SLO
// class and scarcity (batchOrder) and placed in a single residual pass —
// one mutex acquisition for the whole burst instead of one per request.
// Outcomes are reported at each request's original index. The class-ordered
// single pass is why a batch admits at least as much guaranteed/high-demand
// traffic as the same requests deployed sequentially in arrival order.
func (f *region) DeployBatch(reqs []Request) []BatchOutcome {
	out := make([]BatchOutcome, len(reqs))
	for i := range reqs {
		out[i].Index = i
		if err := f.validateRequest(reqs[i]); err != nil {
			out[i].Err = err
		}
	}
	order := batchOrder(reqs, out)
	if len(order) == 0 {
		return out
	}

	t0 := time.Now()
	defer batchDeploySeconds.ObserveSince(t0)
	lockWait := f.lockWaitHist()
	f.mu.Lock()
	lockWait.ObserveSince(t0)
	f.beginTxnLocked()
	for _, i := range order {
		req := reqs[i]
		cost := model.DefaultCostOptions()
		if req.Cost != nil {
			cost = *req.Cost
		}
		out[i].Deployment, out[i].Err = f.deployLocked(req, cost)
	}
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return out
}

// TakePreempted drains and returns the deployments displaced by guaranteed
// admissions since the last call, oldest first. The owner (internal/churn's
// reconciler, via the service layer) re-queues them when capacity returns.
func (f *region) TakePreempted() []ParkedDeployment {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.preemptedQ
	f.preemptedQ = nil
	return out
}

// Release returns a deployment's capacity to the fleet.
func (f *region) Release(id string) error {
	f.mu.Lock()
	f.beginTxnLocked()
	err := f.releaseLocked(id)
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return err
}

// releaseLocked removes the deployment and recomputes the residual loads.
// Caller holds f.mu inside a WAL epoch.
func (f *region) releaseLocked(id string) error {
	d, ok := f.deps[id]
	if !ok {
		return fmt.Errorf("fleet: %w: %q", ErrNotFound, id)
	}
	delete(f.deps, id)
	recycleWarm(d.warm)
	d.warm = nil
	f.order = removeID(f.order, id)
	f.recomputeLocked()
	f.released++
	f.logOp(wal.Op{Kind: wal.ReleaseDone, Remove: id, Tenant: d.Tenant})
	return nil
}

// Describe returns a copy of one deployment.
func (f *region) Describe(id string) (Deployment, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.deps[id]
	if !ok {
		return Deployment{}, false
	}
	return d.clone(), true
}

// List returns copies of all deployments in admission order.
func (f *region) List() []Deployment {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Deployment, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, f.deps[id].clone())
	}
	return out
}

// addStatsLocked adds the region's counters and its live deployments'
// reserved rate and class tallies (summed in admission order, so the gauge
// is deterministic) into st. Caller holds f.mu.
func (f *region) addStatsLocked(st *Stats) {
	st.Deployments += len(f.deps)
	st.Admitted += f.admitted
	st.Rejected += f.rejected
	st.Released += f.released
	st.Moves += f.moves
	st.Repaired += f.repaired
	st.RepairMoves += f.repairMoves
	st.ParkEvictions += f.parkEvicts
	st.Preemptions += f.preempts
	st.SolverCalls += f.solves.Load()
	for _, id := range f.order {
		d := f.deps[id]
		st.ReservedFPS += d.ReservedFPS
		switch d.SLO.Class.Canon() {
		case ClassGuaranteed:
			st.GuaranteedActive++
		case ClassBestEffort:
			st.BestEffortActive++
		default:
			st.StandardActive++
		}
	}
}

// setUtilization gauges the mean and peak load fraction over every node and
// link of the residual view rn.
func (st *Stats) setUtilization(rn *model.ResidualNetwork) {
	base := rn.Base()
	for v := 0; v < base.N(); v++ {
		u := rn.NodeLoad(model.NodeID(v))
		st.MeanNodeUtil += u
		if u > st.MaxNodeUtil {
			st.MaxNodeUtil = u
		}
	}
	if n := base.N(); n > 0 {
		st.MeanNodeUtil /= float64(n)
	}
	for l := 0; l < base.M(); l++ {
		u := rn.LinkLoad(l)
		st.MeanLinkUtil += u
		if u > st.MaxLinkUtil {
			st.MaxLinkUtil = u
		}
	}
	if m := base.M(); m > 0 {
		st.MeanLinkUtil /= float64(m)
	}
}

// RebalanceOptions tunes a rebalance pass.
type RebalanceOptions struct {
	// MaxMoves caps applied migrations per pass; <= 0 selects
	// DefaultMaxMoves.
	MaxMoves int `json:"max_moves,omitempty"`
	// MinGain is the migration-cost guard: a re-solve is applied only when
	// its relative improvement (delay decrease or rate increase) is at
	// least this fraction; <= 0 selects DefaultMinGain.
	MinGain float64 `json:"min_gain,omitempty"`
}

// Defaults for RebalanceOptions.
const (
	DefaultMaxMoves = 4
	DefaultMinGain  = 0.05
)

// Move reports one rebalance decision for a deployment.
type Move struct {
	ID string `json:"id"`
	// OldValue and NewValue are delays in ms (min-delay deployments) or
	// rates in fps (streaming deployments), both evaluated on the same
	// freed residual network: OldValue is the existing mapping re-scored
	// there, NewValue the re-solved one. An unchanged mapping therefore
	// gains exactly zero — freed capacity alone never counts as a
	// migration.
	OldValue float64 `json:"old_value"`
	NewValue float64 `json:"new_value"`
	// Gain is the relative improvement ((old-new)/old for delay,
	// (new-old)/old for rate).
	Gain float64 `json:"gain"`
	// Applied reports whether the migration was committed.
	Applied bool `json:"applied"`
	// Reason explains skipped moves.
	Reason string `json:"reason,omitempty"`
}

// Report summarizes one rebalance pass.
type Report struct {
	Considered int    `json:"considered"`
	Applied    int    `json:"applied"`
	Moves      []Move `json:"moves"`
	// MeanGain averages the relative improvement of applied moves.
	MeanGain float64 `json:"mean_gain"`
}

// Rebalance re-solves deployments against the capacity freed since they
// were admitted: each candidate's own reservation is removed, its objective
// re-solved on the resulting residual network, and the migration applied
// only when the relative improvement clears opt.MinGain (the migration-cost
// guard) and the new mapping passes the placement guard (judgeLocked).
// Deployments admitted latest are considered first — they were solved
// against the most contended network, so freed capacity helps them most —
// and each re-solve observes every earlier move of the same pass.
func (f *region) Rebalance(opt RebalanceOptions) Report {
	if opt.MaxMoves <= 0 {
		opt.MaxMoves = DefaultMaxMoves
	}
	if opt.MinGain <= 0 {
		opt.MinGain = DefaultMinGain
	}
	t0 := time.Now()
	defer rebalanceSeconds.ObserveSince(t0)
	f.mu.Lock()
	f.beginTxnLocked()
	rep := f.rebalanceLocked(opt)
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return rep
}

// scoringSnapshotLocked materializes the residual view into the region's
// scoring buffer — its sub-network when the region has a view, the whole
// network otherwise — and returns it; the next call overwrites it. Caller
// holds f.mu.
func (f *region) scoringSnapshotLocked() *model.Network {
	if f.view != nil {
		f.scoreSnap = f.residual.RegionSnapshotInto(f.view, f.scoreSnap)
	} else {
		f.scoreSnap = f.residual.SnapshotInto(f.scoreSnap)
	}
	return f.scoreSnap
}

// scoreLocked scores mapping m of pl, in global node IDs, on snap, a
// scoring snapshot of the region (scoringSnapshotLocked): its Eq. 1 delay
// under cost and its Eq. 2 shared-bottleneck rate. On a region's
// sub-network m is scored in local IDs; every element a regional mapping
// reads has the value a full snapshot gives it, so the scores are the
// full-network ones bit for bit. A mapping with a module outside the
// region has no path there: +Inf delay, zero rate. Caller holds f.mu.
func (f *region) scoreLocked(snap *model.Network, pl *model.Pipeline, m *model.Mapping, cost model.CostOptions) (delay, rate float64) {
	if f.view != nil {
		local, ok := f.view.ToLocal(m)
		if !ok {
			return math.Inf(1), 0
		}
		m = local
	}
	return model.TotalDelay(snap, pl, m, cost), model.FrameRate(model.SharedBottleneck(snap, pl, m))
}

// rebalanceLocked is the rebalance pass body. Caller holds f.mu inside a
// WAL epoch.
func (f *region) rebalanceLocked(opt RebalanceOptions) Report {
	// Higher SLO classes are considered first; within a class, deployments
	// admitted latest first — they were solved against the most contended
	// network, so freed capacity helps them most.
	ids := append([]string(nil), f.order...)
	sort.SliceStable(ids, func(i, j int) bool {
		di, dj := f.deps[ids[i]], f.deps[ids[j]]
		if ri, rj := di.SLO.Class.Rank(), dj.SLO.Class.Rank(); ri != rj {
			return ri > rj
		}
		return di.Seq > dj.Seq
	})

	var rep Report
	for _, id := range ids {
		if rep.Applied >= opt.MaxMoves {
			break
		}
		d := f.deps[id]
		rep.Considered++

		// Free the candidate's own reservation for the re-solve and the
		// scoring snapshot.
		saved := d.reservation
		d.reservation = model.Reservation{}
		f.recomputeLocked()
		snap := f.scoringSnapshotLocked()
		m, _, _, err := f.solveCounted(f.residual, requestOf(d), d.cost, f.warmFor(d))
		move := Move{ID: id}
		restore := func(reason string) {
			d.reservation = saved
			f.recomputeLocked()
			move.Applied = false
			move.Reason = reason
			rep.Moves = append(rep.Moves, move)
		}
		if err != nil {
			restore(fmt.Sprintf("re-solve failed: %v", err))
			continue
		}
		delay, rate := f.scoreLocked(snap, d.pipe, m, d.cost)
		// Baseline: the existing mapping re-scored on the same freed
		// snapshot, so gain measures better placement rather than the
		// freed capacity both mappings would enjoy.
		curDelay, curRate := f.scoreLocked(snap, d.pipe, &model.Mapping{Assign: d.Assignment}, d.cost)
		if d.Objective == model.MinDelay {
			move.OldValue, move.NewValue = curDelay, delay
			if curDelay > 0 && !math.IsInf(curDelay, 1) {
				move.Gain = (curDelay - delay) / curDelay
			}
		} else {
			move.OldValue, move.NewValue = curRate, rate
			if curRate > 0 {
				move.Gain = (rate - curRate) / curRate
			}
		}
		if move.Gain < opt.MinGain {
			restore("gain below migration-cost guard")
			continue
		}
		res, reason, _, err := f.judgeLocked(d.pipe, m, delay, rate, d.SLO, d.ReservedFPS)
		if err != nil {
			reason = fmt.Sprintf("reservation: %v", err)
		}
		if reason != "" {
			restore(reason)
			continue
		}
		f.placeLocked(d, m, delay, rate, res)
		f.moves++
		f.logOp(wal.Op{
			Kind:   wal.RebalanceMove,
			Deploy: updateState(d),
			Detail: fmt.Sprintf("gain %.4f (%.3f -> %.3f)", move.Gain, move.OldValue, move.NewValue),
		})
		move.Applied = true
		rep.Moves = append(rep.Moves, move)
		rep.Applied++
		rep.MeanGain += move.Gain
	}
	if rep.Applied > 0 {
		rep.MeanGain /= float64(rep.Applied)
	}
	rebalanceMovesTotal.Add(uint64(rep.Applied))
	return rep
}
