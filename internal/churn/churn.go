// Package churn turns the fleet manager into a self-healing placement
// system under dynamic network conditions: nodes fail and recover, links
// degrade and restore, and capacity drifts — and the fleet's deployments
// must follow.
//
// The Reconciler is the subsystem's heart. Each Apply call takes one batch
// of network-mutation events ([]model.ChurnEvent), applies it
// transactionally to the fleet's residual capacity view, and then runs the
// *incremental* repair cycle:
//
//  1. Identify — fleet.Affected computes exactly the deployments whose
//     placements touch a mutated node or link; everything else is provably
//     untouched and never examined.
//  2. Repair — fleet.Repair keeps still-valid placements without a solve,
//     re-solves only the broken ones, one at a time on the live residual
//     state, migrates what fits, and parks what no longer has a feasible
//     placement.
//  3. Requeue — parked deployments are displaced, not lost: the Reconciler
//     holds their reconstructed admission requests and re-admits them when
//     capacity returns, either on a later capacity-raising event batch or
//     from the background requeue loop (Start/Stop).
//
// Every batch produces a Record — affected/kept/migrated/parked counts,
// the number of displaced deployments, and the wall-clock repair latency.
// Records are not kept in a private log: each is one churn_batch op of the
// reconciler's transition record (beside its counter state), which goes to
// the write-ahead log and the structured event journal, after the fleet's
// own records for the batch's churn_applied events, repairs and requeues.
// GET /v1/events/log is served as a filtered view over the journal — the
// log and the journal can never disagree.
package churn

import (
	"fmt"
	"sync"
	"time"

	"elpc/internal/fleet"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// DefaultRequeueInterval paces the background requeue loop between
// attempts to re-admit parked deployments.
const DefaultRequeueInterval = 2 * time.Second

// DefaultLogCapacity bounds the private journal a standalone reconciler
// creates when Options.Journal is nil (oldest records are dropped first).
const DefaultLogCapacity = 1024

// Options tunes a Reconciler.
type Options struct {
	// Workers is read by nothing.
	//
	// Deprecated: repair re-solves one candidate at a time on the caller's
	// goroutine. bench/trace.go is the last caller that sets it; the field
	// goes with it.
	Workers int
	// RequeueInterval paces the background requeue loop; <= 0 selects
	// DefaultRequeueInterval.
	RequeueInterval time.Duration
	// Journal, when non-nil, receives the reconciler's records (their
	// churn_batch summaries) — normally the service-wide journal the fleet
	// also records into, so batch summaries follow the repair outcomes they
	// caused. When nil, New creates a private journal of DefaultLogCapacity
	// records so Log keeps working standalone.
	Journal *journal.Journal
}

// Record summarizes one applied event batch and its repair cycle. It is the
// summary the batch's churn_batch op carries.
type Record = wal.ChurnSummary

// Stats aggregates the reconciler's lifetime counters.
type Stats struct {
	// Batches counts applied event batches, EventsApplied single events.
	Batches       uint64 `json:"batches"`
	EventsApplied uint64 `json:"events_applied"`
	// Affected/Migrated/ParkEvictions/Requeued accumulate the per-record
	// counts of the same names. RequeueAttempts additionally counts every
	// re-admission try (each costs one admission solve), successful or not.
	Affected        uint64 `json:"affected"`
	Migrated        uint64 `json:"migrated"`
	ParkEvictions   uint64 `json:"park_evictions"`
	Requeued        uint64 `json:"requeued"`
	RequeueAttempts uint64 `json:"requeue_attempts"`
	Displaced       uint64 `json:"displaced"`
	// ParkedNow is the current parked-queue length (a gauge, not a
	// counter).
	ParkedNow int `json:"parked_now"`
	// MeanRepairMs and MaxRepairMs summarize per-batch repair latency.
	MeanRepairMs float64 `json:"mean_repair_ms"`
	MaxRepairMs  float64 `json:"max_repair_ms"`
}

// Reconciler applies churn events to one fleet and keeps its placements
// consistent with the surviving capacity. It works over the fleet.Manager
// surface, so a plain Fleet and a region-sharded ShardedFleet (whose
// ApplyChurn/Affected/Repair route each event to the owning shard) are
// reconciled by the same loop. All methods are safe for concurrent use;
// event batches are serialized so each Record reflects one well-ordered
// mutation of the network.
type Reconciler struct {
	f   fleet.Manager
	opt Options

	mu     sync.Mutex
	seq    int
	jr     *journal.Journal
	parked []fleet.ParkedDeployment
	// wal, when non-nil, receives the reconciler's records (the counter
	// block below, plus a batch's summary) after every batch, requeue pass,
	// or park, so recovered /v1/churn/stats matches the recovered fleet. The
	// fleet's own records are appended by the manager itself.
	wal *wal.Log

	batches     uint64
	events      uint64
	affected    uint64
	migrated    uint64
	parkTotal   uint64
	requeued    uint64
	reqAttempts uint64
	repairMs    float64
	maxMs       float64

	running bool
	stop    chan struct{}
	done    chan struct{}
}

// New builds a Reconciler over the fleet (a plain Fleet or a ShardedFleet).
func New(f fleet.Manager, opt Options) *Reconciler {
	if opt.RequeueInterval <= 0 {
		opt.RequeueInterval = DefaultRequeueInterval
	}
	jr := opt.Journal
	if jr == nil {
		jr = journal.New(DefaultLogCapacity)
	}
	return &Reconciler{f: f, opt: opt, jr: jr}
}

// Fleet returns the reconciler's fleet manager.
func (r *Reconciler) Fleet() fleet.Manager { return r.f }

// UseWAL installs the write-ahead log the reconciler's counter state is
// durably recorded into (nil disables recording). The fleet manager's log
// is installed separately via fleet.Manager.UseWAL.
func (r *Reconciler) UseWAL(l *wal.Log) {
	r.mu.Lock()
	r.wal = l
	r.mu.Unlock()
}

// churnStateLocked snapshots the reconciler's durable counter state. Caller
// holds r.mu.
func (r *Reconciler) churnStateLocked() *wal.ChurnState {
	return &wal.ChurnState{
		Seq:             r.seq,
		Batches:         r.batches,
		Events:          r.events,
		Affected:        r.affected,
		Migrated:        r.migrated,
		ParkTotal:       r.parkTotal,
		Requeued:        r.requeued,
		RequeueAttempts: r.reqAttempts,
		RepairMs:        r.repairMs,
		MaxRepairMs:     r.maxMs,
	}
}

// emitLocked hands one reconciler record — the counter state plus the given
// ops — to the journal and the log, and waits for its commit. Caller holds
// r.mu.
func (r *Reconciler) emitLocked(ops ...wal.Op) {
	rec := &wal.Record{Scope: wal.ScopeChurn, Churn: r.churnStateLocked(), Ops: ops}
	if lsn := r.jr.Append(rec, r.wal); lsn != 0 {
		_ = r.wal.Commit(lsn)
	}
}

// raisesCapacity reports whether the batch can make room it did not take
// away: node/link restores, or upward drift.
func raisesCapacity(events []model.ChurnEvent) bool {
	for _, ev := range events {
		switch ev.Kind {
		case model.NodeUp, model.LinkRestore:
			return true
		case model.CapacityDrift:
			if ev.Factor > 1 {
				return true
			}
		}
	}
	return false
}

// Apply applies one event batch transactionally and runs the incremental
// repair cycle. On error (unknown target, conflicting event, bad factor)
// the network, the fleet, and the log are unchanged. The returned Record
// is also appended to the log.
func (r *Reconciler) Apply(events []model.ChurnEvent) (Record, error) {
	if len(events) == 0 {
		return Record{}, fmt.Errorf("churn: empty event batch")
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	start := time.Now()
	if err := r.f.ApplyChurn(events); err != nil {
		return Record{}, fmt.Errorf("churn: %w", err)
	}
	affected := r.f.Affected(events)
	rep := r.f.Repair(affected)
	r.parked = append(r.parked, rep.Parked...)

	requeued := 0
	if len(r.parked) > 0 && raisesCapacity(events) {
		requeued = r.requeueLocked()
	}

	rec := Record{
		Seq:       r.seq + 1,
		Events:    append([]model.ChurnEvent(nil), events...),
		Affected:  rep.Checked,
		Kept:      rep.Kept,
		Resolved:  rep.Resolved,
		Migrated:  rep.Migrated,
		Parked:    len(rep.Parked),
		Requeued:  requeued,
		Displaced: rep.Displaced(),
		RepairMs:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	r.seq++
	r.batches++
	r.events += uint64(len(events))
	r.affected += uint64(rec.Affected)
	r.migrated += uint64(rec.Migrated)
	r.parkTotal += uint64(rec.Parked)
	r.requeued += uint64(requeued)
	r.repairMs += rec.RepairMs
	if rec.RepairMs > r.maxMs {
		r.maxMs = rec.RepairMs
	}
	batchesTotal.Inc()
	eventsTotal.Add(uint64(len(events)))
	requeuedTotal.Add(uint64(requeued))
	repairSeconds.Observe(rec.RepairMs / 1000)
	r.emitLocked(wal.Op{Kind: wal.ChurnBatch, Summary: &rec})
	return rec, nil
}

// requeueLocked tries to re-admit every parked deployment once, in parking
// order, keeping the ones the fleet still rejects. Caller holds r.mu.
func (r *Reconciler) requeueLocked() int {
	if len(r.parked) == 0 {
		return 0
	}
	kept := r.parked[:0]
	admitted := 0
	for _, p := range r.parked {
		r.reqAttempts++
		req := p.Req
		req.RequeueOf = p.ID
		if _, err := r.f.Deploy(req); err != nil {
			kept = append(kept, p)
			continue
		}
		admitted++
	}
	r.parked = kept
	return admitted
}

// Requeue tries to re-admit every parked deployment once and returns how
// many were admitted. The background loop calls it on every tick; callers
// may invoke it directly after out-of-band capacity changes.
func (r *Reconciler) Requeue() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	before := r.reqAttempts
	n := r.requeueLocked()
	r.requeued += uint64(n)
	requeuedTotal.Add(uint64(n))
	if r.reqAttempts != before {
		r.emitLocked()
	}
	return n
}

// Park enqueues externally displaced deployments (the fleet's preemption
// queue, drained via fleet.Manager.TakePreempted) into the parked queue, so
// the background requeue loop re-admits them when capacity returns — a
// preempted best-effort tenant is displaced, not lost, exactly like a
// repair-parked one.
func (r *Reconciler) Park(ps []fleet.ParkedDeployment) {
	if len(ps) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.parked = append(r.parked, ps...)
	r.parkTotal += uint64(len(ps))
	r.emitLocked()
}

// AdoptPreempted drains the fleet's preemption queue into the parked queue
// and returns how many deployments it adopted. The service's drain loop
// calls it so preemption victims enter the requeue cycle (and the WAL's
// churn-state stream) exactly like repair-parked ones.
func (r *Reconciler) AdoptPreempted() int {
	ps := r.f.TakePreempted()
	r.Park(ps)
	return len(ps)
}

// Restore reinstates recovered state: the parked pool (in requeue order)
// and the last logged counter block. It is called once on boot, before
// Start.
func (r *Reconciler) Restore(parked []fleet.ParkedDeployment, st *wal.ChurnState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.parked = append(r.parked, parked...)
	if st != nil {
		r.seq = st.Seq
		r.batches = st.Batches
		r.events = st.Events
		r.affected = st.Affected
		r.migrated = st.Migrated
		r.parkTotal = st.ParkTotal
		r.requeued = st.Requeued
		r.reqAttempts = st.RequeueAttempts
		r.repairMs = st.RepairMs
		r.maxMs = st.MaxRepairMs
	}
}

// CaptureSnapshot captures a compacted snapshot of the whole control
// plane's durable state: the fleet's scopes (via Manager.CaptureSnapshot),
// the full parked pool — the reconciler's queue first, then any
// not-yet-adopted preemption victims still in the fleet's queue — and the
// reconciler's counter block.
func (r *Reconciler) CaptureSnapshot(l *wal.Log) *wal.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := r.f.CaptureSnapshot(l)
	snap.Parked = append(fleet.ParkedStates(r.parked), snap.Parked...)
	snap.Churn = r.churnStateLocked()
	return snap
}

// Parked returns a copy of the parked queue, oldest first.
func (r *Reconciler) Parked() []fleet.ParkedDeployment {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]fleet.ParkedDeployment(nil), r.parked...)
}

// Log returns the most recent records, oldest first; limit <= 0 returns
// every retained record. The log is a filtered view over the journal's
// churn_batch events (whose payloads carry the records), so its retention
// is bounded by the journal's capacity and the two can never disagree.
func (r *Reconciler) Log(limit int) []Record {
	evs := r.jr.Filter(wal.ChurnBatch, limit)
	out := make([]Record, 0, len(evs))
	for _, ev := range evs {
		if rec, ok := ev.Payload.(Record); ok {
			out = append(out, rec)
		}
	}
	return out
}

// Stats snapshots the lifetime counters.
func (r *Reconciler) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Batches:         r.batches,
		EventsApplied:   r.events,
		Affected:        r.affected,
		Migrated:        r.migrated,
		ParkEvictions:   r.parkTotal,
		Requeued:        r.requeued,
		RequeueAttempts: r.reqAttempts,
		Displaced:       r.migrated + r.parkTotal,
		ParkedNow:       len(r.parked),
		MaxRepairMs:     r.maxMs,
	}
	if r.batches > 0 {
		s.MeanRepairMs = r.repairMs / float64(r.batches)
	}
	return s
}

// Start launches the background requeue loop: every RequeueInterval it
// tries to re-admit parked deployments (capacity may have drifted back
// without an explicit restore event). Start is idempotent while running.
func (r *Reconciler) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return
	}
	r.running = true
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.loop(r.opt.RequeueInterval, r.stop, r.done)
}

// loop is the background requeue goroutine.
func (r *Reconciler) loop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			r.Requeue()
		}
	}
}

// Stop halts the background requeue loop and waits for it to exit; it is
// idempotent and safe to call when the loop never started. The reconciler
// remains usable afterwards (Apply/Requeue still work), so shutdown order
// does not matter.
func (r *Reconciler) Stop() {
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return
	}
	r.running = false
	stop, done := r.stop, r.done
	r.mu.Unlock()
	close(stop)
	<-done
}
