package fleet

import (
	"fmt"

	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// This file closes each lock epoch into one transition record. The
// contract is one wal.Record per mutating lock epoch: a method that takes a
// region lock opens a record (beginTxnLocked), each transition site appends
// exactly one typed op to it while the lock is held — so record order
// always matches application order — and endTxnLocked stamps the scope's
// counter state and hands the record to the installed sink: the
// write-ahead log, the journal, or both. The returned commit barrier is run
// after releasing the lock. Commit waits only for the buffered write (plus
// fsync in wal.Options.Sync mode), so the critical section stays
// syscall-free and concurrent epochs group-commit behind one write.
//
// Records carry complete outcomes (assignment, scored delay/rate, reserved
// demand, reservation class), not inputs: replay is a logical redo that
// rebuilds each reservation arithmetically and never re-runs a solver, which
// is what makes recovery byte-identical and fast. Ops that change no
// replayed state (rejections, kept placements, two-phase notes) are logged
// too, so the journal can be served as a projection of the records alone.

// sink is where closed epoch records go. Every region of a manager shares
// one; a nil *sink means neither a log nor a journal is installed.
type sink struct {
	wal *wal.Log
	jr  *journal.Journal
}

// emit hands a closed record to the journal and the log and returns the
// barrier that waits for its durable commit (a no-op without a log).
func (k *sink) emit(rec *wal.Record) func() {
	lsn := k.jr.Append(rec, k.wal)
	if lsn == 0 {
		return func() {}
	}
	return func() { _ = k.wal.Commit(lsn) }
}

// UseWAL installs the write-ahead log every mutating transition is durably
// recorded into before it is acknowledged. Each region logs its own epochs
// under its scope ("s<i>" on shard i, "" on the only shard of a one-shard
// fleet, "x" on the coordinator); whole-fleet churn batches are logged once
// at manager level. A nil log (the default) disables logging. Install
// before traffic: epochs already inside a lock when the log appears are not
// recorded.
func (s *ShardedFleet) UseWAL(l *wal.Log) { s.useSink(func(k *sink) { k.wal = l }) }

// UseJournal installs the event journal every transition record is
// projected onto (nil disables it), with the same caveat as UseWAL.
func (s *ShardedFleet) UseJournal(j *journal.Journal) { s.useSink(func(k *sink) { k.jr = j }) }

// useSink applies set to a copy of the current sink and installs the result
// on every region, or nil when it holds neither a log nor a journal.
func (s *ShardedFleet) useSink(set func(*sink)) {
	s.lockAll()
	defer s.unlockAll()
	var next sink
	if cur := s.coord.out; cur != nil {
		next = *cur
	}
	set(&next)
	out := &next
	if next.wal == nil && next.jr == nil {
		out = nil
	}
	for _, f := range s.regions {
		f.out = out
	}
}

// countersLocked snapshots the region's durable counter state. Caller holds
// f.mu.
func (f *region) countersLocked() wal.Counters {
	return wal.Counters{
		Admitted:      f.admitted,
		Rejected:      f.rejected,
		Released:      f.released,
		Moves:         f.moves,
		Repaired:      f.repaired,
		RepairMoves:   f.repairMoves,
		ParkEvictions: f.parkEvicts,
		Preemptions:   f.preempts,
		Solves:        f.solves.Load(),
		Seq:           f.seq,
		Fallbacks:     f.fallbacks,
		TPCRetries:    f.tpcRetries,
		TPCAborts:     f.tpcAborts,
	}
}

// beginTxnLocked opens the record for the current lock epoch. Caller holds
// f.mu.
func (f *region) beginTxnLocked() {
	if f.out == nil {
		return
	}
	f.txn = &wal.Record{Scope: f.scope}
	f.txnPre = f.countersLocked()
}

// endTxnLocked closes the epoch's record: epochs that neither logged an op
// nor moved a counter are skipped (a pure Describe-shaped epoch), everything
// else — including counter-only epochs like a rebalance that moved nothing,
// whose Solves delta recovered Stats must reproduce — is handed to the sink.
// The returned barrier is never nil; the caller invokes it after releasing
// f.mu.
func (f *region) endTxnLocked() func() {
	txn := f.txn
	f.txn = nil
	if txn == nil {
		return func() {}
	}
	cur := f.countersLocked()
	if len(txn.Ops) == 0 && cur == f.txnPre {
		return func() {}
	}
	txn.Counters = &cur
	return f.out.emit(txn)
}

// logOp appends one transition to the current epoch's record (no-op outside
// one).
func (f *region) logOp(op wal.Op) {
	if f.txn != nil {
		f.txn.Ops = append(f.txn.Ops, op)
	}
}

// logChurnLocked records one whole-fleet churn batch as a single
// manager-level record (scope "", no counters — replay routes it back
// through ApplyChurn, which commits it to the churn ledger exactly like the
// live path), so its churn_applied events precede the repairs the batch
// causes. Caller holds every lock, so the
// record cannot interleave with any region's epoch; the sink is read under
// the coordinator's. An empty batch changes nothing and records nothing.
func (s *ShardedFleet) logChurnLocked(events []model.ChurnEvent) func() {
	out := s.coord.out
	if out == nil || len(events) == 0 {
		return func() {}
	}
	return out.emit(&wal.Record{
		Ops: []wal.Op{{Kind: wal.ChurnApplied, Churn: append([]model.ChurnEvent(nil), events...)}},
	})
}

// InstallRecord is the record of a fleet install: the base network and
// shard count recovery rebuilds the manager from, plus the install's
// shard_reconfig note.
func InstallRecord(net *model.Network, shards int) *wal.Record {
	return &wal.Record{
		Install: &wal.InstallState{Network: net, Shards: shards},
		Ops: []wal.Op{{
			Kind:   wal.ShardReconfig,
			Detail: fmt.Sprintf("installed network: %d nodes, %d links, %d shards", net.N(), net.M(), max(shards, 1)),
		}},
	}
}

// AppendInstall durably logs a fleet install and waits for it to commit, so
// recovery can always rebuild the manager before replaying the mutations
// that follow.
func AppendInstall(l *wal.Log, net *model.Network, shards int) error {
	return l.Commit(l.Append(InstallRecord(net, shards)))
}

// deployState converts an admitted deployment to its durable form; requeueOf
// names the parked entry the admission drained, if any.
func deployState(d *Deployment, requeueOf string) *wal.DeploymentState {
	return &wal.DeploymentState{
		ID:            d.ID,
		Tenant:        d.Tenant,
		Objective:     int(d.Objective),
		Src:           d.src,
		Dst:           d.dst,
		Pipeline:      d.pipe,
		SLOMaxDelayMs: d.SLO.MaxDelayMs,
		SLOMinRateFPS: d.SLO.MinRateFPS,
		SLOClass:      string(d.SLO.Class),
		CostMLD:       d.cost.IncludeMLDInDelay,
		Assignment:    append([]model.NodeID(nil), d.Assignment...),
		Mapping:       d.Mapping,
		DelayMs:       d.DelayMs,
		RateFPS:       d.RateFPS,
		ReservedFPS:   d.ReservedFPS,
		Seq:           d.Seq,
		RequeueOf:     requeueOf,
	}
}

// updateState converts a placement change to its durable form: the
// deployment's identity plus the fields a migration rewrites, with Update
// set so replay re-places the stored deployment instead of inserting a new
// one.
func updateState(d *Deployment) *wal.DeploymentState {
	return &wal.DeploymentState{
		ID:          d.ID,
		Tenant:      d.Tenant,
		Assignment:  append([]model.NodeID(nil), d.Assignment...),
		Mapping:     d.Mapping,
		DelayMs:     d.DelayMs,
		RateFPS:     d.RateFPS,
		ReservedFPS: d.ReservedFPS,
		Update:      true,
	}
}

// parkedState converts a parked deployment to its durable form.
func parkedState(p ParkedDeployment) wal.ParkedState {
	ps := wal.ParkedState{
		ID:            p.ID,
		Tenant:        p.Tenant,
		Reason:        p.Reason,
		Objective:     int(p.Req.Objective),
		Src:           p.Req.Src,
		Dst:           p.Req.Dst,
		Pipeline:      p.Req.Pipeline,
		SLOMaxDelayMs: p.Req.SLO.MaxDelayMs,
		SLOMinRateFPS: p.Req.SLO.MinRateFPS,
		SLOClass:      string(p.Req.SLO.Class),
	}
	if p.Req.Cost != nil {
		mld := p.Req.Cost.IncludeMLDInDelay
		ps.CostMLD = &mld
	}
	return ps
}

// parkedFromState rebuilds a parked deployment — identity plus re-admission
// request — from its durable form.
func parkedFromState(ps wal.ParkedState) ParkedDeployment {
	p := ParkedDeployment{
		ID:     ps.ID,
		Tenant: ps.Tenant,
		Reason: ps.Reason,
		Req: Request{
			Tenant:    ps.Tenant,
			Pipeline:  ps.Pipeline,
			Src:       ps.Src,
			Dst:       ps.Dst,
			Objective: model.Objective(ps.Objective),
			SLO: SLO{
				MaxDelayMs: ps.SLOMaxDelayMs,
				MinRateFPS: ps.SLOMinRateFPS,
				Class:      Class(ps.SLOClass),
			},
		},
	}
	if ps.CostMLD != nil {
		p.Req.Cost = &model.CostOptions{IncludeMLDInDelay: *ps.CostMLD}
	}
	return p
}

// ParkedStates converts a parked pool to its durable snapshot form, in
// requeue order (used by internal/churn's snapshot capture).
func ParkedStates(ps []ParkedDeployment) []wal.ParkedState {
	out := make([]wal.ParkedState, 0, len(ps))
	for _, p := range ps {
		out = append(out, parkedState(p))
	}
	return out
}

// ParkedFromStates rebuilds a parked pool from its durable snapshot form.
func ParkedFromStates(states []wal.ParkedState) []ParkedDeployment {
	out := make([]ParkedDeployment, 0, len(states))
	for _, ps := range states {
		out = append(out, parkedFromState(ps))
	}
	return out
}

// scopeRegion resolves a WAL record scope to the region that logs under it.
func (s *ShardedFleet) scopeRegion(scope string) (*region, error) {
	for _, f := range s.regions {
		if f.scope == scope {
			return f, nil
		}
	}
	return nil, fmt.Errorf("fleet: unknown wal scope %q", scope)
}
