package fleet

import (
	"fmt"

	"elpc/internal/model"
	"elpc/internal/wal"
)

// This file wires the write-ahead log through the fleet's regions. The
// contract is one wal.Record per mutating lock epoch: a method that takes a
// region lock opens a record (beginTxnLocked), the mutation sites append
// chronological ops to it while the lock is held — so log order always
// matches application order — and endTxnLocked stamps the scope's counter
// state, appends the record, and returns the commit barrier the caller runs
// after releasing the lock. Commit waits only for the buffered write (plus
// fsync in wal.Options.Sync mode), so the critical section stays
// syscall-free and concurrent epochs group-commit behind one write.
//
// Records carry complete outcomes (assignment, scored delay/rate, reserved
// demand, reservation class), not inputs: replay is a logical redo that
// rebuilds each reservation arithmetically and never re-runs a solver, which
// is what makes recovery byte-identical and fast.

// UseWAL installs the write-ahead log every mutating transition is durably
// recorded into before it is acknowledged. Each region logs its own epochs
// under its scope ("s<i>" on shard i, "" on the only shard of a one-shard
// fleet, "x" on the coordinator); whole-fleet churn batches are logged once
// at manager level. A nil log (the default) disables recording. Install
// before traffic: epochs already inside a lock when the log appears are not
// recorded.
func (s *ShardedFleet) UseWAL(l *wal.Log) {
	for _, f := range s.regions {
		f.mu.Lock()
		f.wal = l
		f.mu.Unlock()
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

// beginTxnLocked opens the WAL record for the current lock epoch. Caller
// holds f.mu.
func (f *region) beginTxnLocked(kind wal.Kind) {
	if f.wal == nil {
		return
	}
	f.txn = &wal.Record{Kind: kind, Scope: f.scope}
	f.txnPre = f.countersLocked()
}

// endTxnLocked closes the epoch's record: epochs that neither mutated state
// nor moved a counter are skipped (a pure Describe-shaped epoch), everything
// else — including counter-only epochs like rejections, whose Rejected and
// Solves deltas recovered Stats must reproduce — is appended. The returned
// barrier is never nil; the caller invokes it after releasing f.mu.
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
	lsn := f.wal.Append(txn)
	return func() { _ = f.wal.Commit(lsn) }
}

// txnDeploy records an admission in the current epoch (no-op outside one).
func (f *region) txnDeploy(d *Deployment, requeueOf string) {
	if f.txn == nil {
		return
	}
	f.txn.Ops = append(f.txn.Ops, wal.Op{Deploy: deployState(d, requeueOf)})
}

// txnUpdate records a placement change (repair migration, rebalance move).
func (f *region) txnUpdate(d *Deployment) {
	if f.txn == nil {
		return
	}
	f.txn.Ops = append(f.txn.Ops, wal.Op{Deploy: updateState(d)})
}

// txnRemove records a deployment leaving the fleet (release, park, preempt).
func (f *region) txnRemove(id string) {
	if f.txn == nil {
		return
	}
	f.txn.Ops = append(f.txn.Ops, wal.Op{Remove: id})
}

// txnPark records a displaced deployment entering the parked pool.
func (f *region) txnPark(p ParkedDeployment) {
	if f.txn == nil {
		return
	}
	ps := parkedState(p)
	f.txn.Ops = append(f.txn.Ops, wal.Op{Park: &ps})
}

// walChurnLocked logs one whole-fleet churn batch as a single manager-level
// record (scope "", no counters — replay routes it back through ApplyChurn,
// which re-splits events across shards and the boundary ledger exactly like
// the live path). Caller holds every lock, so the record cannot interleave
// with any region's epoch. Every region shares one log; the coordinator's
// handle is read under its lock. An empty batch changes nothing and logs
// nothing (its record would carry no churn op to replay).
func (s *ShardedFleet) walChurnLocked(events []model.ChurnEvent) func() {
	l := s.coord.wal
	if l == nil || len(events) == 0 {
		return func() {}
	}
	rec := &wal.Record{
		Kind: wal.KindChurn,
		Ops:  []wal.Op{{Churn: append([]model.ChurnEvent(nil), events...)}},
	}
	lsn := l.Append(rec)
	return func() { _ = l.Commit(lsn) }
}

// AppendInstall durably logs a fleet install — the base network and shard
// count — and waits for it to commit, so recovery can always rebuild the
// manager before replaying the mutations that follow.
func AppendInstall(l *wal.Log, net *model.Network, shards int) error {
	lsn := l.Append(&wal.Record{
		Kind:    wal.KindInstall,
		Install: &wal.InstallState{Network: net, Shards: shards},
	})
	return l.Commit(lsn)
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
		ResClass:      d.reservation.Class,
		Seq:           d.Seq,
		RequeueOf:     requeueOf,
	}
}

// updateState converts a placement change to its durable form: only the
// fields a migration rewrites, with Update set so replay re-places the
// stored deployment instead of inserting a new one.
func updateState(d *Deployment) *wal.DeploymentState {
	return &wal.DeploymentState{
		ID:          d.ID,
		Assignment:  append([]model.NodeID(nil), d.Assignment...),
		Mapping:     d.Mapping,
		DelayMs:     d.DelayMs,
		RateFPS:     d.RateFPS,
		ReservedFPS: d.ReservedFPS,
		ResClass:    d.reservation.Class,
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
