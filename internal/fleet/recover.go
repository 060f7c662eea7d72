package fleet

import (
	"fmt"

	"elpc/internal/model"
	"elpc/internal/wal"
)

// This file is the read side of the write-ahead log: rebuilding a fleet
// manager from a recovered snapshot plus the replayed log suffix. Replay is
// a logical redo — records carry complete placement outcomes, so recovery
// rebuilds each reservation arithmetically (model.MappingReservation) and
// never re-runs a solver. Replay happens before UseWAL/UseJournal are
// installed on the rebuilt manager, so it neither re-logs nor re-journals.

// Recovered is the outcome of replaying a wal.Recovery: the rebuilt manager
// plus the state that lives outside it (the reconciler's parked pool and
// counter block, both owned by internal/churn at runtime).
type Recovered struct {
	// Manager is the rebuilt fleet manager (nil when the log contained no
	// install — a server that never took traffic).
	Manager *ShardedFleet
	// Parked is the recovered parked pool, in requeue order.
	Parked []ParkedDeployment
	// Churn is the reconciler's last logged counter state, if any.
	Churn *wal.ChurnState
	// Install echoes the install the manager was rebuilt from.
	Install *wal.InstallState
}

// rebuild constructs the manager a durable install record describes,
// exactly as the service's install path does (partitioning is
// deterministic from the network and shard count).
func rebuild(ins *wal.InstallState) (*ShardedFleet, error) {
	if ins.Network == nil {
		return nil, fmt.Errorf("fleet: install record has no network")
	}
	return NewSharded(ins.Network, ins.Shards)
}

// Recover rebuilds fleet state from a wal.Recovery: it restores the
// snapshot (if any), replays every log record after it in sequence order,
// and recomputes the residual loads once at the end.
func Recover(rec *wal.Recovery) (*Recovered, error) {
	out := &Recovered{}
	if rec.Snapshot != nil {
		if err := restoreSnapshot(out, rec.Snapshot); err != nil {
			return nil, err
		}
	}
	for i := range rec.Records {
		if err := applyRecord(out, &rec.Records[i]); err != nil {
			return nil, fmt.Errorf("fleet: replay record %d: %w", rec.Records[i].Seq, err)
		}
	}
	if s := out.Manager; s != nil {
		// Recompute every load once, with the same ordered accumulation the
		// live path maintains incrementally.
		s.lockAll()
		s.refreshLocked()
		s.unlockAll()
	}
	return out, nil
}

// applyRecord redoes one logged transition against the partially-rebuilt
// state.
func applyRecord(out *Recovered, r *wal.Record) error {
	if r.Install != nil {
		m, err := rebuild(r.Install)
		if err != nil {
			return err
		}
		out.Manager = m
		out.Install = r.Install
		out.Parked = nil
		out.Churn = nil
		return nil
	}
	if r.Kind == wal.KindChurnState {
		out.Churn = r.Churn
		return nil
	}
	if out.Manager == nil {
		return fmt.Errorf("record precedes any install")
	}
	// Churn ops replay through the live ApplyChurn path (the WAL is not yet
	// installed on the rebuilt manager, so nothing re-logs); placement ops
	// and counters apply to the record's scope below.
	mutating := false
	for _, op := range r.Ops {
		if op.Churn != nil {
			if err := out.Manager.ApplyChurn(op.Churn); err != nil {
				return fmt.Errorf("churn: %w", err)
			}
			continue
		}
		mutating = true
	}
	if !mutating && r.Counters == nil {
		return nil
	}
	f, err := out.Manager.scopeRegion(r.Scope)
	if err != nil {
		return err
	}
	return f.applyWALRecord(r, out)
}

// applyWALRecord redoes one region-scoped record: ordered ops, then the
// scope's counter block.
func (f *region) applyWALRecord(r *wal.Record, out *Recovered) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.applyOpsLocked(r.Ops, out); err != nil {
		return err
	}
	if r.Counters != nil {
		f.applyCountersLocked(*r.Counters)
	}
	return nil
}

// applyOpsLocked redoes a record's placement ops in order. Churn ops were
// already applied by the caller. Caller holds f.mu.
func (f *region) applyOpsLocked(ops []wal.Op, out *Recovered) error {
	for _, op := range ops {
		switch {
		case op.Deploy != nil:
			if err := f.restoreDeployLocked(op.Deploy, out); err != nil {
				return err
			}
		case op.Remove != "":
			delete(f.deps, op.Remove)
			f.order = removeID(f.order, op.Remove)
		case op.Park != nil:
			out.Parked = append(out.Parked, parkedFromState(*op.Park))
		}
	}
	return nil
}

// restoreDeployLocked redoes one admission or placement update. Residual
// loads are not touched here — Recover recomputes them once, in
// admission order, exactly like the live path's recompute. Caller holds
// f.mu.
func (f *region) restoreDeployLocked(ds *wal.DeploymentState, out *Recovered) error {
	if ds.Update {
		d, ok := f.deps[ds.ID]
		if !ok {
			return fmt.Errorf("update for unknown deployment %q", ds.ID)
		}
		res, err := model.MappingReservation(f.base, d.pipe, model.NewMapping(ds.Assignment), ds.ReservedFPS)
		if err != nil {
			return fmt.Errorf("reservation for %q: %w", ds.ID, err)
		}
		res.Class = ds.ResClass
		d.Assignment = append([]model.NodeID(nil), ds.Assignment...)
		d.Mapping = ds.Mapping
		d.DelayMs = ds.DelayMs
		d.RateFPS = ds.RateFPS
		d.reservation = res
		return nil
	}
	d, err := deploymentFromState(f.base, ds)
	if err != nil {
		return err
	}
	f.deps[d.ID] = d
	f.order = append(f.order, d.ID)
	if ds.RequeueOf != "" {
		out.Parked = removeParked(out.Parked, ds.RequeueOf)
	}
	return nil
}

// deploymentFromState rebuilds a full in-memory deployment, reservation
// included, from its durable form.
func deploymentFromState(base *model.Network, ds *wal.DeploymentState) (*Deployment, error) {
	if ds.Pipeline == nil {
		return nil, fmt.Errorf("deployment %q has no pipeline", ds.ID)
	}
	res, err := model.MappingReservation(base, ds.Pipeline, model.NewMapping(ds.Assignment), ds.ReservedFPS)
	if err != nil {
		return nil, fmt.Errorf("reservation for %q: %w", ds.ID, err)
	}
	res.Class = ds.ResClass
	return &Deployment{
		ID:          ds.ID,
		Tenant:      ds.Tenant,
		Objective:   model.Objective(ds.Objective),
		Assignment:  append([]model.NodeID(nil), ds.Assignment...),
		Mapping:     ds.Mapping,
		DelayMs:     ds.DelayMs,
		RateFPS:     ds.RateFPS,
		ReservedFPS: ds.ReservedFPS,
		SLO: SLO{
			MaxDelayMs: ds.SLOMaxDelayMs,
			MinRateFPS: ds.SLOMinRateFPS,
			Class:      Class(ds.SLOClass),
		},
		Seq:         ds.Seq,
		pipe:        ds.Pipeline,
		cost:        model.CostOptions{IncludeMLDInDelay: ds.CostMLD},
		src:         ds.Src,
		dst:         ds.Dst,
		reservation: res,
	}, nil
}

// applyCountersLocked overwrites the region's counter state with a record's
// block (last record wins). Caller holds f.mu.
func (f *region) applyCountersLocked(c wal.Counters) {
	f.admitted = c.Admitted
	f.rejected = c.Rejected
	f.released = c.Released
	f.moves = c.Moves
	f.repaired = c.Repaired
	f.repairMoves = c.RepairMoves
	f.parkEvicts = c.ParkEvictions
	f.preempts = c.Preemptions
	f.solves.Store(c.Solves)
	f.seq = c.Seq
	f.fallbacks = c.Fallbacks
	f.tpcRetries = c.TPCRetries
	f.tpcAborts = c.TPCAborts
}

// restoreSnapshot rebuilds the manager and every scope's state from a
// compacted snapshot.
func restoreSnapshot(out *Recovered, snap *wal.Snapshot) error {
	if snap.Install == nil {
		return fmt.Errorf("fleet: snapshot %d has no install", snap.Seq)
	}
	m, err := rebuild(snap.Install)
	if err != nil {
		return err
	}
	out.Manager = m
	out.Install = snap.Install
	out.Parked = ParkedFromStates(snap.Parked)
	out.Churn = snap.Churn
	for i := range snap.Scopes {
		sc := &snap.Scopes[i]
		f, err := m.scopeRegion(sc.Scope)
		if err != nil {
			return err
		}
		if err := f.restoreScopeState(sc); err != nil {
			return err
		}
	}
	return nil
}

// restoreScopeState rebuilds one region from its snapshot block: churn
// capacity factors, counters, and deployments in admission order.
func (f *region) restoreScopeState(sc *wal.ScopeState) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(sc.NodeFactors) > 0 || len(sc.LinkFactors) > 0 {
		if err := f.residual.SetCapacityFactors(sc.NodeFactors, sc.LinkFactors); err != nil {
			return fmt.Errorf("fleet: snapshot scope %q factors: %w", sc.Scope, err)
		}
	}
	f.applyCountersLocked(sc.Counters)
	for i := range sc.Deploys {
		d, err := deploymentFromState(f.base, &sc.Deploys[i])
		if err != nil {
			return fmt.Errorf("fleet: snapshot scope %q: %w", sc.Scope, err)
		}
		f.deps[d.ID] = d
		f.order = append(f.order, d.ID)
	}
	return nil
}

// captureScopeLocked snapshots the region's durable state: churn factors,
// counters, and deployments in admission order. Caller holds f.mu.
func (f *region) captureScopeLocked() wal.ScopeState {
	node, link := f.residual.CapacityFactors()
	sc := wal.ScopeState{
		Scope:       f.scope,
		NodeFactors: node,
		LinkFactors: link,
		Counters:    f.countersLocked(),
	}
	for _, id := range f.order {
		sc.Deploys = append(sc.Deploys, *deployState(f.deps[id], ""))
	}
	return sc
}

// CaptureSnapshot captures a consistent compacted snapshot of the manager's
// durable state, stamped with the log's last assigned sequence number. It
// holds every lock for the duration, so the snapshot sits at a record
// boundary: every record with Seq <= snapshot.Seq is fully reflected,
// nothing after it is. Pending preemption-queue entries are captured (not
// drained) so a concurrent snapshot never loses them; internal/churn's
// CaptureSnapshot prepends the reconciler's own parked pool. A one-shard
// fleet's coordinator never holds state and is left out.
func (s *ShardedFleet) CaptureSnapshot(l *wal.Log) *wal.Snapshot {
	s.lockAll()
	defer s.unlockAll()
	snap := &wal.Snapshot{
		Seq:     l.LastSeq(),
		Install: &wal.InstallState{Network: s.base, Shards: s.part.K},
	}
	scoped := s.regions
	if s.part.K == 1 {
		scoped = s.shards
	}
	for _, f := range scoped {
		snap.Scopes = append(snap.Scopes, f.captureScopeLocked())
	}
	for _, sh := range s.shards {
		snap.Parked = append(snap.Parked, ParkedStates(sh.preemptedQ)...)
	}
	return snap
}

// removeParked deletes the first parked entry with the given ID, preserving
// requeue order.
func removeParked(ps []ParkedDeployment, id string) []ParkedDeployment {
	for i := range ps {
		if ps[i].ID == id {
			return append(ps[:i], ps[i+1:]...)
		}
	}
	return ps
}
