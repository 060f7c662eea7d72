package fleet

import (
	"fmt"
	"sort"
	"time"

	"elpc/internal/engine"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// This file is a region's churn-facing surface: identifying which
// deployments a batch of network-mutation events touches, and the
// incremental Repair pass that re-solves only those — the mechanism
// internal/churn's reconciliation loop is built on (ShardedFleet.ApplyChurn
// applies the events themselves).

// Affected returns, in admission order, the IDs of deployments whose
// placements touch any node or link named by the events: a node is touched
// when any module runs on it (even a zero-cost source or sink that reserves
// no capacity there), a link when any consecutive module groups traverse
// it. This is the incremental-repair frontier: deployments not in the set
// are provably unaffected by the batch (their placements use no mutated
// element), so Repair never needs to look at them.
func (f *region) Affected(events []model.ChurnEvent) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	nodes, links := churnTargets(events)
	var out []string
	for _, id := range f.order {
		if placementTouches(f.base, f.deps[id], nodes, links) {
			out = append(out, id)
		}
	}
	return out
}

// churnTargets collects the node and link sets a batch of events mutates.
func churnTargets(events []model.ChurnEvent) (nodes map[model.NodeID]bool, links map[int]bool) {
	nodes = make(map[model.NodeID]bool)
	links = make(map[int]bool)
	for _, ev := range events {
		if ev.OnLink() {
			links[ev.Link] = true
		} else {
			nodes[ev.Node] = true
		}
	}
	return nodes, links
}

// placementTouches reports whether d's mapping uses any of the given nodes
// or links of base.
func placementTouches(base *model.Network, d *Deployment, nodes map[model.NodeID]bool, links map[int]bool) bool {
	groups := model.NewMapping(d.Assignment).Groups()
	for gi, g := range groups {
		if nodes[g.Node] {
			return true
		}
		if gi+1 < len(groups) && len(links) > 0 {
			if link, ok := base.LinkBetween(g.Node, groups[gi+1].Node); ok && links[link.ID] {
				return true
			}
		}
	}
	return false
}

// requestOf reconstructs the admission request of a live deployment so a
// parked deployment can be re-queued later with identical parameters. The
// warm state rides along: a parked or preempted deployment keeps its DP
// grids, so the requeue admission solves warm.
func requestOf(d *Deployment) Request {
	cost := d.cost
	return Request{
		Tenant:    d.Tenant,
		Pipeline:  d.pipe,
		Src:       d.src,
		Dst:       d.dst,
		Objective: d.Objective,
		SLO:       d.SLO,
		Cost:      &cost,
		warm:      d.warm,
	}
}

// placementScoreLocked evaluates d's current mapping on snap (the region's
// scoring snapshot with d's own reservation removed) and reports whether the
// placement is still valid: its reservation fits the (possibly reduced)
// capacity factors and the placement guard's host and SLO checks (downHost,
// shortfall) pass. Caller holds f.mu with d's reservation zeroed and loads
// recomputed; saved is the reservation under test.
func (f *region) placementScoreLocked(d *Deployment, snap *model.Network, saved model.Reservation) (delay, rate float64, valid bool) {
	delay, rate = f.scoreLocked(snap, d.pipe, &model.Mapping{Assign: d.Assignment}, d.cost)
	valid = f.residual.Fits(saved) &&
		downHost(f.residual, d.Assignment) == "" &&
		shortfall(delay, rate, d.SLO, d.ReservedFPS) == ""
	return delay, rate, valid
}

// RepairOptions tunes a Repair pass.
type RepairOptions struct {
	// Workers > 1 precomputes the broken candidates' re-solves concurrently
	// over the installed engine pool (UsePool; a transient pool of Workers
	// when none is installed) before the sequential application loop, each
	// on the view the sequential pass would solve it on. <= 1 solves each
	// candidate inline against the live residual state. The service sets
	// it to the size of the engine pool it installs (churn.Options.Workers).
	Workers int `json:"workers,omitempty"`
}

// Repair actions.
const (
	// RepairKept means the placement survived the churn unchanged.
	RepairKept = "kept"
	// RepairMigrated means the deployment was re-solved onto a new mapping.
	RepairMigrated = "migrated"
	// RepairParked means no feasible placement remained; the deployment was
	// evicted and its capacity released. Parked deployments are returned to
	// the caller (internal/churn re-queues them when capacity returns) —
	// they are displaced, not lost.
	RepairParked = "parked"
)

// RepairOutcome reports Repair's decision for one affected deployment.
type RepairOutcome struct {
	ID     string `json:"id"`
	Action string `json:"action"`
	Reason string `json:"reason,omitempty"`
	// DelayMs and RateFPS score the surviving mapping (kept or migrated) on
	// the post-churn residual network; zero for parked deployments.
	DelayMs float64 `json:"delay_ms,omitempty"`
	RateFPS float64 `json:"rate_fps,omitempty"`
}

// ParkedDeployment is one deployment evicted by Repair: its identity plus
// the reconstructed admission request needed to re-queue it.
type ParkedDeployment struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	Reason string `json:"reason"`
	// Req re-admits the deployment with its original parameters.
	Req Request `json:"-"`
}

// RepairReport summarizes one Repair pass.
type RepairReport struct {
	// Checked counts candidates examined; Resolved counts the subset that
	// required a re-solve (their placements were broken by the churn).
	Checked  int `json:"checked"`
	Resolved int `json:"resolved"`
	Kept     int `json:"kept"`
	Migrated int `json:"migrated"`
	// Outcomes lists per-deployment decisions in repair order (SLO class
	// rank descending, admission order within a class).
	Outcomes []RepairOutcome `json:"outcomes,omitempty"`
	// Parked lists the evicted deployments (len(Parked) fills the
	// kept/migrated/parked accounting gap).
	Parked []ParkedDeployment `json:"parked,omitempty"`
}

// Displaced is the number of deployments the pass moved or evicted.
func (r *RepairReport) Displaced() int { return r.Migrated + len(r.Parked) }

// proposal is one precomputed repair re-solve from the concurrent proposal
// phase.
type proposal struct {
	m   *model.Mapping
	err error
}

// proposeLocked concurrently re-solves the candidates ids, writing out[i]
// for ids[i]. Each candidate is solved on its own view of the committed
// state without its reservation, loaded by recomputeLocked's rule — the
// other reservations in admission order, then the external overlay — so a
// proposal is the mapping a sequential pass would solve on the same state.
// Concurrency is capped at width on top of the pool's own bound. Caller
// holds f.mu, which is exactly what makes the unlocked reads inside the
// workers safe: nothing can mutate deployments or reservations while the
// candidates solve. Per-goroutine views and solver scratch make the phase
// embarrassingly parallel.
func (f *region) proposeLocked(ids []string, out []proposal, width int, pool *engine.Pool) {
	pool.ParallelForN(width, len(ids), func(i int) {
		d := f.deps[ids[i]]
		others := make([]model.Reservation, 0, len(f.order)-1)
		for _, oid := range f.order {
			if oid != ids[i] {
				others = append(others, f.deps[oid].reservation)
			}
		}
		// CloneEmpty keeps the churn capacity factors: a view built with
		// NewResidualNetwork would see every down node at full nominal power.
		rn := f.residual.CloneEmpty()
		rn.SetLoad(others)
		rn.AddLoad(f.external)
		// Safe off the coordinating goroutine: each worker solves a distinct
		// deployment, so the warm states never alias.
		m, _, _, err := f.solveCounted(rn, requestOf(d), d.cost, f.warmFor(d))
		out[i] = proposal{m: m, err: err}
	})
}

// Repair is the incremental post-churn reconciliation pass: it examines
// exactly the given deployments (normally Affected(events)), keeps every
// placement that is still valid under the new capacity factors without
// re-solving it, re-solves only the broken ones against the residual
// network (their own reservation removed, everyone else's kept), migrates
// those whose re-solve fits, and parks — evicts and returns — those with no
// feasible placement. Unknown IDs are skipped.
//
// With opt.Workers > 1 the broken candidates' re-solves are precomputed
// concurrently against the pre-repair residual state (proposeLocked); the
// placement guard then judges each proposal live at application time, so a
// proposal made stale by an earlier repair of the same pass can park a
// candidate a sequential pass would have re-fit (the re-queue loop recovers
// it) but can never corrupt capacity accounting.
func (f *region) Repair(ids []string, opt RepairOptions) RepairReport {
	t0 := time.Now()
	defer repairSeconds.ObserveSince(t0)
	f.mu.Lock()
	f.beginTxnLocked()
	rep := f.repairLocked(ids, opt)
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return rep
}

// repairLocked is the repair pass body. Caller holds f.mu inside a WAL
// epoch (the coordinator: every lock, see ShardedFleet.Repair).
func (f *region) repairLocked(ids []string, opt RepairOptions) RepairReport {
	// Keep admission order and drop stale IDs, then lift higher SLO classes
	// to the front: on a degraded network the candidates repaired first
	// claim the surviving residual, so guaranteed deployments must re-fit
	// before best-effort ones compete for the same capacity. The sort is
	// stable, so within a class admission order is preserved (all-standard
	// fleets see the exact pre-class behavior).
	live := make([]string, 0, len(ids))
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for _, id := range f.order {
		if want[id] {
			live = append(live, id)
		}
	}
	sort.SliceStable(live, func(i, j int) bool {
		return f.deps[live[i]].SLO.Class.Rank() > f.deps[live[j]].SLO.Class.Rank()
	})

	rep := RepairReport{}
	if len(live) == 0 {
		return rep
	}

	// Phases 1+2 exist only for the parallel path: classify candidates on
	// the pre-repair state, then precompute the broken ones' re-solves
	// concurrently. The sequential path skips both — phase 3 classifies
	// and solves inline, so nothing is computed twice.
	var proposals map[string]proposal
	if opt.Workers > 1 && len(live) > 1 {
		broken := make([]string, 0, len(live))
		for _, id := range live {
			d := f.deps[id]
			saved := d.reservation
			d.reservation = model.Reservation{}
			f.recomputeLocked()
			_, _, valid := f.placementScoreLocked(d, f.scoringSnapshotLocked(), saved)
			d.reservation = saved
			if !valid {
				broken = append(broken, id)
			}
		}
		f.recomputeLocked()
		if len(broken) > 1 {
			pool := f.pool
			if pool == nil {
				transient := engine.NewPool(opt.Workers)
				defer transient.Close()
				pool = transient
			}
			out := make([]proposal, len(broken))
			f.proposeLocked(broken, out, opt.Workers, pool)
			proposals = make(map[string]proposal, len(broken))
			for i, id := range broken {
				proposals[id] = out[i]
			}
		}
	}

	// Phase 3: apply sequentially in admission order, every guard against
	// the live residual state.
	for _, id := range live {
		d := f.deps[id]
		f.repaired++
		rep.Checked++

		saved := d.reservation
		d.reservation = model.Reservation{}
		f.recomputeLocked()
		snap := f.scoringSnapshotLocked()

		delay, rate, valid := f.placementScoreLocked(d, snap, saved)
		if valid {
			d.reservation = saved
			f.recomputeLocked()
			rep.Kept++
			f.logOp(wal.Op{
				Kind: wal.RepairKept, ID: id, Tenant: d.Tenant,
				Mapping: d.Mapping, DelayMs: delay, RateFPS: rate,
			})
			rep.Outcomes = append(rep.Outcomes, RepairOutcome{
				ID: id, Action: RepairKept, DelayMs: delay, RateFPS: rate,
			})
			continue
		}

		// Broken: take the precomputed proposal, or solve inline (a phase-1
		// "valid" can turn broken once earlier repairs shifted load).
		rep.Resolved++
		prop, ok := proposals[id]
		if !ok {
			var m *model.Mapping
			var err error
			m, _, _, err = f.solveCounted(f.residual, requestOf(d), d.cost, f.warmFor(d))
			prop = proposal{m: m, err: err}
		}

		park := func(reason string) {
			parked := ParkedDeployment{ID: id, Tenant: d.Tenant, Reason: reason, Req: requestOf(d)}
			delete(f.deps, id)
			f.order = removeID(f.order, id)
			f.recomputeLocked()
			f.parkEvicts++
			parkEvictionsTotal.Inc()
			ps := parkedState(parked)
			f.logOp(wal.Op{Kind: wal.RepairParked, Remove: id, Park: &ps})
			rep.Parked = append(rep.Parked, parked)
			rep.Outcomes = append(rep.Outcomes, RepairOutcome{ID: id, Action: RepairParked, Reason: reason})
		}

		if prop.err != nil {
			park(fmt.Sprintf("re-solve failed: %v", prop.err))
			continue
		}
		m := prop.m
		newDelay, newRate := f.scoreLocked(snap, d.pipe, m, d.cost)
		res, reason, _, err := f.judgeLocked(d.pipe, m, newDelay, newRate, d.SLO, d.ReservedFPS)
		if err != nil {
			reason = fmt.Sprintf("reservation: %v", err)
		}
		if reason != "" {
			park(reason)
			continue
		}
		f.placeLocked(d, m, newDelay, newRate, res)
		f.repairMoves++
		rep.Migrated++
		f.logOp(wal.Op{Kind: wal.RepairMigrated, Deploy: updateState(d)})
		rep.Outcomes = append(rep.Outcomes, RepairOutcome{
			ID: id, Action: RepairMigrated, DelayMs: newDelay, RateFPS: newRate,
		})
	}
	return rep
}
