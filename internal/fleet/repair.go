package fleet

import (
	"fmt"
	"sort"
	"time"

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
// element), so Repair never needs to look at them. Each deployment is
// tested on the path its reservation records (model.Reservation.Touches),
// which a zero-rate reservation records too.
func (f *region) Affected(events []model.ChurnEvent) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	nodes, links := churnTargets(events)
	var out []string
	for _, d := range f.order {
		if d.reservation.Touches(nodes, links) {
			out = append(out, d.ID)
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

// placementScoreLocked scores d's current mapping on the ledger with d's
// own reservation freed — the path saved records, with no share set aside,
// since the recomputed ledger no longer counts it — and reports whether the
// placement is still valid: its reservation fits the (possibly reduced)
// capacity factors and the placement guard's host and SLO checks (downHost,
// shortfall) pass. Caller holds f.mu with d's reservation zeroed and loads
// recomputed; saved is the reservation under test.
func (f *region) placementScoreLocked(d *Deployment, saved model.Reservation) (delay, rate float64, valid bool) {
	delay, bottleneck := f.residual.ScorePath(d.pipe, saved.Path(), d.cost)
	rate = model.FrameRate(bottleneck)
	valid = f.residual.Fits(saved) &&
		downHost(f.residual, d.Assignment) == "" &&
		shortfall(delay, rate, d.SLO, d.ReservedFPS) == ""
	return delay, rate, valid
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

// Repair is the incremental post-churn reconciliation pass: it examines
// exactly the given deployments (normally Affected(events)), keeps every
// placement that is still valid under the new capacity factors without
// re-solving it, re-solves only the broken ones against the residual
// network (their own reservation removed, everyone else's kept), migrates
// those whose re-solve fits, and parks — evicts and returns — those with no
// feasible placement. Unknown IDs are skipped.
func (f *region) Repair(ids []string) RepairReport {
	t0 := time.Now()
	defer repairSeconds.ObserveSince(t0)
	f.mu.Lock()
	f.beginTxnLocked()
	rep := f.repairLocked(ids)
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return rep
}

// repairLocked is the repair pass body. Caller holds f.mu inside a WAL
// epoch (the coordinator: every lock, see ShardedFleet.Repair).
func (f *region) repairLocked(ids []string) RepairReport {
	// Keep admission order and drop stale IDs, then lift higher SLO classes
	// to the front: on a degraded network the candidates repaired first
	// claim the surviving residual, so guaranteed deployments must re-fit
	// before best-effort ones compete for the same capacity. The sort is
	// stable, so within a class admission order is preserved (all-standard
	// fleets see the exact pre-class behavior).
	live := make([]*Deployment, 0, len(ids))
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for _, d := range f.order {
		if want[d.ID] {
			live = append(live, d)
		}
	}
	sort.SliceStable(live, func(i, j int) bool {
		return live[i].SLO.Class.Rank() > live[j].SLO.Class.Rank()
	})

	var rep RepairReport
	for _, d := range live {
		id := d.ID
		f.repaired++
		rep.Checked++

		saved := d.reservation
		d.reservation = model.Reservation{}
		f.recomputeLocked()

		delay, rate, valid := f.placementScoreLocked(d, saved)
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

		// Broken: re-solve on the live residual state.
		rep.Resolved++
		m, newDelay, newRate, err := f.solveCounted(f.residual, requestOf(d), d.cost, f.warmFor(d))

		park := func(reason string) {
			parked := ParkedDeployment{ID: id, Tenant: d.Tenant, Reason: reason, Req: requestOf(d)}
			delete(f.deps, id)
			f.order = removeDep(f.order, d)
			f.recomputeLocked()
			f.parkEvicts++
			parkEvictionsTotal.Inc()
			ps := parkedState(parked)
			f.logOp(wal.Op{Kind: wal.RepairParked, Remove: id, Park: &ps})
			rep.Parked = append(rep.Parked, parked)
			rep.Outcomes = append(rep.Outcomes, RepairOutcome{ID: id, Action: RepairParked, Reason: reason})
		}

		if err != nil {
			park(fmt.Sprintf("re-solve failed: %v", err))
			continue
		}
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
