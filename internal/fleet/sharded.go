package fleet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"elpc/internal/engine"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// This file is the fleet manager: a region partition of the shared network
// (model.PartitionNetwork over graph.PartitionK) with one independently
// locked region per shard, so deployments in different regions admit,
// release, and repair concurrently instead of serializing on one global
// mutex. Single-region traffic never takes more than its own shard's lock;
// cross-region traffic goes to a coordinator region that two-phase-reserves
// the boundary links between regions.

// Manager is the placement-management surface of the fleet: everything the
// planning service, the churn reconciler, and the harness scenarios need
// from a multi-tenant placement engine. ShardedFleet implements it; New and
// NewSharded build one.
type Manager interface {
	// Deploy admits one pipeline (rejections wrap ErrRejected).
	Deploy(Request) (Deployment, error)
	// DeployBatch admits a burst of requests in one class/scarcity-ordered
	// pass (one scatter per shard plus one coordinator pass when sharded),
	// reporting per-request outcomes at the original indices.
	DeployBatch([]Request) []BatchOutcome
	// TakePreempted drains the deployments displaced by guaranteed
	// admissions since the last call, for re-queueing.
	TakePreempted() []ParkedDeployment
	// Release returns a deployment's capacity (unknown IDs wrap ErrNotFound).
	Release(id string) error
	// Describe returns a copy of one deployment.
	Describe(id string) (Deployment, bool)
	// List returns copies of all deployments.
	List() []Deployment
	// Stats snapshots counters and utilization gauges.
	Stats() Stats
	// Shards returns the number of regions the network is partitioned into.
	Shards() int
	// ShardStats snapshots the per-region and coordinator gauges.
	ShardStats() ShardedStats
	// Rebalance runs one rebalance pass.
	Rebalance(RebalanceOptions) Report
	// ApplyChurn applies a transactional batch of network-mutation events.
	ApplyChurn([]model.ChurnEvent) error
	// Affected returns the IDs of deployments whose placements touch any
	// element the events mutate.
	Affected([]model.ChurnEvent) []string
	// Repair re-solves exactly the given deployments after churn.
	Repair([]string, RepairOptions) RepairReport
	// Network returns the shared base network.
	Network() *model.Network
	// UsePool installs the engine pool parallel passes fan out over.
	UsePool(*engine.Pool)
	// UseJournal installs the event journal state transitions are recorded
	// into (nil disables recording).
	UseJournal(*journal.Journal)
	// UseWAL installs the write-ahead log every mutating transition is
	// durably recorded into before acknowledgment (nil disables logging).
	UseWAL(*wal.Log)
	// CaptureSnapshot captures a consistent compacted snapshot of the
	// manager's durable state for the given log.
	CaptureSnapshot(*wal.Log) *wal.Snapshot
	// SLOReport re-scores every live deployment's delivered delay and rate
	// on the current residual network against its admission SLO.
	SLOReport() SLOReport
	// SolveCount returns the number of objective solves run so far.
	SolveCount() uint64
	// SetWarmStart toggles warm-start incremental solving (on by default).
	// Warm and cold solves are byte-identical; the toggle trades CPU for
	// retained-grid memory.
	SetWarmStart(bool)
	// WarmSolveStats snapshots the warm-start solve outcome counters.
	WarmSolveStats() WarmSolveStats
}

// Compile-time check that the fleet manager implements the surface.
var _ Manager = (*ShardedFleet)(nil)

// TwoPhaseAttempts is the number of propose/commit rounds a cross-region
// deployment gets before admission control gives up: the solve runs without
// any shard lock held, so a concurrent single-shard admission can invalidate
// the proposal, in which case the coordinator re-solves against the fresher
// composed view.
const TwoPhaseAttempts = 2

// ShardedFleet partitions the shared network into K regions and runs one
// region per shard, each with its own mutex, so placements in different
// regions never contend. Deployments are routed by placement affinity:
//
//   - Src and Dst in the same region: the deployment is solved entirely
//     inside that region's sub-network under that shard's lock alone. If
//     the region rejects it (no in-region path, or regional capacity
//     exhausted) and K > 1, the request falls back to the coordinator.
//   - Src and Dst in different regions — or a regional fallback: the
//     coordinator solves on the composed residual view of the whole network
//     and two-phase-reserves the result: the solve runs with no shard lock
//     held (phase 1), then every shard is locked in index order and the
//     regional guard-and-commit step re-validates the reservation —
//     including the cross-region boundary links no shard owns — against the
//     live composed view and commits it atomically (phase 2), retrying the
//     solve when a concurrent admission invalidated it.
//
// The coordinator is itself a region (scope "x", IDs "x-d-…", journal actor
// "coordinator", cold solves): it admits, repairs, parks, logs, and recovers
// through the same code as every shard. Its one step of its own is
// refreshing its view (refreshLocked).
//
// Churn events are routed to the shard owning the mutated element (boundary
// links to the coordinator), so Repair stays incremental per shard: an event
// inside one region never examines, locks, or re-solves another region's
// deployments.
//
// New builds the one-shard fleet: one region holding the whole network,
// unprefixed IDs, and a coordinator that never receives traffic.
//
// All methods are safe for concurrent use. Lock order is the coordinator
// first, then the shards in index order; single-shard traffic takes exactly
// one shard lock, so the orders can never deadlock.
type ShardedFleet struct {
	base *model.Network
	part *model.Partition
	// regions holds the K shards in index order followed by the
	// coordinator; shards and coord slice it.
	regions []*region
	shards  []*region
	coord   *region
	// overlay is the ordered sum of the coordinator's reservations: every
	// shard's external load and the load on the boundary links. Zero-length
	// while the coordinator holds nothing. Guarded by every lock.
	overlay model.Reservation
}

// New builds the fleet manager over the shared base network with one shard:
// a single region solves on the whole network.
func New(base *model.Network) (*ShardedFleet, error) {
	if base == nil {
		return nil, fmt.Errorf("fleet: nil network")
	}
	part, err := model.NewPartitionFromAssignment(base, 1, make([]int, base.N()))
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return NewShardedWithPartition(base, part)
}

// NewSharded partitions base into the given number of regions (via
// model.PartitionNetwork) and builds a ShardedFleet over them. shards must
// be at most base.N(); a count of one or less is New(base).
func NewSharded(base *model.Network, shards int) (*ShardedFleet, error) {
	if shards <= 1 {
		return New(base)
	}
	if base == nil {
		return nil, fmt.Errorf("fleet: nil network")
	}
	part, err := model.PartitionNetwork(base, shards)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return NewShardedWithPartition(base, part)
}

// NewShardedWithPartition builds a ShardedFleet over a caller-supplied
// partition of base (for callers that partition along known cluster or
// datacenter boundaries instead of the default graph partitioner).
func NewShardedWithPartition(base *model.Network, part *model.Partition) (*ShardedFleet, error) {
	if base == nil {
		return nil, fmt.Errorf("fleet: nil network")
	}
	if part == nil || part.K < 1 || len(part.PartOf) != base.N() || len(part.LinkOwner) != base.M() {
		return nil, fmt.Errorf("fleet: partition does not match network shape")
	}
	s := &ShardedFleet{base: base, part: part}
	for r := 0; r < part.K; r++ {
		scope, view := "", (*model.RegionView)(nil)
		if part.K > 1 {
			scope, view = fmt.Sprintf("s%d", r), part.View(base, r)
		}
		f := newRegion(base, scope)
		f.view = view
		s.regions = append(s.regions, f)
	}
	coord := newRegion(base, wal.ScopeCross)
	coord.actor = journal.ActorCoordinator
	coord.warmOff = true // cold solves, see SetWarmStart
	coord.refresh = s.refreshLocked
	s.regions = append(s.regions, coord)
	s.shards, s.coord = s.regions[:part.K], coord
	return s, nil
}

// Network returns the shared base network (full nominal capacity).
func (s *ShardedFleet) Network() *model.Network { return s.base }

// Partition returns the region partition the fleet is sharded along.
func (s *ShardedFleet) Partition() *model.Partition { return s.part }

// Shards returns the number of regions.
func (s *ShardedFleet) Shards() int { return s.part.K }

// UsePool installs the engine pool on every region (see
// RebalanceOptions.Workers).
func (s *ShardedFleet) UsePool(p *engine.Pool) {
	for _, f := range s.regions {
		f.UsePool(p)
	}
}

// UseJournal installs the event journal on every region.
func (s *ShardedFleet) UseJournal(j *journal.Journal) {
	for _, f := range s.regions {
		f.UseJournal(j)
	}
}

// SolveCount returns the objective solves run across all regions.
func (s *ShardedFleet) SolveCount() uint64 {
	var n uint64
	for _, f := range s.regions {
		n += f.SolveCount()
	}
	return n
}

// SetWarmStart toggles warm-start solving on every shard. Coordinator
// (cross-region) solves always run cold: their composed snapshots are
// rebuilt per attempt and owned by no shard, so there is no stable residual
// view to retain grids against.
func (s *ShardedFleet) SetWarmStart(on bool) {
	for _, sh := range s.shards {
		sh.SetWarmStart(on)
	}
}

// WarmSolveStats sums the warm-start outcome counters across regions.
func (s *ShardedFleet) WarmSolveStats() WarmSolveStats {
	var w WarmSolveStats
	for _, f := range s.regions {
		ws := f.WarmSolveStats()
		w.Rebuilds += ws.Rebuilds
		w.Partials += ws.Partials
		w.Hits += ws.Hits
		w.Bypasses += ws.Bypasses
	}
	return w
}

// lockShards acquires every shard's mutex in index order; unlockShards
// releases them. Coordinator paths always lock the coordinator first, then
// shards in this fixed order (lockAll).
func (s *ShardedFleet) lockShards() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *ShardedFleet) unlockShards() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// lockAll acquires the coordinator's mutex and then every shard's;
// unlockAll releases them.
func (s *ShardedFleet) lockAll() {
	s.coord.mu.Lock()
	s.lockShards()
}

func (s *ShardedFleet) unlockAll() {
	s.unlockShards()
	s.coord.mu.Unlock()
}

// coordEpoch runs body as one coordinator WAL epoch under every lock: the
// coordinator's reservations are overlaid on every shard, so changing them
// rewrites every shard's load.
func (s *ShardedFleet) coordEpoch(kind wal.Kind, body func(x *region)) {
	x := s.coord
	s.lockAll()
	x.beginTxnLocked(kind)
	body(x)
	commit := x.endTxnLocked()
	s.unlockAll()
	commit()
}

// shardOfID parses the owning shard index from a deployment ID ("s3-d-…"),
// returning -1 for coordinator ("x-d-…") and unprefixed IDs.
func shardOfID(id string) int {
	if !strings.HasPrefix(id, "s") {
		return -1
	}
	dash := strings.IndexByte(id, '-')
	if dash <= 1 {
		return -1
	}
	n, err := strconv.Atoi(id[1:dash])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// regionOf resolves a deployment ID by its namespace to the index of the
// owning region in s.regions: the coordinator for "x-" IDs, shard i for
// "s<i>-" IDs, the only shard of a one-shard fleet for every other ID; -1
// when no region owns the namespace.
func (s *ShardedFleet) regionOf(id string) int {
	switch {
	case strings.HasPrefix(id, s.coord.idPrefix):
		return s.part.K
	case s.part.K == 1:
		return 0
	}
	if r := shardOfID(id); r >= 0 && r < s.part.K {
		return r
	}
	return -1
}

// refreshLocked is the coordinator's recompute — its one step of its own:
// push the ordered sum of its reservations onto every shard as their
// external overlay, then compose its view. Caller holds every lock.
func (s *ShardedFleet) refreshLocked() {
	x := s.coord
	s.overlay = model.Reservation{}
	if len(x.order) > 0 {
		s.overlay = emptyReservation(s.base)
		for _, id := range x.order {
			res := x.deps[id].reservation
			for i, f := range res.NodeFrac {
				s.overlay.NodeFrac[i] += f
			}
			for i, f := range res.LinkFrac {
				s.overlay.LinkFrac[i] += f
			}
		}
	}
	for _, sh := range s.shards {
		sh.external = s.overlay
		sh.recomputeLocked()
	}
	s.composeLocked()
}

// composeLocked rebuilds the coordinator's residual as the view of the whole
// network: every node and internal link reads its owning shard's churn
// factor and load (shard loads already carry the overlay, so nothing is
// counted twice); boundary links keep the coordinator's own churn factors —
// the boundary-link ledger — and carry the overlay's load. Caller holds
// every lock.
func (s *ShardedFleet) composeLocked() {
	x := s.coord
	nodeCap, linkCap := x.residual.CapacityFactors()
	load := emptyReservation(s.base)
	for v := range nodeCap {
		sh := s.shards[s.part.PartOf[v]]
		nodeCap[v] = sh.residual.NodeCapacity(model.NodeID(v))
		load.NodeFrac[v] = sh.residual.NodeLoad(model.NodeID(v))
	}
	for l := range linkCap {
		if owner := s.part.LinkOwner[l]; owner != model.BoundaryOwner {
			linkCap[l] = s.shards[owner].residual.LinkCapacity(l)
			load.LinkFrac[l] = s.shards[owner].residual.LinkLoad(l)
		} else if len(s.overlay.LinkFrac) > 0 {
			load.LinkFrac[l] = s.overlay.LinkFrac[l]
		}
	}
	if err := x.residual.SetCapacityFactors(nodeCap, linkCap); err != nil {
		panic(fmt.Sprintf("fleet: composed factors: %v", err)) // shapes match by construction
	}
	if err := x.residual.SetLoad([]model.Reservation{load}); err != nil {
		panic(fmt.Sprintf("fleet: composed load: %v", err))
	}
}

// Deploy admits one pipeline, routed by placement affinity: same-region
// endpoints go to their shard alone; cross-region endpoints — and
// same-region requests the region rejected, when K > 1 — go through the
// coordinator's two-phase path. Rejections wrap ErrRejected; structural
// errors (bad request) do not.
func (s *ShardedFleet) Deploy(req Request) (Deployment, error) {
	if err := s.shards[0].validateRequest(req); err != nil {
		return Deployment{}, err
	}
	if s.part.SameRegion(req.Src, req.Dst) {
		d, err := s.shards[s.part.Region(req.Src)].Deploy(req)
		if err == nil || s.part.K == 1 || !errors.Is(err, ErrRejected) {
			return d, err
		}
		// The region could not host it; retry with the whole network in
		// view. The regional rejection stays counted on the shard (the
		// fallback counter reconciles fleet-level Stats).
		return s.deployCross(req, true)
	}
	return s.deployCross(req, false)
}

// DeployBatch admits a burst of requests with one scatter per shard plus
// one coordinator pass: structurally invalid requests fail fast, valid ones
// are routed by placement affinity — same-region requests join their
// shard's single-lock-epoch batch (the shards' batches run concurrently,
// each under its own lock alone), and cross-region requests, plus regional
// rejections falling back at K > 1, run through the coordinator's two-phase
// path in one class/scarcity-ordered pass. Outcomes are reported at each
// request's original index.
func (s *ShardedFleet) DeployBatch(reqs []Request) []BatchOutcome {
	if s.part.K == 1 {
		return s.shards[0].DeployBatch(reqs)
	}
	out := make([]BatchOutcome, len(reqs))
	perShard := make([][]int, s.part.K)
	var cross []int
	for i := range reqs {
		out[i].Index = i
		if err := s.shards[0].validateRequest(reqs[i]); err != nil {
			out[i].Err = err
			continue
		}
		if s.part.SameRegion(reqs[i].Src, reqs[i].Dst) {
			r := s.part.Region(reqs[i].Src)
			perShard[r] = append(perShard[r], i)
		} else {
			cross = append(cross, i)
		}
	}

	// Scatter: one batch per shard, concurrent — each goroutine takes only
	// its own shard's lock, so regions make progress independently. Each
	// goroutine writes only its own fallbacks slot and its own out indices.
	fallbacks := make([][]int, s.part.K)
	var wg sync.WaitGroup
	for r, idx := range perShard {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(r int, idx []int) {
			defer wg.Done()
			sub := make([]Request, len(idx))
			for k, i := range idx {
				sub[k] = reqs[i]
			}
			for k, o := range s.shards[r].DeployBatch(sub) {
				i := idx[k]
				if o.Err != nil && errors.Is(o.Err, ErrRejected) {
					// The region could not host it; retry through the
					// coordinator after the scatter. The regional rejection
					// stays counted on the shard (the fallback counter
					// reconciles fleet-level Stats, as in Deploy).
					fallbacks[r] = append(fallbacks[r], i)
					continue
				}
				out[i].Deployment, out[i].Err = o.Deployment, o.Err
			}
		}(r, idx)
	}
	wg.Wait()
	fellBack := make(map[int]bool)
	for _, fb := range fallbacks {
		for _, i := range fb {
			fellBack[i] = true
		}
		cross = append(cross, fb...)
	}

	// Gather: one coordinator pass over the cross-region (and fallen-back)
	// requests in batch-priority order.
	sortByPriority(reqs, cross)
	for _, i := range cross {
		out[i].Deployment, out[i].Err = s.deployCross(reqs[i], fellBack[i])
	}
	return out
}

// TakePreempted drains the deployments displaced by guaranteed admissions
// across every shard (the coordinator's two-phase path never preempts).
func (s *ShardedFleet) TakePreempted() []ParkedDeployment {
	var out []ParkedDeployment
	for _, sh := range s.shards {
		out = append(out, sh.TakePreempted()...)
	}
	return out
}

// deployCross is the coordinator path, one coordinator WAL epoch: solve on
// the composed residual view of the whole network with no shard lock held
// (phase 1), then lock every shard and run the regional guard-and-commit
// step against the live composed view, boundary links included (phase 2).
// Only an overcommit — a concurrent single-shard admission consumed the
// capacity the proposal was solved against — is retried, up to
// TwoPhaseAttempts rounds.
func (s *ShardedFleet) deployCross(req Request, fallback bool) (Deployment, error) {
	t0 := time.Now()
	defer deploySeconds.ObserveSince(t0)
	cost := model.DefaultCostOptions()
	if req.Cost != nil {
		cost = *req.Cost
	}
	req.warm = nil // coordinator solves run cold (see SetWarmStart)
	x := s.coord
	x.mu.Lock()
	x.beginTxnLocked(wal.KindDeploy)
	d, err := s.twoPhaseLocked(req, fallback, cost)
	commit := x.endTxnLocked()
	x.mu.Unlock()
	commit()
	return d, err
}

// twoPhaseLocked is the two-phase admission body. Caller holds the
// coordinator's mutex inside its WAL epoch.
func (s *ShardedFleet) twoPhaseLocked(req Request, fallback bool, cost model.CostOptions) (Deployment, error) {
	x := s.coord
	if fallback {
		x.fallbacks++
		tpcFallbacksTotal.Inc()
	}
	for round := 1; round <= TwoPhaseAttempts; round++ {
		// Phase 1 — propose: compose the current view (briefly locking the
		// shards), then solve with no shard lock held, so regional traffic
		// keeps flowing underneath the expensive solve. The composed view
		// stays put meanwhile: only coordinator paths write it.
		s.lockShards()
		s.composeLocked()
		s.unlockShards()
		m, _, _, err := x.solveCounted(x.residual, req, cost, nil)
		if err != nil {
			if errors.Is(err, model.ErrInfeasible) {
				return Deployment{}, x.reject(req, "no feasible mapping on residual network: %v", err)
			}
			return Deployment{}, err
		}
		x.record(journal.Event{
			Kind: journal.TwoPhaseReserve, Tenant: req.Tenant,
			Detail:  fmt.Sprintf("round %d/%d proposed", round, TwoPhaseAttempts),
			Mapping: m.String(),
		})

		// Phase 2 — reserve: under every shard lock, re-score the proposed
		// mapping on the live composed view and run the regional
		// guard-and-commit step, which commits node, internal-link, and
		// boundary-link capacity in one atomic step.
		s.lockShards()
		s.composeLocked()
		live := x.residual.Snapshot()
		delay := model.TotalDelay(live, req.Pipeline, m, cost)
		rate := model.FrameRate(model.SharedBottleneck(live, req.Pipeline, m))
		d, reason, overcommit, err := x.admitLocked(req, cost, m, delay, rate, nil)
		s.unlockShards()
		switch {
		case err != nil:
			return Deployment{}, err
		case overcommit:
			x.tpcRetries++
			tpcRetriesTotal.Inc()
			x.record(journal.Event{
				Kind: journal.TwoPhaseValidate, Tenant: req.Tenant,
				Detail: fmt.Sprintf("round %d/%d: reservation no longer fits the live composed view", round, TwoPhaseAttempts),
			})
			continue
		case reason != "":
			return Deployment{}, x.reject(req, "%s", reason)
		}
		x.record(journal.Event{
			Kind: journal.TwoPhaseCommit, Deployment: d.ID, Tenant: d.Tenant,
			Detail: fmt.Sprintf("round %d/%d committed", round, TwoPhaseAttempts),
		})
		return d, nil
	}
	x.tpcAborts++
	tpcAbortsTotal.Inc()
	x.record(journal.Event{
		Kind: journal.TwoPhaseAbort, Tenant: req.Tenant,
		Detail: fmt.Sprintf("%d two-phase rounds exhausted", TwoPhaseAttempts),
	})
	return Deployment{}, x.reject(req, "cross-region reservation lost %d two-phase rounds to concurrent admissions", TwoPhaseAttempts)
}

// Release returns a deployment's capacity to the fleet, routed to the
// owning region by the ID's namespace.
func (s *ShardedFleet) Release(id string) error {
	switch r := s.regionOf(id); {
	case r < 0:
		return fmt.Errorf("fleet: %w: %q", ErrNotFound, id)
	case r < s.part.K:
		return s.shards[r].Release(id)
	}
	var err error
	s.coordEpoch(wal.KindRelease, func(x *region) { err = x.releaseLocked(id) })
	return err
}

// removeID deletes the first occurrence of id, preserving order.
func removeID(order []string, id string) []string {
	for i, oid := range order {
		if oid == id {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

// Describe returns a copy of one deployment.
func (s *ShardedFleet) Describe(id string) (Deployment, bool) {
	if r := s.regionOf(id); r >= 0 {
		return s.regions[r].Describe(id)
	}
	return Deployment{}, false
}

// List returns copies of all deployments: shard 0's in admission order,
// then shard 1's, and so on, with coordinator (cross-region) deployments
// last.
func (s *ShardedFleet) List() []Deployment {
	out := s.regions[0].List()
	for _, f := range s.regions[1:] {
		out = append(out, f.List()...)
	}
	return out
}

// Stats merges counters across regions and gauges utilization on the
// composed view. Admitted/Rejected count request outcomes: a regional
// rejection that the coordinator fallback then admits contributes one
// admission and no rejection (the fallback counter reconciles the per-shard
// tallies, which ShardStats exposes raw).
func (s *ShardedFleet) Stats() Stats {
	s.lockAll()
	defer s.unlockAll()
	var st Stats
	s.coord.addStatsLocked(&st)
	for _, sh := range s.shards {
		sh.addStatsLocked(&st)
	}
	// Every fallback begins with a regional rejection that is not a request
	// outcome — the request went on to the coordinator, which recorded its
	// own admission or rejection.
	st.Rejected -= s.coord.fallbacks
	s.composeLocked()
	st.setUtilization(s.coord.residual)
	return st
}

// ShardStat is one region's gauge block in ShardedStats (raw per-shard
// tallies: a coordinator fallback appears here as a regional rejection even
// when the request was ultimately admitted).
type ShardStat struct {
	// Shard is the region index.
	Shard int `json:"shard"`
	// Nodes and Links are the region's node count and internal-link count.
	Nodes int `json:"nodes"`
	Links int `json:"links"`
	// Deployments is the number currently placed inside the region.
	Deployments int `json:"deployments"`
	// Admitted/Rejected/Released are the shard's lifecycle counters.
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	Released uint64 `json:"released"`
	// SolverCalls counts solves run under this shard's lock.
	SolverCalls uint64 `json:"solver_calls"`
	// MaxNodeUtil and MaxLinkUtil gauge the hottest element of the region.
	MaxNodeUtil float64 `json:"max_node_util"`
	MaxLinkUtil float64 `json:"max_link_util"`
}

// CoordinatorStats gauges the cross-region path of a ShardedFleet.
type CoordinatorStats struct {
	// BoundaryLinks is the size of the cross-region boundary set.
	BoundaryLinks int `json:"boundary_links"`
	// Deployments is the number of live coordinator-owned deployments.
	Deployments int `json:"deployments"`
	// Admitted/Rejected/Released are coordinator lifecycle counters.
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	Released uint64 `json:"released"`
	// Fallbacks counts regional rejections retried through the coordinator;
	// TwoPhaseRetries counts phase-2 validation failures that forced a
	// re-solve against a fresher composed view; TwoPhaseAborts counts
	// admissions abandoned after exhausting every round.
	Fallbacks       uint64 `json:"fallbacks"`
	TwoPhaseRetries uint64 `json:"two_phase_retries"`
	TwoPhaseAborts  uint64 `json:"two_phase_aborts"`
	// SolverCalls counts coordinator solves (cross deploys and repairs).
	SolverCalls uint64 `json:"solver_calls"`
}

// ShardedStats is the per-region breakdown behind Stats, served by elpcd's
// /v1/stats as fleet_shards.
type ShardedStats struct {
	Shards      []ShardStat      `json:"shards"`
	Coordinator CoordinatorStats `json:"coordinator"`
}

// ShardStats snapshots the per-region and coordinator gauges.
func (s *ShardedFleet) ShardStats() ShardedStats {
	s.lockAll()
	defer s.unlockAll()
	x := s.coord
	out := ShardedStats{
		Coordinator: CoordinatorStats{
			BoundaryLinks:   len(s.part.Boundary),
			Deployments:     len(x.deps),
			Admitted:        x.admitted,
			Rejected:        x.rejected,
			Released:        x.released,
			Fallbacks:       x.fallbacks,
			TwoPhaseRetries: x.tpcRetries,
			TwoPhaseAborts:  x.tpcAborts,
			SolverCalls:     x.solves.Load(),
		},
	}
	for r, sh := range s.shards {
		stat := ShardStat{
			Shard:       r,
			Nodes:       len(s.part.Regions[r]),
			Deployments: len(sh.deps),
			Admitted:    sh.admitted,
			Rejected:    sh.rejected,
			Released:    sh.released,
			SolverCalls: sh.solves.Load(),
		}
		for _, v := range s.part.Regions[r] {
			if u := sh.residual.NodeLoad(v); u > stat.MaxNodeUtil {
				stat.MaxNodeUtil = u
			}
		}
		for l, owner := range s.part.LinkOwner {
			if owner != r {
				continue
			}
			stat.Links++
			if u := sh.residual.LinkLoad(l); u > stat.MaxLinkUtil {
				stat.MaxLinkUtil = u
			}
		}
		out.Shards = append(out.Shards, stat)
	}
	return out
}

// composed runs read on the freshly composed view of the whole network
// under every lock.
func (s *ShardedFleet) composed(read func(*model.ResidualNetwork)) {
	s.lockAll()
	defer s.unlockAll()
	s.composeLocked()
	read(s.coord.residual)
}

// Utilization returns the outstanding load fraction per node and per link
// on the composed view (indices match the base network).
func (s *ShardedFleet) Utilization() (node, link []float64) {
	s.composed(func(rn *model.ResidualNetwork) {
		node = make([]float64, s.base.N())
		for v := range node {
			node[v] = rn.NodeLoad(model.NodeID(v))
		}
		link = make([]float64, s.base.M())
		for l := range link {
			link[l] = rn.LinkLoad(l)
		}
	})
	return node, link
}

// Capacity returns the churn capacity factor per node and per link on the
// composed view (copies; 1 = nominal, 0 = down; indices match the base
// network).
func (s *ShardedFleet) Capacity() (node, link []float64) {
	s.composed(func(rn *model.ResidualNetwork) { node, link = rn.CapacityFactors() })
	return node, link
}

// Snapshot materializes the composed residual network (all shards' loads
// and churn factors plus the boundary ledger) as a standalone Network.
func (s *ShardedFleet) Snapshot() *model.Network {
	var snap *model.Network
	s.composed(func(rn *model.ResidualNetwork) { snap = rn.Snapshot() })
	return snap
}

// Rebalance runs one rebalance pass per shard (the options apply to each
// shard independently, so MaxMoves caps migrations per region) and merges
// the reports. Coordinator-owned cross-region deployments are not
// rebalanced: their placements only change when churn breaks them.
func (s *ShardedFleet) Rebalance(opt RebalanceOptions) Report {
	if s.part.K == 1 {
		return s.shards[0].Rebalance(opt)
	}
	var rep Report
	var gain float64
	for _, sh := range s.shards {
		r := sh.Rebalance(opt)
		rep.Considered += r.Considered
		rep.Applied += r.Applied
		rep.Moves = append(rep.Moves, r.Moves...)
		gain += r.MeanGain * float64(r.Applied)
	}
	if rep.Applied > 0 {
		rep.MeanGain = gain / float64(rep.Applied)
	}
	return rep
}

// splitChurn routes each event to the shard owning its target element;
// boundary-link events go to the coordinator. Events naming out-of-range
// targets are routed to shard 0, whose transactional validation produces
// the canonical unknown-target error.
func (s *ShardedFleet) splitChurn(events []model.ChurnEvent) (perShard [][]model.ChurnEvent, boundary []model.ChurnEvent) {
	perShard = make([][]model.ChurnEvent, s.part.K)
	for _, ev := range events {
		owner := 0
		if ev.OnLink() {
			if ev.Link >= 0 && ev.Link < s.base.M() {
				if owner = s.part.LinkOwner[ev.Link]; owner == model.BoundaryOwner {
					boundary = append(boundary, ev)
					continue
				}
			}
		} else if s.base.ValidNode(ev.Node) {
			owner = s.part.PartOf[ev.Node]
		}
		perShard[owner] = append(perShard[owner], ev)
	}
	return perShard, boundary
}

// ApplyChurn applies the events to the owning shards' capacity views and
// the coordinator's boundary ledger, all or nothing across the whole fleet:
// every sub-batch is validated on a scratch copy first, so an invalid event
// in one region leaves every region unchanged. Event indices in error
// messages refer to the owning region's sub-batch.
func (s *ShardedFleet) ApplyChurn(events []model.ChurnEvent) error {
	perShard, boundary := s.splitChurn(events)
	s.lockAll()
	err := s.applyChurnLocked(perShard, boundary)
	var commit func()
	if err == nil {
		commit = s.walChurnLocked(events)
	}
	s.unlockAll()
	if commit != nil {
		commit()
	}
	return err
}

// applyChurnLocked validates and commits the split churn batch. Caller
// holds every lock.
func (s *ShardedFleet) applyChurnLocked(perShard [][]model.ChurnEvent, boundary []model.ChurnEvent) error {
	// Validate every non-empty sub-batch on a clone, then commit the clones'
	// factors — the commit step cannot fail, which is what makes the
	// cross-shard batch atomic. Boundary events validate and commit on the
	// coordinator, whose own boundary-link factors are the ledger.
	subs := append(perShard, boundary)
	clones := make([]*model.ResidualNetwork, len(s.regions))
	for r, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		clones[r] = s.regions[r].residual.CloneEmpty()
		if err := clones[r].ApplyChurn(sub); err != nil {
			return err
		}
	}
	for r, c := range clones {
		if c == nil {
			continue
		}
		if err := s.regions[r].residual.SetCapacityFactors(c.CapacityFactors()); err != nil {
			panic(fmt.Sprintf("fleet: churn commit: %v", err)) // clone factors are valid by construction
		}
	}
	return nil
}

// Affected returns the IDs of deployments whose placements touch any
// element the events mutate: each shard's frontier (an event inside one
// region can only touch that region's deployments), then the coordinator's
// cross-region deployments, which may touch elements of any region and the
// boundary links between them.
func (s *ShardedFleet) Affected(events []model.ChurnEvent) []string {
	var out []string
	for _, f := range s.regions {
		out = append(out, f.Affected(events)...)
	}
	return out
}

// Repair routes each ID to its owning shard's incremental Repair pass —
// regions repair independently, holding only their own lock — and runs the
// same pass over coordinator-owned deployments against the composed view,
// under every lock (cross-region repair is the rare, global tail of a churn
// cycle) and sequentially. Unknown IDs are skipped. The merged report lists
// shard outcomes first, coordinator outcomes last.
func (s *ShardedFleet) Repair(ids []string, opt RepairOptions) RepairReport {
	if s.part.K == 1 {
		return s.shards[0].Repair(ids, opt)
	}
	perRegion := make([][]string, len(s.regions))
	for _, id := range ids {
		if r := s.regionOf(id); r >= 0 {
			perRegion[r] = append(perRegion[r], id)
		}
	}
	var rep RepairReport
	for r, sub := range perRegion {
		if len(sub) == 0 {
			continue
		}
		var sr RepairReport
		if r < s.part.K {
			sr = s.shards[r].Repair(sub, opt)
		} else {
			s.coordEpoch(wal.KindRepair, func(x *region) { sr = x.repairLocked(sub, RepairOptions{}) })
		}
		rep.Checked += sr.Checked
		rep.Resolved += sr.Resolved
		rep.Kept += sr.Kept
		rep.Migrated += sr.Migrated
		rep.Outcomes = append(rep.Outcomes, sr.Outcomes...)
		rep.Parked = append(rep.Parked, sr.Parked...)
	}
	return rep
}
