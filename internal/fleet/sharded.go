package fleet

import (
	"errors"
	"fmt"
	"slices"
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
	// CoordinatorStats snapshots the coordinator's gauges alone, under its
	// lock alone.
	CoordinatorStats() CoordinatorStats
	// Rebalance runs one rebalance pass.
	Rebalance(RebalanceOptions) Report
	// ApplyChurn applies a transactional batch of network-mutation events.
	ApplyChurn([]model.ChurnEvent) error
	// Affected returns the IDs of deployments whose placements touch any
	// element the events mutate.
	Affected([]model.ChurnEvent) []string
	// Repair keeps the given deployments' still-valid placements and
	// re-solves, one at a time, only the ones the churn broke.
	Repair([]string) RepairReport
	// Network returns the shared base network.
	Network() *model.Network
	// UsePool does nothing.
	//
	// Deprecated: repair solves on the caller's goroutine and uses no pool.
	// bench/trace.go is the last caller; the method goes with it.
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
// deployment gets before admission control gives up: the solve runs with no
// shard lock held, so a concurrent single-shard admission can invalidate
// the proposal, and the coordinator then re-solves on the fresher ledger.
const TwoPhaseAttempts = 2

// ShardedFleet partitions the shared network into K regions and runs one
// region per shard, each with its own mutex, so placements in different
// regions never contend. A deployment whose Src and Dst share a region is
// solved on that region's sub-network under that shard's lock alone;
// otherwise — or when that region rejects it and K > 1 — the coordinator
// solves it on a snapshot of the whole network with no shard lock held
// (phase 1), then locks every shard in index order and re-validates and
// commits the reservation, boundary links included, against the live
// ledger (phase 2), re-solving when a concurrent admission invalidated it.
//
// The coordinator is itself a region (scope "x", IDs "x-d-…", journal actor
// "coordinator", cold solves) that admits, repairs, parks, logs and
// recovers through the same code as every shard; its one step of its own
// is recomputing the whole ledger (refreshLocked).
//
// The fleet holds one ledger, a model.ResidualNetwork of every node's and
// link's load and churn capacity factor, shared by every region. A node or
// internal link of region r holds shard r's reservations in admission
// order, then the coordinator's merged overlay; a boundary link holds the
// overlay alone. The rules:
//
//   - shard r writes only region r's nodes and internal links
//     (SetRegionLoad), under its own lock;
//   - only the coordinator writes boundary links, under every lock;
//   - a shard reads only its region's elements (RegionSnapshot, Fits of a
//     regional reservation, and ScorePath of its own deployments' paths:
//     a shard's deployments and re-solves run only on its region's nodes
//     and internal links);
//   - every whole-ledger read holds every shard lock: the SLO report, Stats,
//     Utilization, Snapshot, both two-phase phases, the coordinator's
//     release and repair, and snapshot capture;
//   - every factor write (ApplyChurn, snapshot restore) holds every lock.
//
// Affected and Repair stay incremental per shard: an event inside one region
// never examines, locks, or re-solves another region's deployments. New
// builds the one-shard fleet: one region holding the whole network,
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
	// proposal is the snapshot of the whole ledger that phase 1 of
	// two-phase admission solves on; the coordinator's lock guards it.
	proposal *model.Network
	// betweenPhases, when non-nil, runs between a two-phase admission's
	// solve and its reservation, with only the coordinator's lock held.
	// Tests set it to land a regional admission there; it is nil otherwise.
	betweenPhases func()
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
	return newSharded(base, part), nil
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
	return newSharded(base, part), nil
}

// NewShardedWithPartition builds a ShardedFleet over a caller-supplied
// partition of base (for callers that partition along known cluster or
// datacenter boundaries instead of the default graph partitioner). It reads
// only part.K and part.PartOf and rebuilds the rest from them, so an
// assignment outside [0, K) is an error.
func NewShardedWithPartition(base *model.Network, part *model.Partition) (*ShardedFleet, error) {
	if base == nil {
		return nil, fmt.Errorf("fleet: nil network")
	}
	if part == nil {
		return nil, fmt.Errorf("fleet: nil partition")
	}
	rebuilt, err := model.NewPartitionFromAssignment(base, part.K, slices.Clone(part.PartOf))
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return newSharded(base, rebuilt), nil
}

// newSharded builds the fleet over a model-built part; regions share one ledger.
func newSharded(base *model.Network, part *model.Partition) *ShardedFleet {
	s := &ShardedFleet{base: base, part: part}
	ledger := model.NewResidualNetwork(base)
	coord := newRegion(ledger, wal.ScopeCross)
	coord.warmOff = true // cold solves, see SetWarmStart
	coord.refresh = s.refreshLocked
	for r := 0; r < part.K; r++ {
		scope, view := "", (*model.RegionView)(nil)
		if part.K > 1 {
			scope, view = fmt.Sprintf("s%d", r), part.View(base, r)
		}
		f := newRegion(ledger, scope)
		f.view = view
		s.regions = append(s.regions, f)
	}
	s.regions = append(s.regions, coord)
	s.shards, s.coord = s.regions[:part.K], coord
	return s
}

// Network returns the shared base network (full nominal capacity).
func (s *ShardedFleet) Network() *model.Network { return s.base }

// Partition returns the region partition the fleet is sharded along.
func (s *ShardedFleet) Partition() *model.Partition { return s.part }

// Shards returns the number of regions.
func (s *ShardedFleet) Shards() int { return s.part.K }

// UsePool does nothing.
//
// Deprecated: repair solves on the caller's goroutine and uses no pool.
// bench/trace.go is the last caller; the method goes with it.
func (s *ShardedFleet) UsePool(*engine.Pool) {}

// SolveCount returns the objective solves run across all regions.
func (s *ShardedFleet) SolveCount() uint64 {
	var n uint64
	for _, f := range s.regions {
		n += f.SolveCount()
	}
	return n
}

// SetWarmStart toggles warm-start solving on every shard. Coordinator
// (cross-region) solves always run cold: they solve on a snapshot of the
// whole ledger taken per attempt while every shard keeps writing its
// region, so there is no stable residual view to retain grids against.
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

// coordEpoch runs body as one coordinator epoch under every lock: the
// coordinator's reservations are overlaid on every shard, so changing them
// rewrites loads in every region.
func (s *ShardedFleet) coordEpoch(body func(x *region)) {
	x := s.coord
	s.lockAll()
	x.beginTxnLocked()
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
// merge its reservations in admission order into the overlay every shard
// adds on its region, then set the whole ledger to every shard's
// reservations in shard order, then the overlay. A regional reservation
// holds only its own region's elements, so each node and internal link sums
// exactly the terms its owning shard's recompute sums, and each boundary
// link carries the overlay alone. Caller holds every lock.
func (s *ShardedFleet) refreshLocked() {
	x := s.coord
	x.resScratch = x.appendReservationsLocked(x.resScratch[:0])
	overlay := model.MergeReservations(x.resScratch)
	held := x.resScratch[:0]
	for _, sh := range s.shards {
		sh.external = overlay
		held = sh.appendReservationsLocked(held)
	}
	x.resScratch = append(held, overlay)
	x.residual.SetLoad(x.resScratch)
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

// deployCross is the coordinator path: one coordinator epoch of two-phase
// admission (twoPhaseLocked). Only an overcommit — a concurrent
// single-shard admission consumed the capacity the proposal was solved
// against — is retried, up to TwoPhaseAttempts rounds.
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
	x.beginTxnLocked()
	d, err := s.twoPhaseLocked(req, fallback, cost)
	commit := x.endTxnLocked()
	x.mu.Unlock()
	commit()
	return d, err
}

// twoPhaseLocked is the two-phase admission body. Caller holds the
// coordinator's mutex inside its epoch: that lock alone guards the
// proposal buffer, so phase 1 may solve on it unlocked.
func (s *ShardedFleet) twoPhaseLocked(req Request, fallback bool, cost model.CostOptions) (Deployment, error) {
	x := s.coord
	if fallback {
		x.fallbacks++
		tpcFallbacksTotal.Inc()
	}
	for round := 1; round <= TwoPhaseAttempts; round++ {
		// Phase 1 — propose: snapshot the ledger into the proposal buffer
		// under the shard locks (shards write their regions under their
		// own), then solve cold on it with no shard lock held, so regional
		// traffic keeps flowing underneath the solve.
		s.lockShards()
		s.proposal = x.residual.SnapshotInto(s.proposal)
		s.unlockShards()
		x.solves.Add(1)
		m, _, _, err := solve(s.proposal, req, cost, nil)
		if err != nil {
			if errors.Is(err, model.ErrInfeasible) {
				return Deployment{}, x.reject(req, "no feasible mapping on residual network: %v", err)
			}
			return Deployment{}, err
		}
		// The proposal's path, holding no share, for phase 2 to score on
		// the live ledger. A solver's mapping always has its links.
		path, err := model.MappingReservation(s.base, req.Pipeline, m, 0)
		if err != nil {
			return Deployment{}, err
		}
		x.logOp(wal.Op{
			Kind: wal.TwoPhaseReserve, Tenant: req.Tenant,
			Detail:  fmt.Sprintf("round %d/%d proposed", round, TwoPhaseAttempts),
			Mapping: m.String(),
		})
		if s.betweenPhases != nil {
			s.betweenPhases()
		}

		// Phase 2 — reserve: under every shard lock, re-score the proposed
		// path on the live ledger and run the regional guard-and-commit
		// step, which commits node, internal-link, and boundary-link
		// capacity in one atomic step.
		s.lockShards()
		delay, bottleneck := x.residual.ScorePath(req.Pipeline, path, cost)
		d, reason, overcommit, err := x.admitLocked(req, cost, m, delay, model.FrameRate(bottleneck), nil)
		s.unlockShards()
		switch {
		case err != nil:
			return Deployment{}, err
		case overcommit:
			x.tpcRetries++
			tpcRetriesTotal.Inc()
			x.logOp(wal.Op{
				Kind: wal.TwoPhaseValidate, Tenant: req.Tenant,
				Detail: fmt.Sprintf("round %d/%d: reservation no longer fits the live composed view", round, TwoPhaseAttempts),
			})
			continue
		case reason != "":
			return Deployment{}, x.reject(req, "%s", reason)
		}
		x.logOp(wal.Op{
			Kind: wal.TwoPhaseCommit, ID: d.ID, Tenant: d.Tenant,
			Detail: fmt.Sprintf("round %d/%d committed", round, TwoPhaseAttempts),
		})
		return d, nil
	}
	x.tpcAborts++
	tpcAbortsTotal.Inc()
	x.logOp(wal.Op{
		Kind: wal.TwoPhaseAbort, Tenant: req.Tenant,
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
	s.coordEpoch(func(x *region) { err = x.releaseLocked(id) })
	return err
}

// removeDep deletes d from order, preserving the order of the rest.
func removeDep(order []*Deployment, d *Deployment) []*Deployment {
	if i := slices.Index(order, d); i >= 0 {
		return slices.Delete(order, i, i+1)
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
// whole ledger. Admitted/Rejected count request outcomes: a regional
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
	// re-solve against a fresher ledger; TwoPhaseAborts counts
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

// CoordinatorStats snapshots the coordinator's gauges under the
// coordinator's lock alone: every coordinator counter moves under that
// lock, so no shard's traffic waits on the read.
func (s *ShardedFleet) CoordinatorStats() CoordinatorStats {
	s.coord.mu.Lock()
	defer s.coord.mu.Unlock()
	return s.coordinatorStatsLocked()
}

// coordinatorStatsLocked reads the coordinator's gauges. Caller holds the
// coordinator's lock.
func (s *ShardedFleet) coordinatorStatsLocked() CoordinatorStats {
	x := s.coord
	return CoordinatorStats{
		BoundaryLinks:   len(s.part.Boundary),
		Deployments:     len(x.deps),
		Admitted:        x.admitted,
		Rejected:        x.rejected,
		Released:        x.released,
		Fallbacks:       x.fallbacks,
		TwoPhaseRetries: x.tpcRetries,
		TwoPhaseAborts:  x.tpcAborts,
		SolverCalls:     x.solves.Load(),
	}
}

// ShardStats snapshots the per-region and coordinator gauges, all under
// every lock, so the coordinator block and every shard's agree.
func (s *ShardedFleet) ShardStats() ShardedStats {
	s.lockAll()
	defer s.unlockAll()
	out := ShardedStats{Coordinator: s.coordinatorStatsLocked()}
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
		link := func(l int) {
			stat.Links++
			if u := sh.residual.LinkLoad(l); u > stat.MaxLinkUtil {
				stat.MaxLinkUtil = u
			}
		}
		if sh.view != nil {
			for _, l := range sh.view.Links {
				link(l)
			}
		} else { // the only shard of a one-shard fleet owns every link
			for l := range s.base.Links {
				link(l)
			}
		}
		out.Shards = append(out.Shards, stat)
	}
	return out
}

// composed runs read on the whole ledger — every region's load composed —
// under every lock.
func (s *ShardedFleet) composed(read func(*model.ResidualNetwork)) {
	s.lockAll()
	defer s.unlockAll()
	read(s.coord.residual)
}

// Utilization returns the outstanding load fraction per node and per link
// (copies; indices match the base network).
func (s *ShardedFleet) Utilization() (node, link []float64) {
	s.composed(func(rn *model.ResidualNetwork) { node, link = rn.Loads() })
	return node, link
}

// Capacity returns the churn ledger's capacity factor per node and per
// link (copies; 1 = nominal, 0 = down; indices match the base network).
// Every factor write holds every lock, so the coordinator's lock alone
// makes the read consistent.
func (s *ShardedFleet) Capacity() (node, link []float64) {
	s.coord.mu.Lock()
	defer s.coord.mu.Unlock()
	return s.coord.residual.CapacityFactors()
}

// Snapshot materializes the ledger (every region's loads and the churn
// capacity factors) as a standalone Network.
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

// ApplyChurn commits the events to the fleet's one ledger under every lock,
// all or nothing: model.ResidualNetwork.ApplyChurn validates the whole
// batch before it commits any of it. An error names the first invalid event by its index
// in events, at every shard count.
func (s *ShardedFleet) ApplyChurn(events []model.ChurnEvent) error {
	s.lockAll()
	err := s.coord.residual.ApplyChurn(events)
	commit := func() {}
	if err == nil {
		commit = s.logChurnLocked(events)
	}
	s.unlockAll()
	commit()
	return err
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
// same pass over coordinator-owned deployments against the whole ledger,
// under every lock (cross-region repair is the rare, global tail of a churn
// cycle). Unknown IDs are skipped. The merged report lists shard outcomes
// first, coordinator outcomes last.
func (s *ShardedFleet) Repair(ids []string) RepairReport {
	if s.part.K == 1 {
		return s.shards[0].Repair(ids)
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
			sr = s.shards[r].Repair(sub)
		} else {
			s.coordEpoch(func(x *region) { sr = x.repairLocked(sub) })
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
