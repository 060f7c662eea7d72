package elpc

import (
	"math/rand/v2"

	"elpc/internal/baseline"
	"elpc/internal/churn"
	"elpc/internal/core"
	"elpc/internal/engine"
	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/measure"
	"elpc/internal/model"
	"elpc/internal/refine"
	"elpc/internal/service"
	"elpc/internal/service/wire"
	"elpc/internal/sim"
)

// Domain types, re-exported from the internal model so downstream users have
// stable names without reaching into internal packages.
type (
	// NodeID identifies a network node.
	NodeID = model.NodeID
	// Node is a computing node with normalized processing power (ops/ms).
	Node = model.Node
	// Link is a directed communication link (bandwidth Mbit/s, MLD ms).
	Link = model.Link
	// Network is an arbitrary-topology directed transport network.
	Network = model.Network
	// Module is one pipeline stage (complexity ops/byte, data sizes bytes).
	Module = model.Module
	// Pipeline is a linear module chain from data source to end user.
	Pipeline = model.Pipeline
	// Mapping assigns every module to a node.
	Mapping = model.Mapping
	// Group is a maximal run of consecutive modules on one node.
	Group = model.Group
	// Problem bundles a network, pipeline, endpoints, and cost options.
	Problem = model.Problem
	// Objective selects minimum delay or maximum frame rate.
	Objective = model.Objective
	// CostOptions tunes the analytical cost model.
	CostOptions = model.CostOptions
	// Mapper is the algorithm interface shared by ELPC and the baselines.
	Mapper = model.Mapper
	// CaseSpec describes one generated evaluation case.
	CaseSpec = gen.CaseSpec
	// Ranges bounds randomly generated pipeline/network attributes.
	Ranges = gen.Ranges
	// SimConfig controls a discrete-event simulation run.
	SimConfig = sim.Config
	// SimResult reports a discrete-event simulation run.
	SimResult = sim.Result
	// ProbeConfig controls synthetic network measurement.
	ProbeConfig = measure.ProbeConfig
)

// Objectives.
const (
	// MinDelay minimizes end-to-end delay (node reuse allowed).
	MinDelay = model.MinDelay
	// MaxFrameRate maximizes frame rate (no node reuse).
	MaxFrameRate = model.MaxFrameRate
)

// ErrInfeasible is returned (wrapped) when no valid mapping exists.
var ErrInfeasible = model.ErrInfeasible

// NewNetwork validates nodes and links and builds a network.
func NewNetwork(nodes []Node, links []Link) (*Network, error) {
	return model.NewNetwork(nodes, links)
}

// NewPipeline validates a module chain and builds a pipeline.
func NewPipeline(modules []Module) (*Pipeline, error) {
	return model.NewPipeline(modules)
}

// DefaultCostOptions returns the evaluation's cost-model configuration.
func DefaultCostOptions() CostOptions { return model.DefaultCostOptions() }

// MinDelayMapping runs the optimal ELPC dynamic program for minimum
// end-to-end delay with node reuse (paper Section 3.1.1).
func MinDelayMapping(p *Problem) (*Mapping, error) { return core.MinDelay(p) }

// MaxFrameRateMapping runs the ELPC dynamic-programming heuristic for
// maximum frame rate without node reuse (paper Section 3.1.2).
func MaxFrameRateMapping(p *Problem) (*Mapping, error) { return core.MaxFrameRate(p) }

// MaxFrameRateWithReuse runs the reuse extension (paper Section 5 future
// work): hill climbing on the shared-resource bottleneck seeded by the ELPC
// mappings. It returns the mapping and its period in ms.
func MaxFrameRateWithReuse(p *Problem) (*Mapping, float64, error) {
	return refine.MaxFrameRateWithReuse(p, refine.Options{})
}

// MaxFrameRateWithDelayBudget maximizes frame rate among no-reuse mappings
// whose end-to-end delay stays within budgetMs (bicriteria extension; a
// non-positive budget disables the constraint).
func MaxFrameRateWithDelayBudget(p *Problem, budgetMs float64) (*Mapping, error) {
	return core.MaxFrameRateWithBudget(p, core.TradeoffOptions{DelayBudgetMs: budgetMs})
}

// TradeoffPoint is one (delay, rate) point of the rate–delay frontier.
type TradeoffPoint = core.TradeoffPoint

// RateDelayFront sweeps delay budgets and returns the nondominated
// (delay, rate) points with their mappings.
func RateDelayFront(p *Problem, points int) ([]TradeoffPoint, error) {
	return core.ParetoFront(p, points, 0)
}

// SolveContext owns reusable DP scratch memory, making repeated solves on
// one goroutine allocation-lean. Not safe for concurrent use; the package-
// level solver functions manage a pool of these internally.
type SolveContext = core.SolveContext

// NewSolveContext returns an empty solve context; scratch grows lazily and
// is reused across solves.
func NewSolveContext() *SolveContext { return core.NewSolveContext() }

// EnginePool is the bounded work-stealing executor behind parallel sweeps,
// batch solving, and fleet rebalancing. A nil *EnginePool means sequential.
type EnginePool = engine.Pool

// NewEnginePool starts a pool targeting the given parallelism (<= 0 selects
// GOMAXPROCS). Close it when done.
func NewEnginePool(workers int) *EnginePool { return engine.NewPool(workers) }

// RateDelayFrontParallel is RateDelayFront with the sweep's budget points
// fanned out across the pool. The result is byte-identical to the
// sequential sweep for any pool size.
func RateDelayFrontParallel(pool *EnginePool, p *Problem, points int) ([]TradeoffPoint, error) {
	return engine.ParetoFront(pool, p, points, 0)
}

// TotalDelay evaluates Eq. 1 (end-to-end delay, ms) of a mapping.
func TotalDelay(p *Problem, m *Mapping) float64 {
	return model.TotalDelay(p.Net, p.Pipe, m, p.Cost)
}

// BottleneckOf evaluates Eq. 2 (bottleneck period, ms) of a mapping.
func BottleneckOf(p *Problem, m *Mapping) float64 {
	return model.Bottleneck(p.Net, p.Pipe, m)
}

// SharedBottleneckOf evaluates the shared-resource bottleneck (ms),
// generalizing Eq. 2 to mappings that reuse nodes or links.
func SharedBottleneckOf(p *Problem, m *Mapping) float64 {
	return model.SharedBottleneck(p.Net, p.Pipe, m)
}

// FrameRateOf converts a mapping's Eq. 2 bottleneck to frames/second.
func FrameRateOf(p *Problem, m *Mapping) float64 {
	return model.FrameRate(BottleneckOf(p, m))
}

// Mappers.

// ELPCMapper returns the paper's ELPC algorithm as a Mapper.
func ELPCMapper() Mapper { return core.Mapper{} }

// StreamlineMapper returns the adapted Streamline comparison algorithm.
func StreamlineMapper() Mapper { return baseline.Streamline{} }

// GreedyMapper returns the Greedy comparison algorithm.
func GreedyMapper() Mapper { return baseline.Greedy{} }

// BruteMapper returns the exhaustive exact solver (small instances only).
func BruteMapper() Mapper { return baseline.Brute{} }

// Generation.

// Suite20 returns the 20 evaluation cases behind Figures 2, 5, and 6.
func Suite20() []CaseSpec { return gen.Suite20() }

// SmallCase returns the illustrated 5-module / 6-node case of Figures 3–4.
func SmallCase() CaseSpec { return gen.SmallCase() }

// BuildCase materializes a case spec into a problem instance.
func BuildCase(spec CaseSpec) (*Problem, error) { return spec.Build() }

// DefaultRanges returns the calibrated random-attribute ranges.
func DefaultRanges() Ranges { return gen.DefaultRanges() }

// GenerateNetwork draws a strongly connected random network.
func GenerateNetwork(nodes, links int, r Ranges, rng *rand.Rand) (*Network, error) {
	return gen.Network(nodes, links, r, rng)
}

// GeneratePipeline draws a random linear pipeline with n modules.
func GeneratePipeline(n int, r Ranges, rng *rand.Rand) (*Pipeline, error) {
	return gen.Pipeline(n, r, rng)
}

// RNG returns the repository's deterministic random generator for a seed.
func RNG(seed uint64) *rand.Rand { return gen.RNG(seed) }

// Simulation.

// Simulate replays the mapped pipeline in the discrete-event simulator.
func Simulate(p *Problem, m *Mapping, cfg SimConfig) (*SimResult, error) {
	return sim.Simulate(p, m, cfg)
}

// Measurement.

// EstimateNetwork actively probes every node and link of the true network
// and returns a network built from the regression estimates (paper refs
// [13], [14]; probing is synthetic — see DESIGN.md).
func EstimateNetwork(truth *Network, cfg ProbeConfig) (*Network, error) {
	return measure.EstimateNetwork(truth, cfg)
}

// DefaultProbeSizes returns the default active-measurement probe train.
func DefaultProbeSizes() []float64 { return measure.DefaultProbeSizes() }

// Planning service (cmd/elpcd), embeddable pieces.

type (
	// ServiceOptions configures a Solver or planning server (worker pool
	// size, solution-cache capacity/shards, per-request solve timeout).
	ServiceOptions = service.Options
	// SolveOp selects the planning operation of a SolveRequest.
	SolveOp = service.Op
	// SolveRequest is one planning request for a Solver.
	SolveRequest = service.Request
	// SolveResult reports one solved planning request, including whether
	// it was served from the solution cache.
	SolveResult = service.Result
	// RateDelayPoint is one point of a served Pareto sweep.
	RateDelayPoint = service.FrontPoint
	// BatchItem is one Solver.SolveBatch outcome.
	BatchItem = service.BatchItem
	// Solver answers planning requests concurrently behind a bounded
	// worker pool and a sharded LRU solution cache keyed by the canonical
	// problem hash; safe for concurrent use.
	Solver = service.Solver
	// SolverStats snapshots solver counters (in-flight, cold solves,
	// coalesced requests, timeouts, cache hit/miss/eviction).
	SolverStats = service.SolverStats
	// CacheStats reports solution-cache counters.
	CacheStats = service.CacheStats
	// PlanningServer is the elpcd HTTP server; mount Handler() anywhere.
	PlanningServer = service.Server
)

// HTTP wire contract (internal/service/wire), embeddable pieces for clients
// that speak the /v1 API without importing the server.

type (
	// APIError is the structured error every /v1 handler returns inside an
	// APIErrorEnvelope: a stable code, a human message, and a retryable hint.
	APIError = wire.Error
	// APIErrorEnvelope is the {"error": {...}} body of every non-2xx /v1
	// response.
	APIErrorEnvelope = wire.ErrorEnvelope
	// DeployBatchRequest is the POST /v1/fleet/deploy-batch body: a burst of
	// deploy requests placed in one class/scarcity-ordered pass.
	DeployBatchRequest = wire.DeployBatch
	// DeployBatchItem is one request's outcome in a DeployBatchResponse.
	DeployBatchItem = wire.DeployBatchItem
	// DeployBatchResponse is the per-request outcome array plus tallies
	// returned by POST /v1/fleet/deploy-batch.
	DeployBatchResponse = wire.DeployBatchResponse
)

// Planning operations.
const (
	// OpMinDelay requests the optimal min-delay DP (reuse allowed).
	OpMinDelay = service.OpMinDelay
	// OpMaxFrameRate requests the max-frame-rate heuristic (no reuse),
	// optionally delay-budgeted.
	OpMaxFrameRate = service.OpMaxFrameRate
	// OpFront requests the rate–delay Pareto sweep.
	OpFront = service.OpFront
)

// NewSolver builds a concurrent caching planning solver. The zero
// ServiceOptions value selects GOMAXPROCS workers and the default cache.
func NewSolver(opt ServiceOptions) *Solver { return service.NewSolver(opt) }

// NewPlanningServer builds the elpcd HTTP planning server without binding a
// listener (use Handler() with your own mux, http.Server, or httptest).
func NewPlanningServer(opt ServiceOptions) *PlanningServer { return service.NewServer(opt) }

// Serve runs the elpcd planning service on addr until the listener fails.
func Serve(addr string, opt ServiceOptions) error { return service.ListenAndServe(addr, opt) }

// CanonicalProblemHash returns the deterministic hex SHA-256 of the
// problem's canonical binary form (every node, link and module field, the
// endpoints and the cost options, length-prefixed and little-endian) — the
// key the solution cache uses.
func CanonicalProblemHash(p *Problem) (string, error) { return service.Hash(p) }

// Fleet manager (multi-tenant placement), embeddable pieces.

type (
	// FleetRequest asks a fleet to place one pipeline.
	FleetRequest = fleet.Request
	// FleetSLO states a deployment's admission constraints.
	FleetSLO = fleet.SLO
	// Deployment is one admitted pipeline with its mapping and reserved
	// capacity.
	Deployment = fleet.Deployment
	// FleetStats snapshots fleet counters and utilization gauges.
	FleetStats = fleet.Stats
	// RebalanceOptions tunes a fleet Rebalance pass (move cap, migration-
	// cost guard).
	RebalanceOptions = fleet.RebalanceOptions
	// RebalanceReport summarizes one rebalance pass.
	RebalanceReport = fleet.Report
	// ResidualNetwork is the shared capacity view behind a fleet: per-node
	// and per-link outstanding load over a base Network, materializable as
	// a scaled Network snapshot.
	ResidualNetwork = model.ResidualNetwork
	// Reservation is the fractional capacity a deployment holds — one share
	// per node its mapping's module groups run on and per link between
	// consecutive groups, O(path) — and the mapping's path, which
	// ResidualNetwork.ScorePath scores straight off the view. A zero-rate
	// reservation holds no share but still records its path. It is
	// opaque; pass it to a ResidualNetwork's SetLoad, AddLoad, Fits or
	// ScorePath.
	Reservation = model.Reservation
	// ArrivalEvent is one event of a generated multi-tenant workload.
	ArrivalEvent = gen.ArrivalEvent
	// ArrivalSpec shapes a generated multi-tenant workload.
	ArrivalSpec = gen.ArrivalSpec
	// SLOClass is a deployment's admission class (guaranteed, standard, or
	// best-effort), ordering batch placement and preemption eligibility.
	SLOClass = fleet.Class
	// BatchOutcome is one request's result from a fleet's DeployBatch: the
	// admitted deployment or the per-request admission error, tagged with the
	// request's index in the submitted batch.
	BatchOutcome = fleet.BatchOutcome
	// ParkedDeployment is a best-effort deployment preempted by a guaranteed
	// admission, drained via TakePreempted for requeueing.
	ParkedDeployment = fleet.ParkedDeployment
)

// SLO classes, in descending admission priority.
const (
	// SLOGuaranteed deployments may preempt best-effort tenants when plain
	// admission fails.
	SLOGuaranteed = fleet.ClassGuaranteed
	// SLOStandard is the default class (also selected by an empty Class).
	SLOStandard = fleet.ClassStandard
	// SLOBestEffort deployments are preemptible and shed first under
	// admission-queue pressure.
	SLOBestEffort = fleet.ClassBestEffort
)

// Workload event kinds.
const (
	// Arrive asks the fleet to deploy the session's pipeline.
	Arrive = gen.Arrive
	// Depart releases the session's deployment.
	Depart = gen.Depart
)

// ErrFleetRejected is returned (wrapped) when fleet admission control
// declines a deployment.
var ErrFleetRejected = fleet.ErrRejected

// NewFleet builds an empty one-shard fleet over the shared base network: it
// admits many pipelines onto one shared network, solving each against the
// residual capacity left by earlier tenants, and supports release, live
// rebalancing, and churn repair. Safe for concurrent use.
func NewFleet(net *Network) (*ShardedFleet, error) { return fleet.New(net) }

// Sharded fleet (region-partitioned placement), embeddable pieces.

type (
	// FleetManager is the fleet's placement-management surface
	// (deploy/release/list/stats/rebalance/churn/repair), implemented by
	// ShardedFleet.
	FleetManager = fleet.Manager
	// ShardedFleet is the fleet manager. It partitions the shared network
	// into regions, one independently locked region each: same-region
	// deployments never contend, cross-region ones two-phase-reserve
	// boundary links through a coordinator. NewFleet builds it with one
	// shard.
	ShardedFleet = fleet.ShardedFleet
	// ShardStat is one region's gauge block in ShardedStats.
	ShardStat = fleet.ShardStat
	// ShardedStats is the per-region and coordinator gauge breakdown served
	// by elpcd's /v1/stats as fleet_shards.
	ShardedStats = fleet.ShardedStats
	// NetworkPartition is a K-way region partition of a network's nodes and
	// links, with the explicit cross-region boundary-link set.
	NetworkPartition = model.Partition
	// RegionView is the index translation between a network and one
	// region's sub-network.
	RegionView = model.RegionView
	// ClusterSpec shapes a generated clustered topology (K dense clusters
	// joined by sparse inter-cluster links).
	ClusterSpec = gen.ClusterSpec
)

// NewShardedFleet partitions net into the given number of regions and
// builds a sharded fleet over them (see fleet.NewSharded).
func NewShardedFleet(net *Network, shards int) (*ShardedFleet, error) {
	return fleet.NewSharded(net, shards)
}

// NewShardedFleetWithPartition builds a sharded fleet over a caller-supplied
// partition (e.g. ClusterSpec.ClusterPartition for generated topologies).
func NewShardedFleetWithPartition(net *Network, part *NetworkPartition) (*ShardedFleet, error) {
	return fleet.NewShardedWithPartition(net, part)
}

// PartitionNetwork splits net into k regions with the deterministic
// balanced graph partitioner and derives link ownership and the boundary
// set.
func PartitionNetwork(net *Network, k int) (*NetworkPartition, error) {
	return model.PartitionNetwork(net, k)
}

// DefaultClusterSpec returns the large clustered topology (~n500/l5000) the
// scale benchmarks run on.
func DefaultClusterSpec() ClusterSpec { return gen.DefaultClusterSpec() }

// GenerateClusteredNetwork draws a strongly connected clustered network:
// K dense random clusters joined by a tunable number of inter-cluster
// links.
func GenerateClusteredNetwork(spec ClusterSpec, r Ranges, rng *rand.Rand) (*Network, error) {
	return gen.ClusteredNetwork(spec, r, rng)
}

// NewResidualNetwork builds an unloaded residual capacity view of base.
func NewResidualNetwork(base *Network) *ResidualNetwork { return model.NewResidualNetwork(base) }

// MappingReservation computes the fractional capacity a mapping consumes
// when streaming at rateFPS frames per second — a share on every node and
// link of its path, none elsewhere in net — and records the path itself. A
// non-positive rate holds no share but still records the path.
func MappingReservation(net *Network, pl *Pipeline, m *Mapping, rateFPS float64) (Reservation, error) {
	return model.MappingReservation(net, pl, m, rateFPS)
}

// DefaultArrivalSpec returns the calibrated multi-tenant workload shape.
func DefaultArrivalSpec() ArrivalSpec { return gen.DefaultArrivalSpec() }

// GenerateArrivals draws a deterministic multi-tenant arrival/departure
// schedule over net (deploy on Arrive, release on Depart).
func GenerateArrivals(spec ArrivalSpec, net *Network, r Ranges, rng *rand.Rand) ([]ArrivalEvent, error) {
	return gen.Arrivals(spec, net, r, rng)
}

// Churn (dynamic-network) subsystem, embeddable pieces.

type (
	// ChurnEvent is one network mutation: node failure/recovery, link
	// degradation/restoration, or capacity drift, applied transactionally
	// to a ResidualNetwork or a fleet.
	ChurnEvent = model.ChurnEvent
	// ChurnKind names a churn event kind.
	ChurnKind = model.ChurnKind
	// Reconciler applies churn events to a fleet and repairs incrementally:
	// only deployments touching mutated elements are re-solved; what no
	// longer fits is parked and re-queued when capacity returns.
	Reconciler = churn.Reconciler
	// ReconcilerOptions tunes a Reconciler (requeue pacing, the journal it
	// records into).
	ReconcilerOptions = churn.Options
	// ChurnRecord summarizes one applied event batch (affected, migrated,
	// parked, requeued counts and repair latency).
	ChurnRecord = churn.Record
	// ChurnStats aggregates a Reconciler's lifetime counters.
	ChurnStats = churn.Stats
	// ChurnSpec shapes a generated churn trace.
	ChurnSpec = gen.ChurnSpec
	// TimedChurnEvent is one timed event of a generated churn trace.
	TimedChurnEvent = gen.ChurnEvent
	// RepairReport summarizes one incremental fleet Repair pass.
	RepairReport = fleet.RepairReport
)

// Churn event kinds.
const (
	// NodeDown fails a node (capacity factor 0).
	NodeDown = model.NodeDown
	// NodeUp restores a failed node to nominal capacity.
	NodeUp = model.NodeUp
	// LinkDegrade reduces a link to a fraction of nominal bandwidth.
	LinkDegrade = model.LinkDegrade
	// LinkRestore returns a link to nominal bandwidth.
	LinkRestore = model.LinkRestore
	// CapacityDrift multiplies a node's or link's capacity factor.
	CapacityDrift = model.CapacityDrift
)

// Churn error sentinels (wrapped by returned errors).
var (
	// ErrChurnUnknownTarget marks events naming nonexistent nodes/links.
	ErrChurnUnknownTarget = model.ErrUnknownTarget
	// ErrChurnConflict marks events contradicting current capacity state
	// (double-down, up-on-up, drift on a down node).
	ErrChurnConflict = model.ErrChurnConflict
)

// NewReconciler builds a churn reconciler over the fleet.
func NewReconciler(f FleetManager, opt ReconcilerOptions) *Reconciler { return churn.New(f, opt) }

// GenerateChurn draws a deterministic, state-consistent timed churn trace
// over net; replaying it in order always applies cleanly.
func GenerateChurn(spec ChurnSpec, net *Network, rng *rand.Rand) ([]TimedChurnEvent, error) {
	return gen.Churn(spec, net, rng)
}

// DefaultChurnSpec returns the calibrated churn trace shape.
func DefaultChurnSpec() ChurnSpec { return gen.DefaultChurnSpec() }
