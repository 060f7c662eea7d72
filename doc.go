// Package elpc is a Go reproduction of "Optimizing Network Performance of
// Computing Pipelines in Distributed Environments" (Wu, Gu, Zhu, Rao —
// IEEE IPDPS 2008): the Efficient Linear Pipeline Configuration (ELPC)
// algorithms that map a linear computing pipeline onto an arbitrary
// heterogeneous network to minimize end-to-end delay (interactive
// applications, node reuse allowed — optimal dynamic program) or maximize
// frame rate (streaming applications, no node reuse — NP-complete, DP
// heuristic), together with the Streamline and Greedy comparison
// algorithms, a discrete-event simulator that validates the analytical cost
// models, a regression-based network measurement substrate, deterministic
// workload generators, and the full experiment harness regenerating every
// table and figure of the paper's evaluation.
//
// # Quick start
//
//	p, _ := elpc.BuildCase(elpc.SmallCase())        // 5 modules on 6 nodes
//	m, _ := elpc.MinDelayMapping(p)                 // optimal DP mapping
//	fmt.Println(m)                                  // [M0-M1]@v3 -> ...
//	fmt.Println(elpc.TotalDelay(p, m), "ms")        // Eq. 1 cost
//
//	s, _ := elpc.MaxFrameRateMapping(p)             // streaming mapping
//	fmt.Println(elpc.FrameRateOf(p, s), "fps")      // 1 / Eq. 2 bottleneck
//
// # Planning service
//
// The solvers are also available as a long-running concurrent service:
// NewSolver returns an embeddable Solver with a bounded worker pool and a
// sharded LRU solution cache keyed by a canonical problem hash (repeated or
// concurrently identical requests cost one DP solve), and cmd/elpcd — also
// reachable as `elpc serve` and via Serve/NewPlanningServer — exposes it
// over HTTP/JSON: POST /v1/mindelay, /v1/maxframerate, /v1/front,
// /v1/simulate, and /v1/batch, with GET /v1/stats for cache and pool
// counters.
//
//	solver := elpc.NewSolver(elpc.ServiceOptions{})
//	res, _ := solver.Solve(ctx, elpc.SolveRequest{Op: elpc.OpMinDelay, Problem: p})
//
// # Fleet — multi-tenant placement
//
// The paper's algorithms map one pipeline onto an uncontended network; the
// fleet manager makes the network stateful shared infrastructure. A fleet
// tracks per-node and per-link residual capacity across many concurrent
// deployments and solves every new request against a scaled residual
// snapshot of the network (the solvers run unchanged), so multi-tenant
// placement is admission-controlled: Deploy rejects (ErrFleetRejected) when
// no mapping meets the request's SLO or capacity would be overcommitted,
// Release returns exactly the reserved capacity, and Rebalance re-solves
// laggards onto freed capacity behind a migration-cost guard. The same
// lifecycle is served over HTTP by elpcd under /v1/fleet/*.
//
//	fl, _ := elpc.NewFleet(net)
//	d, _  := fl.Deploy(elpc.FleetRequest{Pipeline: pl, Src: 0, Dst: 9,
//		Objective: elpc.MaxFrameRate, SLO: elpc.FleetSLO{MinRateFPS: 5}})
//	fl.Rebalance(elpc.RebalanceOptions{})
//	fl.Release(d.ID)
//
// # Sharded fleet — region-partitioned placement
//
// At scale one fleet lock throttles every operation, so the fleet shards:
// PartitionNetwork splits the network into K connected regions with an
// explicit cross-region boundary-link set, and NewShardedFleet runs one
// independently locked region per shard. Same-region deployments take
// only their shard's lock and solve on the region's sub-network (K×
// smaller); cross-region deployments go through a coordinator region that
// two-phase-reserves boundary links; churn events route to the owning
// shard so repair stays regional. NewFleet is the one-shard case: the
// same ShardedFleet, the only FleetManager, which elpcd installs with the
// shards option of POST /v1/fleet/network.
//
//	sf, _ := elpc.NewShardedFleet(net, 8)
//	d, _ = sf.Deploy(elpc.FleetRequest{Pipeline: pl, Src: 0, Dst: 9})
//	fmt.Println(sf.ShardStats().Coordinator.BoundaryLinks)
//
// # Parallel engine
//
// Decomposable solves — a Pareto sweep's budget points, a batch's problems,
// a rebalance pass's re-solves — fan out across a shared work-stealing pool
// bounded by GOMAXPROCS (NewEnginePool). The submitting goroutine always
// participates, so nested fan-outs cannot deadlock; results are placed by
// index, so parallel execution is byte-identical to sequential:
//
//	pool := elpc.NewEnginePool(0) // GOMAXPROCS
//	defer pool.Close()
//	front, _ := elpc.RateDelayFrontParallel(pool, p, 16)
//
// The solver hot paths are allocation-lean: DP tables, beam lists, and
// consumed-node bitsets live in a reusable SolveContext (slab + arena), so
// steady-state solving does not churn the garbage collector.
//
// # Churn — dynamic networks and self-healing placement
//
// Production networks are not static: nodes fail and recover, links
// degrade, capacity drifts. ChurnEvent models those mutations (NodeDown,
// NodeUp, LinkDegrade, LinkRestore, CapacityDrift), applied
// transactionally to a ResidualNetwork's capacity factors, and a
// Reconciler (NewReconciler) keeps a fleet consistent with them through
// incremental repair: each event batch re-solves only the deployments
// whose placements touch the mutated elements, migrates what still fits,
// parks what does not, and re-queues parked deployments when capacity
// returns. GenerateChurn draws deterministic, state-consistent event
// traces for experiments; elpcd serves the same cycle via POST /v1/events
// and GET /v1/events/log.
//
//	rec := elpc.NewReconciler(fl, elpc.ReconcilerOptions{})
//	record, _ := rec.Apply([]elpc.ChurnEvent{{Kind: elpc.NodeDown, Node: 3}})
//	fmt.Println(record.Affected, record.Migrated, record.Parked)
//
// See the examples directory for runnable scenarios (remote visualization,
// video surveillance streaming, measurement-driven adaptive remapping,
// multi-tenant fleet placement, parallel-scaling demo) and cmd/pipebench
// for the experiment suite with its -compare benchmark-baseline gate.
package elpc
