// Benchmarks regenerating the paper's evaluation artifacts (DESIGN.md
// experiment index):
//
//	BenchmarkFig2MinDelay*    — Figure 2, delay columns (E1)
//	BenchmarkFig2FrameRate*   — Figure 2, rate columns (E2)
//	BenchmarkFig34            — Figures 3-4 path illustrations (E3/E4)
//	BenchmarkFig5Sweep        — Figure 5 series (E5)
//	BenchmarkFig6Sweep        — Figure 6 series (E6)
//	BenchmarkAlgoScaling*     — Section 4.3 runtime/polynomial-complexity claim (E7)
//	BenchmarkBeamAblation     — frame-rate DP beam-width ablation (E9)
//	BenchmarkRefineReuse      — Section 5 reuse extension (E12)
//	BenchmarkSimulator        — DES kernel throughput (E10 substrate)
//	BenchmarkEstimateNetwork  — measurement substrate (E11)
//
// Reported custom metrics: ms_delay / fps are solution quality (averages
// over the suite), infeasible counts heuristic misses.
package elpc_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"elpc"
	"elpc/internal/core"
	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/harness"
	"elpc/internal/measure"
	"elpc/internal/model"
	"elpc/internal/refine"
	"elpc/internal/sim"
	"elpc/internal/wal"
)

// suiteProblems lazily builds the 20 evaluation instances once.
var suiteProblems = sync.OnceValues(func() ([]*model.Problem, error) {
	specs := gen.Suite20()
	ps := make([]*model.Problem, len(specs))
	for i, s := range specs {
		p, err := s.Build()
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
})

func mustSuite(b *testing.B) []*model.Problem {
	b.Helper()
	ps, err := suiteProblems()
	if err != nil {
		b.Fatal(err)
	}
	return ps
}

// benchMapper runs one mapper over the whole suite per iteration, reporting
// mean solution quality and infeasibility counts.
func benchMapper(b *testing.B, mapper model.Mapper, obj model.Objective) {
	ps := mustSuite(b)
	var quality float64
	var infeasible int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quality, infeasible = 0, 0
		n := 0
		for _, p := range ps {
			m, err := mapper.Map(p, obj)
			if err != nil {
				infeasible++
				continue
			}
			switch obj {
			case model.MinDelay:
				quality += model.TotalDelay(p.Net, p.Pipe, m, p.Cost)
			case model.MaxFrameRate:
				quality += model.FrameRate(model.Bottleneck(p.Net, p.Pipe, m))
			}
			n++
		}
		if n > 0 {
			quality /= float64(n)
		}
	}
	if obj == model.MinDelay {
		b.ReportMetric(quality, "ms_delay")
	} else {
		b.ReportMetric(quality, "fps")
	}
	b.ReportMetric(float64(infeasible), "infeasible")
}

func BenchmarkFig2MinDelayELPC(b *testing.B) { benchMapper(b, elpc.ELPCMapper(), model.MinDelay) }
func BenchmarkFig2MinDelayStreamline(b *testing.B) {
	benchMapper(b, elpc.StreamlineMapper(), model.MinDelay)
}
func BenchmarkFig2MinDelayGreedy(b *testing.B) { benchMapper(b, elpc.GreedyMapper(), model.MinDelay) }

func BenchmarkFig2FrameRateELPC(b *testing.B) {
	benchMapper(b, elpc.ELPCMapper(), model.MaxFrameRate)
}
func BenchmarkFig2FrameRateStreamline(b *testing.B) {
	benchMapper(b, elpc.StreamlineMapper(), model.MaxFrameRate)
}
func BenchmarkFig2FrameRateGreedy(b *testing.B) {
	benchMapper(b, elpc.GreedyMapper(), model.MaxFrameRate)
}

// BenchmarkFig34 regenerates the Figure 3/4 path illustrations.
func BenchmarkFig34(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFigure34(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Sweep regenerates the Figure 5 delay series (all algorithms,
// all cases, delay objective).
func BenchmarkFig5Sweep(b *testing.B) {
	ps := mustSuite(b)
	mappers := harness.Mappers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			for _, mp := range mappers {
				if m, err := mp.Map(p, model.MinDelay); err == nil {
					_ = model.TotalDelay(p.Net, p.Pipe, m, p.Cost)
				}
			}
		}
	}
}

// BenchmarkFig6Sweep regenerates the Figure 6 frame-rate series.
func BenchmarkFig6Sweep(b *testing.B) {
	ps := mustSuite(b)
	mappers := harness.Mappers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			for _, mp := range mappers {
				if m, err := mp.Map(p, model.MaxFrameRate); err == nil {
					_ = model.Bottleneck(p.Net, p.Pipe, m)
				}
			}
		}
	}
}

// scalingProblem builds one instance per size for the polynomial-scaling
// benches: n nodes, ~8n links, n/5 modules.
func scalingProblem(b *testing.B, nodes int) *model.Problem {
	b.Helper()
	spec := gen.CaseSpec{
		ID:      0,
		Modules: nodes / 5,
		Nodes:   nodes,
		Links:   8 * nodes,
		Seed:    uint64(nodes),
	}
	p, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAlgoScalingMinDelay shows the O(n·|E|) growth of the delay DP
// (Section 4.3's "milliseconds to seconds" claim).
func BenchmarkAlgoScalingMinDelay(b *testing.B) {
	for _, nodes := range []int{50, 100, 200, 400, 800} {
		p := scalingProblem(b, nodes)
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v := core.MinDelayValue(p); math.IsInf(v, 1) {
					b.Fatal("unexpected infeasible")
				}
			}
		})
	}
}

// BenchmarkAlgoScalingFrameRate shows the frame-rate DP's growth.
func BenchmarkAlgoScalingFrameRate(b *testing.B) {
	for _, nodes := range []int{50, 100, 200, 400} {
		p := scalingProblem(b, nodes)
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MaxFrameRateValue(p, core.FrameRateOptions{})
			}
		})
	}
}

// BenchmarkBeamAblation quantifies the beam-width trade-off of the
// frame-rate DP: beam=1 is the paper's heuristic; larger beams reduce
// dead-end misses at higher cost. Metrics: fps (mean over feasible cases)
// and infeasible (miss count over the 20-case suite).
func BenchmarkBeamAblation(b *testing.B) {
	ps := mustSuite(b)
	for _, beam := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("beam=%d", beam), func(b *testing.B) {
			var fps float64
			var infeasible int
			for i := 0; i < b.N; i++ {
				fps, infeasible = 0, 0
				n := 0
				for _, p := range ps {
					m, err := core.MaxFrameRateOpt(p, core.FrameRateOptions{Beam: beam})
					if err != nil {
						infeasible++
						continue
					}
					fps += model.FrameRate(model.Bottleneck(p.Net, p.Pipe, m))
					n++
				}
				if n > 0 {
					fps /= float64(n)
				}
			}
			b.ReportMetric(fps, "fps")
			b.ReportMetric(float64(infeasible), "infeasible")
		})
	}
}

// BenchmarkRefineReuse measures the Section 5 reuse extension over the
// suite, reporting its mean frame rate.
func BenchmarkRefineReuse(b *testing.B) {
	ps := mustSuite(b)
	var fps float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fps = 0
		n := 0
		for _, p := range ps {
			_, period, err := refine.MaxFrameRateWithReuse(p, refine.Options{})
			if err != nil {
				continue
			}
			fps += model.FrameRate(period)
			n++
		}
		if n > 0 {
			fps /= float64(n)
		}
	}
	b.ReportMetric(fps, "fps")
}

// BenchmarkSimulator measures DES throughput streaming 1000 frames through
// the largest case's ELPC mapping.
func BenchmarkSimulator(b *testing.B) {
	ps := mustSuite(b)
	p := ps[len(ps)-1]
	m, err := core.MaxFrameRate(p)
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Simulate(p, m, sim.Config{Frames: 1000})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkEstimateNetwork measures the probing+regression substrate on a
// mid-size network.
func BenchmarkEstimateNetwork(b *testing.B) {
	net, err := gen.Network(50, 400, gen.DefaultRanges(), gen.RNG(5))
	if err != nil {
		b.Fatal(err)
	}
	cfg := measure.ProbeConfig{
		Sizes:    measure.DefaultProbeSizes(),
		Repeats:  4,
		NoiseStd: 0.5,
		Rng:      gen.RNG(6),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.EstimateNetwork(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetDeploy measures multi-tenant placement throughput on a
// Suite20-class network (case 8: 50 nodes, 1000 links): each op is one
// admission-controlled Deploy — a residual-network snapshot, a solver run,
// an SLO check, and a capacity reservation. When the network saturates the
// fleet is drained (release cost amortizes into the loop). Metrics:
// admitted fraction of attempts and mean deployments resident at admission.
func BenchmarkFleetDeploy(b *testing.B) {
	spec := gen.Suite20()[7]
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		b.Fatal(err)
	}
	const variants = 32
	reqs := make([]fleet.Request, variants)
	for i := range reqs {
		rng := gen.RNG(uint64(1000 + i))
		pl, err := gen.Pipeline(5+i%4, gen.DefaultRanges(), rng)
		if err != nil {
			b.Fatal(err)
		}
		src := model.NodeID(rng.IntN(spec.Nodes))
		dst := model.NodeID(rng.IntN(spec.Nodes - 1))
		if dst >= src {
			dst++
		}
		obj := model.MinDelay
		if i%2 == 0 {
			obj = model.MaxFrameRate
		}
		reqs[i] = fleet.Request{
			Pipeline:  pl,
			Src:       src,
			Dst:       dst,
			Objective: obj,
			SLO:       fleet.SLO{MinRateFPS: 2},
		}
	}
	fl, err := fleet.New(net)
	if err != nil {
		b.Fatal(err)
	}
	admitted, resident := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resident += len(fl.List())
		_, err := fl.Deploy(reqs[i%variants])
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, fleet.ErrRejected):
			// Saturated: drain and keep deploying.
			for _, d := range fl.List() {
				if err := fl.Release(d.ID); err != nil {
					b.Fatal(err)
				}
			}
		default:
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(admitted)/float64(b.N), "admit_frac")
	b.ReportMetric(float64(resident)/float64(b.N), "resident")
}

// reportFleet is one fleet shape BenchmarkSLOReport and
// BenchmarkFleetRelease run on: a network, its shard count, the deployment
// population to admit, and the endpoint draw.
type reportFleet struct {
	name      string
	net       *model.Network
	shards    int
	target    int
	endpoints func(rng *rand.Rand) (model.NodeID, model.NodeID)
}

// reportFleets returns the two fleet shapes of the end-to-end benchmark's
// fleet workloads: the plain fleet on the Suite20 case-8 network (50 nodes,
// 1000 links) holding 160 deployments, and 8 shards on the clustered
// gen.DefaultClusterSpec network (504 nodes, 4896 links) holding 128, 15%
// of them cross-cluster.
func reportFleets(b *testing.B) []reportFleet {
	suite8, err := gen.Suite20()[7].Build()
	if err != nil {
		b.Fatal(err)
	}
	spec := gen.DefaultClusterSpec()
	clustered, err := gen.ClusteredNetwork(spec, gen.DefaultRanges(), gen.RNG(2026))
	if err != nil {
		b.Fatal(err)
	}
	return []reportFleet{
		{"plain-n50-d160", suite8.Net, 1, 160, func(rng *rand.Rand) (model.NodeID, model.NodeID) {
			src := rng.IntN(suite8.Net.N())
			return model.NodeID(src), model.NodeID((src + 1 + rng.IntN(suite8.Net.N()-1)) % suite8.Net.N())
		}},
		{"shards8-n504-d128", clustered, spec.Clusters, 128, func(rng *rand.Rand) (model.NodeID, model.NodeID) {
			a, c := rng.IntN(spec.Clusters), rng.IntN(spec.Clusters)
			if rng.Float64() >= 0.15 {
				c = a
			}
			src := rng.IntN(spec.Nodes)
			dst := (src + 1 + rng.IntN(spec.Nodes-1)) % spec.Nodes
			return model.NodeID(a*spec.Nodes + src), model.NodeID(c*spec.Nodes + dst)
		}},
	}
}

// admitted is one live deployment of a loaded benchmark fleet and the
// request that admitted it.
type admitted struct {
	id  string
	req fleet.Request
}

// load builds the fleet and admits up to tc.target deployments with the
// workloads' request mix, returning them in admission order.
func (tc reportFleet) load(b *testing.B) (*fleet.ShardedFleet, []admitted) {
	fl, err := fleet.NewSharded(tc.net, tc.shards)
	if err != nil {
		b.Fatal(err)
	}
	rng := gen.RNG(2026)
	classes := []fleet.Class{fleet.ClassGuaranteed, fleet.ClassStandard, fleet.ClassStandard, fleet.ClassStandard, fleet.ClassBestEffort}
	var live []admitted
	for attempt := 0; len(live) < tc.target && attempt < 8*tc.target; attempt++ {
		pl, err := gen.Pipeline(4+rng.IntN(5), gen.DefaultRanges(), rng)
		if err != nil {
			b.Fatal(err)
		}
		req := fleet.Request{Pipeline: pl, Objective: model.MinDelay,
			SLO: fleet.SLO{MinRateFPS: 1 + 5*rng.Float64(), Class: classes[rng.IntN(len(classes))]}}
		req.Src, req.Dst = tc.endpoints(rng)
		if rng.IntN(2) == 0 {
			req.Objective = model.MaxFrameRate
		}
		switch d, err := fl.Deploy(req); {
		case err == nil:
			live = append(live, admitted{d.ID, req})
		case !errors.Is(err, fleet.ErrRejected):
			b.Fatal(err)
		}
	}
	return fl, live
}

// sloReportSink keeps BenchmarkSLOReport's reports observable.
var sloReportSink fleet.SLOReport

// BenchmarkSLOReport measures one SLO report — the health engine's re-score
// of every live deployment on the fleet's load ledger, which elpcd runs
// after every mutating request — on the reportFleets shapes. The
// deployments metric reports the population reached.
func BenchmarkSLOReport(b *testing.B) {
	for _, tc := range reportFleets(b) {
		b.Run(tc.name, func(b *testing.B) {
			fl, _ := tc.load(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sloReportSink = fl.SLOReport()
			}
			b.ReportMetric(float64(sloReportSink.Evaluated), "deployments")
		})
	}
}

// rebalanceSink keeps BenchmarkFleetRebalance's reports observable.
var rebalanceSink fleet.Report

// BenchmarkFleetRebalance measures the first default rebalance pass on a
// freshly loaded fleet of each reportFleets shape: every iteration loads a
// new fleet outside the timer and times one pass on it. A pass that applies
// nothing re-solves every candidate on its freed view under its region's
// lock — the longest lock hold of any fleet request; a pass stops once it
// has applied DefaultMaxMoves. The loaded fleets are identical, so every
// pass does the same work, and its metrics — the candidates that first pass
// considered and the migrations it applied — do not depend on b.N.
func BenchmarkFleetRebalance(b *testing.B) {
	for _, tc := range reportFleets(b) {
		b.Run(tc.name, func(b *testing.B) {
			considered, applied := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fl, _ := tc.load(b)
				b.StartTimer()
				rebalanceSink = fl.Rebalance(fleet.RebalanceOptions{})
				considered += rebalanceSink.Considered
				applied += rebalanceSink.Applied
			}
			b.ReportMetric(float64(considered)/float64(b.N), "considered")
			b.ReportMetric(float64(applied)/float64(b.N), "applied")
		})
	}
}

// BenchmarkFleetRelease measures a release and the re-admission that
// restores occupancy on the reportFleets shapes: each op releases the
// oldest live deployment — recomputing its region's loads from the
// outstanding set, and for a cross-region deployment the whole ledger —
// then deploys its request again and queues the new deployment last. The
// readmit_frac metric is the share of re-admissions that succeeded (a
// rejected one leaves the queue).
func BenchmarkFleetRelease(b *testing.B) {
	for _, tc := range reportFleets(b) {
		b.Run(tc.name, func(b *testing.B) {
			fl, live := tc.load(b)
			readmitted := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(live) == 0 {
					b.Fatal("every deployment was rejected on re-admission")
				}
				a := live[0]
				live = live[1:]
				if err := fl.Release(a.id); err != nil {
					b.Fatal(err)
				}
				switch d, err := fl.Deploy(a.req); {
				case err == nil:
					live = append(live, admitted{d.ID, a.req})
					readmitted++
				case !errors.Is(err, fleet.ErrRejected):
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(readmitted)/float64(b.N), "readmit_frac")
		})
	}
}

// BenchmarkFleetDeployWAL is BenchmarkFleetDeploy with the write-ahead
// log attached: every admission, rejection drain, and release is durably
// logged before it returns. The delta against BenchmarkFleetDeploy is the
// WAL tax on the acknowledgment path — group commit keeps fsyncs off it,
// so the budget is < 10% (the CI recovery gate's companion number).
func BenchmarkFleetDeployWAL(b *testing.B) {
	spec := gen.Suite20()[7]
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		b.Fatal(err)
	}
	const variants = 32
	reqs := make([]fleet.Request, variants)
	for i := range reqs {
		rng := gen.RNG(uint64(1000 + i))
		pl, err := gen.Pipeline(5+i%4, gen.DefaultRanges(), rng)
		if err != nil {
			b.Fatal(err)
		}
		src := model.NodeID(rng.IntN(spec.Nodes))
		dst := model.NodeID(rng.IntN(spec.Nodes - 1))
		if dst >= src {
			dst++
		}
		obj := model.MinDelay
		if i%2 == 0 {
			obj = model.MaxFrameRate
		}
		reqs[i] = fleet.Request{
			Pipeline:  pl,
			Src:       src,
			Dst:       dst,
			Objective: obj,
			SLO:       fleet.SLO{MinRateFPS: 2},
		}
	}
	fl, err := fleet.New(net)
	if err != nil {
		b.Fatal(err)
	}
	l, _, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	if err := fleet.AppendInstall(l, net, 1); err != nil {
		b.Fatal(err)
	}
	fl.UseWAL(l)
	admitted, resident := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resident += len(fl.List())
		_, err := fl.Deploy(reqs[i%variants])
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, fleet.ErrRejected):
			// Saturated: drain and keep deploying.
			for _, d := range fl.List() {
				if err := fl.Release(d.ID); err != nil {
					b.Fatal(err)
				}
			}
		default:
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(admitted)/float64(b.N), "admit_frac")
	b.ReportMetric(float64(resident)/float64(b.N), "resident")
}

// BenchmarkBatchDeploy measures burst admission throughput on the same
// case-8 network as BenchmarkFleetDeploy: each op is one DeployBatch of 8
// mixed-class requests — one class/scarcity sort, one lock epoch, eight
// residual solves. When the network saturates the fleet is drained, as in
// the sequential benchmark, so the two are directly comparable per request.
func BenchmarkBatchDeploy(b *testing.B) {
	spec := gen.Suite20()[7]
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 8
	const variants = 4
	classes := []fleet.Class{fleet.ClassGuaranteed, fleet.ClassStandard, fleet.ClassStandard, fleet.ClassBestEffort}
	batches := make([][]fleet.Request, variants)
	for v := range batches {
		rng := gen.RNG(uint64(2000 + v))
		batch := make([]fleet.Request, batchSize)
		for i := range batch {
			pl, err := gen.Pipeline(5+i%4, gen.DefaultRanges(), rng)
			if err != nil {
				b.Fatal(err)
			}
			src := model.NodeID(rng.IntN(spec.Nodes))
			dst := model.NodeID(rng.IntN(spec.Nodes - 1))
			if dst >= src {
				dst++
			}
			obj := model.MinDelay
			if i%2 == 0 {
				obj = model.MaxFrameRate
			}
			batch[i] = fleet.Request{
				Tenant:    "bench",
				Pipeline:  pl,
				Src:       src,
				Dst:       dst,
				Objective: obj,
				SLO:       fleet.SLO{MinRateFPS: 2, Class: classes[i%len(classes)]},
			}
		}
		batches[v] = batch
	}
	fl, err := fleet.New(net)
	if err != nil {
		b.Fatal(err)
	}
	admitted, attempts := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := fl.DeployBatch(batches[i%variants])
		attempts += len(outs)
		saturated := false
		for _, out := range outs {
			switch {
			case out.Err == nil:
				admitted++
			case errors.Is(out.Err, fleet.ErrRejected):
				saturated = true
			default:
				b.Fatal(out.Err)
			}
		}
		fl.TakePreempted()
		if saturated {
			for _, d := range fl.List() {
				if err := fl.Release(d.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(admitted)/float64(attempts), "admit_frac")
	b.ReportMetric(batchSize, "batch_size")
}

// BenchmarkParetoFront measures the bicriteria rate-delay sweep on a
// mid-size suite case.
func BenchmarkParetoFront(b *testing.B) {
	ps := mustSuite(b)
	p := ps[7] // m20 n50
	var pts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front, err := core.ParetoFront(p, 8, 4)
		if err != nil {
			b.Fatal(err)
		}
		pts = len(front)
	}
	b.ReportMetric(float64(pts), "front_points")
}

// BenchmarkShardedDeploy measures sharded multi-tenant placement throughput
// on the clustered ~n500/l5000 topology (gen.DefaultClusterSpec): each op
// is one intra-cluster Deploy plus its Release (keeping occupancy stable),
// issued from per-cluster goroutines via RunParallel. At shards-1 every
// deploy serializes on one mutex and solves on the full 504-node network;
// at shards-8 deployments hold only their region's lock and solve on a
// ~63-node sub-network, so throughput scales with shards — through cheaper
// regional solves on any machine and lock concurrency on multicore ones.
func BenchmarkShardedDeploy(b *testing.B) {
	spec := gen.DefaultClusterSpec()
	net, err := gen.ClusteredNetwork(spec, gen.DefaultRanges(), gen.RNG(2026))
	if err != nil {
		b.Fatal(err)
	}
	const variants = 8
	reqs := make([][]fleet.Request, spec.Clusters)
	for c := range reqs {
		rng := gen.RNG(uint64(500 + c))
		for i := 0; i < variants; i++ {
			pl, err := gen.Pipeline(4+i%3, gen.DefaultRanges(), rng)
			if err != nil {
				b.Fatal(err)
			}
			src := model.NodeID(c*spec.Nodes + rng.IntN(spec.Nodes))
			dst := model.NodeID(c*spec.Nodes + rng.IntN(spec.Nodes-1))
			if dst >= src {
				dst++
			}
			reqs[c] = append(reqs[c], fleet.Request{
				Pipeline:  pl,
				Src:       src,
				Dst:       dst,
				Objective: model.MaxFrameRate,
				SLO:       fleet.SLO{MinRateFPS: 1},
			})
		}
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			sf, err := fleet.NewSharded(net, shards)
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := int(next.Add(1)-1) % spec.Clusters
				i := 0
				for pb.Next() {
					req := reqs[c][i%variants]
					i++
					d, err := sf.Deploy(req)
					if err != nil {
						if !errors.Is(err, fleet.ErrRejected) {
							b.Error(err)
							return
						}
						continue
					}
					if err := sf.Release(d.ID); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// partitionSink keeps BenchmarkPartitionNetwork's result live.
var partitionSink *model.Partition

// BenchmarkPartitionNetwork measures the K-way region partition a sharded
// fleet computes on every install and every durable restart: one
// model.PartitionNetwork call (graph.PartitionK plus link ownership and the
// boundary set) on the 8-cluster n504/l4896 network the
// fleet-sharded-durable workload installs, at k = 8.
func BenchmarkPartitionNetwork(b *testing.B) {
	net, err := gen.ClusteredNetwork(gen.DefaultClusterSpec(), gen.DefaultRanges(), gen.RNG(2026))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if partitionSink, err = model.PartitionNetwork(net, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// shardedSink keeps BenchmarkNewSharded's fleet live.
var shardedSink *fleet.ShardedFleet

// BenchmarkNewSharded measures what a sharded fleet costs to build and to
// hold: one fleet.NewSharded call (partition, regions and the one ledger)
// on a 500-node, 1500-link random network at k = 8, 100 and 500 shards.
// Beside B/op and allocs/op it reports live-MB, the heap a built fleet
// still holds after a GC, which grows with the shard count only as far as
// each shard's own state does.
func BenchmarkNewSharded(b *testing.B) {
	net, err := gen.Network(500, 1500, gen.DefaultRanges(), gen.RNG(1))
	if err != nil {
		b.Fatal(err)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, k := range []int{8, 100, 500} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			shardedSink = nil
			before := heap()
			if shardedSink, err = fleet.NewSharded(net, k); err != nil {
				b.Fatal(err)
			}
			live := heap() - before
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if shardedSink, err = fleet.NewSharded(net, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(live)/(1<<20), "live-MB")
		})
	}
}

// shardStatsSink keeps BenchmarkShardStats' result live.
var shardStatsSink fleet.ShardedStats

// BenchmarkShardStats measures one ShardStats call, which GET /v1/stats and
// every GET /v1/health run, on a 4000-node, 12000-link random network at
// k = 8 and 1000 shards. Each shard walks only its own nodes and internal
// links, so a call costs O(N+M) whatever k is.
func BenchmarkShardStats(b *testing.B) {
	net, err := gen.Network(4000, 12000, gen.DefaultRanges(), gen.RNG(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{8, 1000} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			sf, err := fleet.NewSharded(net, k)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shardStatsSink = sf.ShardStats()
			}
		})
	}
}
