package harness

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/model"
)

// ScaleSpec shapes the sharded-fleet scale scenario: a clustered topology,
// a shard count, and a tenant mix with mostly intra-cluster placement
// affinity.
type ScaleSpec struct {
	// Cluster is the generated topology.
	Cluster gen.ClusterSpec `json:"cluster"`
	// Shards is the region count of the sharded fleet under test.
	Shards int `json:"shards"`
	// Tenants is the number of deployment requests replayed.
	Tenants int `json:"tenants"`
	// InterFraction is the fraction of tenants whose endpoints straddle two
	// clusters (exercising the coordinator path); the rest stay inside one
	// cluster.
	InterFraction float64 `json:"inter_fraction"`
	// Seed drives topology, tenant, and endpoint generation.
	Seed uint64 `json:"seed"`
}

// DefaultScaleSpec returns the calibrated scale scenario: 8 clusters of 25
// nodes (n200), 96 tenants with 10% cross-cluster traffic, sharded 8 ways —
// small enough for the CI bench gate, large enough that the per-region
// solve-cost advantage is unambiguous.
func DefaultScaleSpec() ScaleSpec {
	return ScaleSpec{
		Cluster:       gen.ClusterSpec{Clusters: 8, Nodes: 25, Links: 160, InterLinks: 48},
		Shards:        8,
		Tenants:       96,
		InterFraction: 0.1,
		Seed:          2026,
	}
}

// ScaleScenarioResult summarizes one scale replay: the same deterministic
// request list deployed onto an unsharded Fleet and a ShardedFleet over the
// same clustered network, comparing admissions, placement quality, and
// wall-clock deploy cost.
type ScaleScenarioResult struct {
	// Network renders the topology ("8x25 n200 l1328"); Shards and Tenants
	// echo the spec.
	Network string `json:"network"`
	Shards  int    `json:"shards"`
	Tenants int    `json:"tenants"`
	// CrossTenants counts requests whose endpoints straddle clusters;
	// BoundaryLinks is the partition's cross-region link count.
	CrossTenants  int `json:"cross_tenants"`
	BoundaryLinks int `json:"boundary_links"`
	// AdmittedSingle/AdmittedSharded count admissions on each fleet;
	// the admission rates divide by Tenants.
	AdmittedSingle       int     `json:"admitted_single"`
	AdmittedSharded      int     `json:"admitted_sharded"`
	AdmissionRateSingle  float64 `json:"admission_rate_single"`
	AdmissionRateSharded float64 `json:"admission_rate_sharded"`
	// MeanRateSingle/MeanRateSharded average the sustainable frame rate of
	// admitted deployments — the placement-quality gauge the bench gate
	// holds sharding to.
	MeanRateSingle  float64 `json:"mean_rate_single"`
	MeanRateSharded float64 `json:"mean_rate_sharded"`
	// CrossDeployments counts coordinator-owned placements after the
	// sharded replay; Fallbacks counts regional rejections retried through
	// the coordinator.
	CrossDeployments int    `json:"cross_deployments"`
	Fallbacks        uint64 `json:"fallbacks"`
	// SingleMs and ShardedMs are the wall-clock deploy times of the two
	// replays; Speedup is their ratio (machine-dependent — a runtime-class
	// metric in the bench gate).
	SingleMs  float64 `json:"single_ms"`
	ShardedMs float64 `json:"sharded_ms"`
	Speedup   float64 `json:"speedup"`
}

// RunScaleScenario generates the clustered network, replays the same
// deterministic request list against a one-shard fleet and against a
// ShardedFleet with spec.Shards regions (partitioned by the graph
// partitioner, which must recover the generated clusters), and reports
// admissions, quality, and wall-clock cost side by side.
func RunScaleScenario(spec ScaleSpec) (*ScaleScenarioResult, error) {
	if spec.Tenants < 1 {
		return nil, fmt.Errorf("harness: scale scenario needs >= 1 tenant")
	}
	rng := gen.RNG(spec.Seed)
	net, err := gen.ClusteredNetwork(spec.Cluster, gen.DefaultRanges(), rng)
	if err != nil {
		return nil, err
	}

	// Draw the tenant mix once; both replays see the identical list.
	ranges := gen.DefaultRanges()
	reqs := make([]fleet.Request, 0, spec.Tenants)
	cross := 0
	for t := 0; t < spec.Tenants; t++ {
		pl, err := gen.Pipeline(4+rng.IntN(4), ranges, rng)
		if err != nil {
			return nil, err
		}
		home := rng.IntN(spec.Cluster.Clusters)
		src := model.NodeID(home*spec.Cluster.Nodes + rng.IntN(spec.Cluster.Nodes))
		var dst model.NodeID
		if spec.Cluster.Clusters > 1 && rng.Float64() < spec.InterFraction {
			other := rng.IntN(spec.Cluster.Clusters - 1)
			if other >= home {
				other++
			}
			dst = model.NodeID(other*spec.Cluster.Nodes + rng.IntN(spec.Cluster.Nodes))
			cross++
		} else {
			d := rng.IntN(spec.Cluster.Nodes - 1)
			if model.NodeID(home*spec.Cluster.Nodes+d) >= src {
				d++
			}
			dst = model.NodeID(home*spec.Cluster.Nodes + d)
		}
		req := fleet.Request{Tenant: fmt.Sprintf("t%d", t), Pipeline: pl, Src: src, Dst: dst}
		if t%2 == 0 {
			req.Objective = model.MaxFrameRate
			req.SLO = fleet.SLO{MinRateFPS: 1 + 2*rng.Float64()}
		} else {
			req.Objective = model.MinDelay
		}
		reqs = append(reqs, req)
	}

	single, err := fleet.New(net)
	if err != nil {
		return nil, err
	}
	sharded, err := fleet.NewSharded(net, spec.Shards)
	if err != nil {
		return nil, err
	}

	replay := func(f fleet.Manager) (admitted int, meanRate float64, elapsed time.Duration, err error) {
		start := time.Now()
		for i, req := range reqs {
			d, err := f.Deploy(req)
			if err != nil {
				if errors.Is(err, fleet.ErrRejected) {
					continue
				}
				return 0, 0, 0, fmt.Errorf("harness: scale tenant %d: %w", i, err)
			}
			admitted++
			meanRate += d.RateFPS
		}
		if admitted > 0 {
			meanRate /= float64(admitted)
		}
		return admitted, meanRate, time.Since(start), nil
	}

	res := &ScaleScenarioResult{
		Network:       spec.Cluster.String(),
		Shards:        spec.Shards,
		Tenants:       spec.Tenants,
		CrossTenants:  cross,
		BoundaryLinks: len(sharded.Partition().Boundary),
	}
	var elapsed time.Duration
	if res.AdmittedSingle, res.MeanRateSingle, elapsed, err = replay(single); err != nil {
		return nil, err
	}
	res.SingleMs = float64(elapsed) / float64(time.Millisecond)
	if res.AdmittedSharded, res.MeanRateSharded, elapsed, err = replay(sharded); err != nil {
		return nil, err
	}
	res.ShardedMs = float64(elapsed) / float64(time.Millisecond)
	res.AdmissionRateSingle = float64(res.AdmittedSingle) / float64(spec.Tenants)
	res.AdmissionRateSharded = float64(res.AdmittedSharded) / float64(spec.Tenants)
	if res.ShardedMs > 0 {
		res.Speedup = res.SingleMs / res.ShardedMs
	}
	ss := sharded.ShardStats()
	res.CrossDeployments = ss.Coordinator.Deployments
	res.Fallbacks = ss.Coordinator.Fallbacks
	return res, nil
}

// ScaleScenarioTable renders the scenario as a small Markdown block for the
// pipebench artifacts.
func ScaleScenarioTable(r *ScaleScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Scale scenario (%s, %d shards)\n\n", r.Network, r.Shards)
	fmt.Fprintf(&b, "| metric | unsharded | sharded |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| admitted (of %d) | %d | %d |\n", r.Tenants, r.AdmittedSingle, r.AdmittedSharded)
	fmt.Fprintf(&b, "| admission rate | %.3f | %.3f |\n", r.AdmissionRateSingle, r.AdmissionRateSharded)
	fmt.Fprintf(&b, "| mean deployed rate (fps) | %.2f | %.2f |\n", r.MeanRateSingle, r.MeanRateSharded)
	fmt.Fprintf(&b, "| deploy wall clock (ms) | %.1f | %.1f |\n", r.SingleMs, r.ShardedMs)
	fmt.Fprintf(&b, "\n")
	fmt.Fprintf(&b, "| | |\n|---|---|\n")
	fmt.Fprintf(&b, "| deploy speedup | %.2fx |\n", r.Speedup)
	fmt.Fprintf(&b, "| cross-cluster tenants | %d |\n", r.CrossTenants)
	fmt.Fprintf(&b, "| coordinator deployments | %d |\n", r.CrossDeployments)
	fmt.Fprintf(&b, "| coordinator fallbacks | %d |\n", r.Fallbacks)
	fmt.Fprintf(&b, "| boundary links | %d |\n", r.BoundaryLinks)
	return b.String()
}
