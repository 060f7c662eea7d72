package harness

// Differential equivalence suite for warm-start incremental solving: every
// Suite20 case is populated with the standard deterministic tenant mix,
// subjected to the same seeded churn trace with periodic rebalance passes,
// and replayed twice — once with warm-start on (retained DP grids, delta
// invalidation) and once fully cold — through the same manager kind. The
// two replays must be byte-identical in every observable: per-event repair
// records, rebalance reports, the final deployment set (assignments and
// mappings included), fleet stats, reconciler stats, the final residual
// network, and a Pareto front solved on that residual. Plain fleets run the
// full suite; one-shard and three-shard sharded fleets run a spread subset.
// The whole suite is -race clean.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"elpc/internal/churn"
	"elpc/internal/core"
	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/model"
)

// equivSessions is the tenant-mix population size per case, and
// equivRebalanceEvery the trace cadence of rebalance passes.
const (
	equivSessions       = 20
	equivRebalanceEvery = 10
)

// equivFingerprint captures everything observable about one replayed trace.
// Wall-clock fields (Record.RepairMs, churn.Stats.{Mean,Max}RepairMs) are
// zeroed before capture; everything else must match byte for byte.
type equivFingerprint struct {
	records    []churn.Record
	rebalances []fleet.Report
	deps       []fleet.Deployment
	stats      fleet.Stats
	churnStats churn.Stats
	residual   *model.Network
	front      []core.TradeoffPoint
	frontErr   string
}

// runEquivalenceTrace builds the case network, populates a manager with the
// deterministic tenant mix, replays the seeded churn trace through a
// reconciler with periodic rebalance passes, and returns the fingerprint
// plus the manager's warm-solve counters.
func runEquivalenceTrace(t *testing.T, mk func(*model.Network) (*fleet.ShardedFleet, error), warm bool, spec gen.CaseSpec, seed uint64) (*equivFingerprint, fleet.WarmSolveStats) {
	t.Helper()
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	m, err := mk(net)
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	m.SetWarmStart(warm)

	// Populate: the same deterministic streaming/interactive mix
	// RunChurnScenario uses.
	rng := gen.RNG(seed)
	for s := 0; s < equivSessions; s++ {
		pl, err := gen.Pipeline(4+rng.IntN(4), gen.DefaultRanges(), rng)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		src := model.NodeID(rng.IntN(net.N()))
		dst := model.NodeID(rng.IntN(net.N() - 1))
		if dst >= src {
			dst++
		}
		req := fleet.Request{
			Tenant:   fmt.Sprintf("s%d", s),
			Pipeline: pl,
			Src:      src,
			Dst:      dst,
		}
		if s%2 == 0 {
			req.Objective = model.MaxFrameRate
			req.SLO = fleet.SLO{MinRateFPS: 1 + 2*rng.Float64()}
		} else {
			req.Objective = model.MinDelay
		}
		_, _ = m.Deploy(req) // rejections just thin the population
	}

	trace, err := gen.Churn(gen.DefaultChurnSpec(), net, gen.RNG(seed^0x9e3779b97f4a7c15))
	if err != nil {
		t.Fatalf("trace: %v", err)
	}

	rec := churn.New(m, churn.Options{})
	fp := &equivFingerprint{}
	for i, ev := range trace {
		r, err := rec.Apply([]model.ChurnEvent{ev.Event})
		if err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Event, err)
		}
		r.RepairMs = 0
		fp.records = append(fp.records, r)
		if (i+1)%equivRebalanceEvery == 0 {
			fp.rebalances = append(fp.rebalances, m.Rebalance(fleet.RebalanceOptions{}))
		}
	}

	deps := m.List()
	sort.Slice(deps, func(i, j int) bool { return deps[i].ID < deps[j].ID })
	fp.deps = deps
	fp.stats = m.Stats()
	cs := rec.Stats()
	cs.MeanRepairMs, cs.MaxRepairMs = 0, 0
	fp.churnStats = cs

	snap := m.Snapshot()
	fp.residual = snap

	// A Pareto front solved on the final residual view: end-state capacity
	// bit-identity expressed through the tradeoff sweep. The probe pipeline
	// is seeded off the case, independent of the tenant RNG stream.
	pl, err := gen.Pipeline(5, gen.DefaultRanges(), gen.RNG(spec.Seed^0xc0ffee))
	if err != nil {
		t.Fatalf("probe pipeline: %v", err)
	}
	p := &model.Problem{Net: snap, Pipe: pl, Src: 0, Dst: model.NodeID(net.N() - 1)}
	if front, ferr := core.ParetoFront(p, 6, 0); ferr != nil {
		fp.frontErr = ferr.Error() // deeply degraded residuals can be infeasible
	} else {
		fp.front = front
	}
	return fp, m.WarmSolveStats()
}

// assertFingerprintsEqual fails the test with a field-level diagnosis when
// the warm and cold fingerprints are not byte-identical.
func assertFingerprintsEqual(t *testing.T, cold, warm *equivFingerprint) {
	t.Helper()
	if !reflect.DeepEqual(cold.records, warm.records) {
		for i := range cold.records {
			if i < len(warm.records) && !reflect.DeepEqual(cold.records[i], warm.records[i]) {
				t.Errorf("repair record %d diverges:\n cold: %+v\n warm: %+v", i, cold.records[i], warm.records[i])
				break
			}
		}
		t.Errorf("per-event repair records diverge (cold %d, warm %d)", len(cold.records), len(warm.records))
	}
	if !reflect.DeepEqual(cold.rebalances, warm.rebalances) {
		t.Errorf("rebalance reports diverge:\n cold: %+v\n warm: %+v", cold.rebalances, warm.rebalances)
	}
	if !reflect.DeepEqual(cold.deps, warm.deps) {
		t.Errorf("final deployment sets diverge (cold %d, warm %d)", len(cold.deps), len(warm.deps))
		for i := range cold.deps {
			if i < len(warm.deps) && !reflect.DeepEqual(cold.deps[i], warm.deps[i]) {
				t.Errorf("deployment %q diverges:\n cold: %+v\n warm: %+v", cold.deps[i].ID, cold.deps[i], warm.deps[i])
				break
			}
		}
	}
	if cold.stats != warm.stats {
		t.Errorf("fleet stats diverge:\n cold: %+v\n warm: %+v", cold.stats, warm.stats)
	}
	if cold.churnStats != warm.churnStats {
		t.Errorf("reconciler stats diverge:\n cold: %+v\n warm: %+v", cold.churnStats, warm.churnStats)
	}
	if !reflect.DeepEqual(cold.residual, warm.residual) {
		t.Errorf("final residual networks diverge")
	}
	if cold.frontErr != warm.frontErr || !reflect.DeepEqual(cold.front, warm.front) {
		t.Errorf("final-state Pareto fronts diverge:\n cold: %+v (%s)\n warm: %+v (%s)",
			cold.front, cold.frontErr, warm.front, warm.frontErr)
	}
}

// equivManagerKinds is the manager matrix the suite runs: the one-shard
// fleet through New ("plain") and through NewSharded, and a 3-shard fleet.
var equivManagerKinds = []struct {
	name string
	mk   func(*model.Network) (*fleet.ShardedFleet, error)
}{
	{"plain", fleet.New},
	{"sharded-k1", func(n *model.Network) (*fleet.ShardedFleet, error) { return fleet.NewSharded(n, 1) }},
	{"sharded-k3", func(n *model.Network) (*fleet.ShardedFleet, error) { return fleet.NewSharded(n, 3) }},
}

// TestWarmColdEquivalence replays identical seeded churn/rebalance traces
// warm and cold and requires byte-identical observables. The New-built
// fleet covers the full Suite20; the NewSharded kinds cover a spread subset
// (every fourth case). -short trims the full sweep to every fifth case.
func TestWarmColdEquivalence(t *testing.T) {
	suite := gen.Suite20()
	for _, kind := range equivManagerKinds {
		kind := kind
		t.Run(kind.name, func(t *testing.T) {
			var warmTotal uint64
			for ci, spec := range suite {
				switch kind.name {
				case "plain":
					if testing.Short() && ci%5 != 0 {
						continue
					}
				default:
					if ci%4 != 0 {
						continue
					}
					if testing.Short() && ci != 0 {
						continue
					}
				}
				spec := spec
				t.Run(spec.String(), func(t *testing.T) {
					seed := uint64(0x5eed0000) + uint64(spec.ID)
					cold, coldWarmStats := runEquivalenceTrace(t, kind.mk, false, spec, seed)
					warm, warmStats := runEquivalenceTrace(t, kind.mk, true, spec, seed)
					if coldWarmStats.Total() != 0 {
						t.Errorf("cold run recorded warm solves: %+v", coldWarmStats)
					}
					warmTotal += warmStats.Total()
					assertFingerprintsEqual(t, cold, warm)
				})
			}
			if warmTotal == 0 {
				t.Errorf("warm runs never exercised the warm solve path")
			}
		})
	}
}
