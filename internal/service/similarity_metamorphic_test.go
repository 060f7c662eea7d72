package service

// Metamorphic tests for the similarity cache tier: however the capacities
// are perturbed between solves of the same structural problem, an adapted
// (Approximate) result must re-verify as feasible on a fresh residual
// snapshot — correct metrics, valid nodes, no floored element on the path,
// delay budget respected — and a problem whose fresh solve is infeasible
// must keep returning its error status (the wire "infeasible" envelope),
// never a stale adapted mapping.

import (
	"context"
	"math"
	"net/http"
	"testing"

	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/service/wire"
)

// verifyAdapted recomputes every metric of an approximate result on a fresh
// snapshot of the fleet's residual state and fails if the adapted mapping
// is infeasible, mispriced, floored, or budget-violating.
func verifyAdapted(t *testing.T, f *fleet.ShardedFleet, pl *model.Pipeline, res *Result, budget float64) {
	t.Helper()
	snap := f.Snapshot() // fresh, independent of the request's network copy
	if len(res.Assignment) != pl.N() {
		t.Fatalf("adapted assignment length %d, pipeline wants %d", len(res.Assignment), pl.N())
	}
	for _, v := range res.Assignment {
		if !snap.ValidNode(v) {
			t.Fatalf("adapted assignment routes through invalid node %d", v)
		}
	}
	m := model.NewMapping(res.Assignment)
	delay := model.TotalDelay(snap, pl, m, model.DefaultCostOptions())
	bottleneck := model.Bottleneck(snap, pl, m)
	if m.UsesReuse() {
		bottleneck = model.SharedBottleneck(snap, pl, m)
	}
	rate := model.FrameRate(bottleneck)
	if math.IsInf(delay, 0) || math.IsNaN(delay) || delay < 0 || delay > simMaxDelayMs {
		t.Fatalf("adapted mapping infeasible on fresh snapshot: delay %g", delay)
	}
	if math.IsInf(bottleneck, 0) || math.IsNaN(bottleneck) || bottleneck > simMaxDelayMs || rate <= 0 {
		t.Fatalf("adapted mapping infeasible on fresh snapshot: bottleneck %g rate %g", bottleneck, rate)
	}
	if budget > 0 && delay > budget {
		t.Fatalf("adapted mapping violates delay budget: %g > %g", delay, budget)
	}
	if math.Abs(delay-res.DelayMs) > 1e-9 || math.Abs(rate-res.RateFPS) > 1e-9 {
		t.Fatalf("adapted result mispriced: reported delay %g rate %g, fresh snapshot says %g %g",
			res.DelayMs, res.RateFPS, delay, rate)
	}
}

// TestSimilarityMetamorphicFeasibility walks a fleet through a deterministic
// sequence of admissions and churn degradations, solving the same structural
// problem (fixed pipeline/endpoints, the fleet's residual snapshot as the
// network) at every capacity state with AllowSimilar set. Every Approximate
// result must re-verify on a fresh Snapshot(); the walk must actually serve
// adaptations (non-vacuous) and record at least one re-validation rejection.
func TestSimilarityMetamorphicFeasibility(t *testing.T) {
	spec := gen.Suite20()[3]
	base, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(base)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := gen.Pipeline(5, gen.DefaultRanges(), gen.RNG(7))
	if err != nil {
		t.Fatal(err)
	}
	src, dst := model.NodeID(0), model.NodeID(base.N()-1)

	s := NewSolver(Options{})
	defer s.Close()
	ctx := context.Background()

	// The budget for OpMaxFrameRate requests, fixed after the first cold
	// solve so every later request shares the similarity key (the budget is
	// part of it): generous enough to adapt through mild perturbation,
	// tight enough that deep degradation forces re-validation rejections.
	var budget float64

	rng := gen.RNG(42)
	var approximates int
	solveBoth := func(snap *model.Network) {
		p := &model.Problem{Net: snap, Pipe: pl, Src: src, Dst: dst, Cost: model.DefaultCostOptions()}
		res, err := s.Solve(ctx, Request{Op: OpMinDelay, Problem: p, AllowSimilar: true})
		if err != nil {
			t.Fatalf("mindelay: %v", err)
		}
		if res.Approximate {
			approximates++
			verifyAdapted(t, f, pl, res, 0)
		}
		if budget == 0 {
			cold, err := s.Solve(ctx, Request{Op: OpMaxFrameRate, Problem: p})
			if err != nil {
				t.Fatalf("budget probe: %v", err)
			}
			budget = cold.DelayMs * 1.5
		}
		res, err = s.Solve(ctx, Request{Op: OpMaxFrameRate, Problem: p, DelayBudgetMs: budget, AllowSimilar: true})
		switch {
		case err != nil:
			// Deep degradation can make the budget genuinely infeasible —
			// but the similarity tier must never mask that as a success.
			if !errorsIsInfeasible(err) {
				t.Fatalf("maxframerate: %v", err)
			}
		case res.Approximate:
			approximates++
			verifyAdapted(t, f, pl, res, budget)
		}
	}

	solveBoth(f.Snapshot()) // cold pass populates the similarity tier
	for step := 0; step < 12; step++ {
		switch step % 3 {
		case 0, 1: // admit a tenant to shift residual load
			tpl, err := gen.Pipeline(4+rng.IntN(3), gen.DefaultRanges(), rng)
			if err != nil {
				t.Fatal(err)
			}
			ts := model.NodeID(rng.IntN(base.N()))
			td := model.NodeID(rng.IntN(base.N() - 1))
			if td >= ts {
				td++
			}
			_, _ = f.Deploy(fleet.Request{
				Tenant: "m", Pipeline: tpl, Src: ts, Dst: td, Objective: model.MinDelay,
			})
		case 2: // degrade a node hard: floored elements must be rejected
			ev := model.ChurnEvent{
				Kind: model.CapacityDrift, Target: model.TargetNode,
				Node: model.NodeID(rng.IntN(base.N())), Factor: 0.05,
			}
			if err := f.ApplyChurn([]model.ChurnEvent{ev}); err != nil {
				t.Fatal(err)
			}
		}
		solveBoth(f.Snapshot())
	}

	// Collapse every node to 1e-6 of nominal: the cached mappings now price
	// past the floor-artifact threshold, so adaptation must be rejected and
	// the solves fall through (min-delay to a fresh cold solve, the budgeted
	// max-frame-rate to the infeasible error).
	collapse := make([]model.ChurnEvent, base.N())
	for i := range collapse {
		collapse[i] = model.ChurnEvent{
			Kind: model.CapacityDrift, Target: model.TargetNode,
			Node: model.NodeID(i), Factor: 1e-6,
		}
	}
	if err := f.ApplyChurn(collapse); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()
	p := &model.Problem{Net: snap, Pipe: pl, Src: src, Dst: dst, Cost: model.DefaultCostOptions()}
	res, err := s.Solve(ctx, Request{Op: OpMinDelay, Problem: p, AllowSimilar: true})
	if err != nil {
		t.Fatalf("collapsed mindelay: %v", err)
	}
	if res.Approximate {
		t.Errorf("collapsed capacities still served an adaptation (delay %g)", res.DelayMs)
	}
	if _, err := s.Solve(ctx, Request{Op: OpMaxFrameRate, Problem: p, DelayBudgetMs: budget, AllowSimilar: true}); !errorsIsInfeasible(err) {
		t.Errorf("collapsed budgeted solve: want infeasible, got %v", err)
	}

	if approximates == 0 {
		t.Error("similarity tier never served an adaptation; the metamorphic property was vacuous")
	}
	st := s.Stats().Cache
	t.Logf("sim stats: %+v approximates=%d", st, approximates)
	if st.SimilarityHits == 0 {
		t.Errorf("no similarity hits recorded: %+v", st)
	}
	if st.SimilarityRejected == 0 {
		t.Errorf("no re-validation rejections recorded: %+v", st)
	}
}

func errorsIsInfeasible(err error) bool {
	return err != nil && codeOf(err) == wire.CodeInfeasible
}

// TestSimilarityInfeasibleKeepsErrorStatus drives the HTTP surface: after a
// budgeted max-frame-rate solve populates the similarity tier, the same
// structural problem with all node powers collapsed (structural hash
// unchanged — powers are capacity, not structure) and the same budget must
// return the wire "infeasible" error envelope, not a stale adapted mapping:
// the similarity candidate fails re-validation, the fresh solve is
// infeasible, and the error status survives AllowSimilar.
func TestSimilarityInfeasibleKeepsErrorStatus(t *testing.T) {
	p := buildSuiteProblem(t, 1)
	_, ts := newTestServer(t, Options{})

	// Cold budgeted solve: feasible, populates the similarity tier.
	w := wireFor(p)
	w.AllowSimilar = true
	var cold Result
	resp := postJSON(t, ts.URL+"/v1/maxframerate", w, &cold)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve status %d", resp.StatusCode)
	}
	budget := cold.DelayMs * 1.5
	w.DelayBudgetMs = budget
	resp = postJSON(t, ts.URL+"/v1/maxframerate", w, &cold)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted cold solve status %d", resp.StatusCode)
	}

	// Collapse every node power: compute times inflate ~1e6x, so no mapping
	// fits the budget and the cached one must be rejected on re-validation.
	degraded := *p.Net
	degraded.Nodes = append([]model.Node(nil), p.Net.Nodes...)
	for i := range degraded.Nodes {
		degraded.Nodes[i].Power *= 1e-6
	}
	w.Network = &degraded
	var env wire.ErrorEnvelope
	resp = postJSON(t, ts.URL+"/v1/maxframerate", w, &env)
	if want := wire.StatusOf(wire.CodeInfeasible); resp.StatusCode != want {
		t.Fatalf("degraded budgeted solve status %d, want %d (body %+v)", resp.StatusCode, want, env)
	}
	if env.Error.Code != wire.CodeInfeasible {
		t.Fatalf("degraded budgeted solve code %q, want %q", env.Error.Code, wire.CodeInfeasible)
	}
}
