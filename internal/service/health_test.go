package service

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"elpc/internal/fleet"
)

// burnEval is one evaluation the burn-rate test fed the engine: the second
// (counted from the first evaluation) it landed in and its violating
// fraction.
type burnEval struct {
	sec  int64
	frac float64
}

// wantBurn is the mean violating fraction of the evaluations inside the
// window ending in second cur: those fewer than the window's length in
// seconds before it.
func wantBurn(evals []burnEval, cur int64, window time.Duration) float64 {
	var sum float64
	n := 0
	for _, e := range evals {
		if age := cur - e.sec; age >= 0 && age < int64(window/time.Second) {
			sum += e.frac
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestHealthBurnRateWindows drives the health engine on an injected clock:
// burn over each window is the mean of the evaluations inside it, empty
// evaluations count for nothing, evaluations older than the window drop
// out, and twenty minutes at 500 evaluations per second leave the engine's
// memory where one minute did — observing allocates nothing.
func TestHealthBurnRateWindows(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	now := start
	h := &healthEngine{now: func() time.Time { return now }}
	report := func(violating, evaluated int) fleet.SLOReport {
		return fleet.SLOReport{Evaluated: evaluated, Compliant: evaluated - violating, Violating: violating}
	}
	check := func(label string, want1m, want10m float64) {
		t.Helper()
		_, b1, b10 := h.snapshot()
		if math.Abs(b1-want1m) > 1e-12 || math.Abs(b10-want10m) > 1e-12 {
			t.Fatalf("%s: burn 1m %v 10m %v, want %v and %v", label, b1, b10, want1m, want10m)
		}
	}

	check("before any evaluation", 0, 0)
	h.observe(report(2, 4))
	h.observe(report(0, 5))
	h.observe(report(0, 0)) // an empty fleet is not burning, nor complying
	check("first second", 0.25, 0.25)
	if got := h.report(); got.Evaluated != 0 {
		t.Fatalf("latest report = %+v, want the empty evaluation", got)
	}

	now = start.Add(30 * time.Second)
	h.observe(report(3, 3))
	check("after 30 s", 0.5, 0.5)

	now = start.Add(60 * time.Second)
	check("after 60 s", 1, 0.5)
	now = start.Add(599 * time.Second)
	check("after 599 s", 0, 0.5)
	now = start.Add(629 * time.Second)
	check("after 629 s", 0, 1)
	now = start.Add(630 * time.Second)
	check("after 630 s", 0, 0)

	// Twenty simulated minutes at 500 evaluations per second on a fresh
	// engine, checked against the evaluation list every ten seconds.
	start, now = time.Unix(1_800_000_000, 0), time.Unix(1_800_000_000, 0)
	h = &healthEngine{now: func() time.Time { return now }}
	rng := rand.New(rand.NewPCG(7, 11))
	var evals []burnEval
	const perSecond = 500
	second := func() int64 { return int64(now.Sub(start) / time.Second) }
	for i := 0; i < 20*60*perSecond; i++ {
		evaluated := rng.IntN(8)
		violating := 0
		if evaluated > 0 {
			violating = rng.IntN(evaluated + 1)
		}
		h.observe(report(violating, evaluated))
		if evaluated > 0 {
			evals = append(evals, burnEval{second(), float64(violating) / float64(evaluated)})
		}
		now = now.Add(time.Second / perSecond)
		if i%(10*perSecond) != 0 {
			continue
		}
		cur := second()
		for len(evals) > 0 && cur-evals[0].sec >= int64(burnLongWindow/time.Second) {
			evals = evals[1:]
		}
		_, b1, b10 := h.snapshot()
		if w1, w10 := wantBurn(evals, cur, burnShortWindow), wantBurn(evals, cur, burnLongWindow); math.Abs(b1-w1) > 1e-9 || math.Abs(b10-w10) > 1e-9 {
			t.Fatalf("second %d: burn 1m %v 10m %v, want %v and %v", cur, b1, b10, w1, w10)
		}
		if i == 60*perSecond || i == 19*60*perSecond {
			// AllocsPerRun calls the function once more than it averages
			// over; the reference records every call after it returns.
			const runs = 100
			if allocs := testing.AllocsPerRun(runs, func() { h.observe(report(1, 2)) }); allocs != 0 {
				t.Fatalf("second %d: observe allocates %v times per evaluation", cur, allocs)
			}
			for j := 0; j <= runs; j++ {
				evals = append(evals, burnEval{cur, 0.5})
			}
		}
	}
}
