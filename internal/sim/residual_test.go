package sim_test

import (
	"errors"
	"testing"

	"elpc/internal/core"
	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/sim"
)

// TestResidualCapacityMatchesSimulation validates the fleet's capacity
// model against the discrete-event simulator: a tenant sharing the network
// with K other deployments is promised the rate achievable on the residual
// network (capacities scaled by 1 minus the others' reserved load). For
// each K we materialize that residual view, replay the tenant's mapping in
// the DES on it, and require the measured steady rate to agree with the
// analytic shared-bottleneck prediction — and to degrade monotonically as
// K grows.
func TestResidualCapacityMatchesSimulation(t *testing.T) {
	net, err := gen.Network(10, 60, gen.DefaultRanges(), gen.RNG(42))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := gen.Pipeline(6, gen.DefaultRanges(), gen.RNG(7))
	if err != nil {
		t.Fatal(err)
	}

	prevRate := 0.0
	checked := 0
	for k := 0; k <= 3; k++ {
		// K background tenants hold capacity in the fleet.
		f, err := fleet.New(net)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if _, err := f.Deploy(fleet.Request{
				Pipeline:  mustPipeline(t, 5, uint64(100+i)),
				Src:       1,
				Dst:       8,
				Objective: model.MaxFrameRate,
				SLO:       fleet.SLO{MinRateFPS: 2},
			}); err != nil {
				t.Fatalf("background deploy %d (K=%d): %v", i, k, err)
			}
		}

		// Materialize the residual view the next tenant would be solved
		// against and solve + simulate on it.
		snap := f.Snapshot()
		p := &model.Problem{Net: snap, Pipe: pipe, Src: 0, Dst: 9, Cost: model.DefaultCostOptions()}
		m, err := core.MaxFrameRate(p)
		if err != nil {
			if errors.Is(err, model.ErrInfeasible) {
				continue // saturated enough that no path remains; consistent
			}
			t.Fatal(err)
		}
		predicted := model.FrameRate(sim.PredictPeriod(p, m))
		sr, err := sim.Simulate(p, m, sim.Config{Frames: 400})
		if err != nil {
			t.Fatal(err)
		}
		measured := sr.MeasuredRate()
		if relErr := sim.RelativeError(measured, predicted); relErr > 0.02 {
			t.Errorf("K=%d: simulated rate %.3f fps vs residual-model prediction %.3f fps (rel err %.3f)",
				k, measured, predicted, relErr)
		}
		// More co-located tenants must never improve the newcomer's rate.
		if k > 0 && measured > prevRate*(1+1e-9) {
			t.Errorf("K=%d: simulated rate %.3f fps exceeds K=%d rate %.3f fps; contention should only degrade",
				k, measured, k-1, prevRate)
		}
		prevRate = measured
		checked++
	}
	if checked < 2 {
		t.Fatalf("only %d co-location levels checked; test lost its force", checked)
	}
}

func mustPipeline(t *testing.T, n int, seed uint64) *model.Pipeline {
	t.Helper()
	pl, err := gen.Pipeline(n, gen.DefaultRanges(), gen.RNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return pl
}
