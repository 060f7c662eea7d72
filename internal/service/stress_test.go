package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/model"
)

// TestConcurrentFrontAndFleetStress runs planning requests fanning out
// Pareto sweeps and batches on the engine pool while fleet deploys,
// releases, and rebalance passes run beside them, so the race detector sees
// the full cross-subsystem interleaving. Functional checks are deliberately loose (no deadlock, no
// unexpected errors, deterministic front results); -race does the heavy
// lifting.
func TestConcurrentFrontAndFleetStress(t *testing.T) {
	spec := gen.Suite20()[4] // 25 nodes, 280 links: solves are fast but real
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(Options{Workers: 4, CacheCapacity: -1})
	defer s.Close()
	f, err := fleet.New(net)
	if err != nil {
		t.Fatal(err)
	}

	pipe, err := gen.Pipeline(5, gen.DefaultRanges(), gen.RNG(7))
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 12
	var wg sync.WaitGroup
	errc := make(chan error, 64)

	// Front sweepers: repeated OpFront solves through the pool; results must
	// be identical across rounds (cache disabled, so each solve is cold).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var want string
			for r := 0; r < rounds; r++ {
				res, err := s.Solve(context.Background(), Request{Op: OpFront, Problem: p, Points: 6})
				if err != nil {
					errc <- fmt.Errorf("front: %w", err)
					return
				}
				got := fmt.Sprintf("%v", res.Front)
				if want == "" {
					want = got
				} else if got != want {
					errc <- fmt.Errorf("front result drifted across rounds under load")
					return
				}
			}
		}()
	}

	// Batch solvers: mixed-op batches through the same pool.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reqs := []Request{
			{Op: OpMinDelay, Problem: p},
			{Op: OpFront, Problem: p, Points: 4},
			{Op: OpMaxFrameRate, Problem: p},
		}
		for r := 0; r < rounds; r++ {
			for _, item := range s.SolveBatch(context.Background(), reqs) {
				if item.Err != nil {
					errc <- fmt.Errorf("batch item %d: %w", item.Index, item.Err)
					return
				}
			}
		}
	}()

	// Fleet churn: deploy/release cycles plus parallel rebalance passes on
	// the shared pool.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []string
			for r := 0; r < rounds; r++ {
				d, err := f.Deploy(fleet.Request{
					Tenant:    fmt.Sprintf("stress-%d", g),
					Pipeline:  pipe,
					Src:       model.NodeID(g),
					Dst:       model.NodeID(spec.Nodes - 1 - g),
					Objective: model.MaxFrameRate,
				})
				switch {
				case err == nil:
					mine = append(mine, d.ID)
				case errors.Is(err, fleet.ErrRejected) || errors.Is(err, model.ErrInfeasible):
					// Contention is expected under churn.
				default:
					errc <- fmt.Errorf("deploy: %w", err)
					return
				}
				f.Rebalance(fleet.RebalanceOptions{MaxMoves: 2})
				if len(mine) > 2 {
					if err := f.Release(mine[0]); err != nil {
						errc <- fmt.Errorf("release: %w", err)
						return
					}
					mine = mine[1:]
				}
			}
		}(g)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The fleet must still be internally consistent: releasing everything
	// returns it to zero load.
	for _, d := range f.List() {
		if err := f.Release(d.ID); err != nil {
			t.Errorf("final release %s: %v", d.ID, err)
		}
	}
	st := f.Stats()
	if st.Deployments != 0 || st.MaxNodeUtil > 1e-9 || st.MaxLinkUtil > 1e-9 {
		t.Errorf("fleet not clean after full release: %+v", st)
	}
}
