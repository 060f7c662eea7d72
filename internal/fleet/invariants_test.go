package fleet

import (
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"elpc/internal/model"
)

// checkInvariants asserts the capacity invariants that must hold at every
// point of any deploy/release interleaving: no resource is overcommitted
// (residual power and bandwidth never go negative) and utilization is never
// negative.
func checkInvariants(t *testing.T, f *ShardedFleet) {
	t.Helper()
	node, link := f.Utilization()
	for v, u := range node {
		if u < 0 || u > 1 {
			t.Fatalf("node %d utilization %v outside [0,1]", v, u)
		}
	}
	for l, u := range link {
		if u < 0 || u > 1 {
			t.Fatalf("link %d utilization %v outside [0,1]", l, u)
		}
	}
}

// TestPropertyDeployReleaseInterleavings drives randomized deploy/release
// sequences and checks, after every operation, that residual capacity never
// goes negative, and at the end that releasing everything restores the
// exact empty-fleet state.
func TestPropertyDeployReleaseInterleavings(t *testing.T) {
	net := testNetwork(t)
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xf1ee7))
		f, err := New(net)
		if err != nil {
			t.Fatal(err)
		}
		live := []string{}
		for step := 0; step < 60; step++ {
			if len(live) > 0 && rng.Float64() < 0.4 {
				i := rng.IntN(len(live))
				if err := f.Release(live[i]); err != nil {
					t.Fatalf("trial %d step %d: release: %v", trial, step, err)
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				obj := model.MinDelay
				var slo SLO
				if rng.Float64() < 0.5 {
					obj = model.MaxFrameRate
					slo.MinRateFPS = 1 + rng.Float64()*3
				}
				src := model.NodeID(rng.IntN(net.N()))
				dst := model.NodeID(rng.IntN(net.N() - 1))
				if dst >= src {
					dst++
				}
				d, err := f.Deploy(Request{
					Pipeline:  testPipeline(t, 4+rng.IntN(4), rng.Uint64()),
					Src:       src,
					Dst:       dst,
					Objective: obj,
					SLO:       slo,
				})
				if err != nil {
					if !errors.Is(err, ErrRejected) {
						t.Fatalf("trial %d step %d: deploy: %v", trial, step, err)
					}
				} else {
					live = append(live, d.ID)
				}
			}
			checkInvariants(t, f)
		}
		// Drain and require exact restoration.
		for _, id := range live {
			if err := f.Release(id); err != nil {
				t.Fatal(err)
			}
		}
		node, link := f.Utilization()
		for v, u := range node {
			if u != 0 {
				t.Fatalf("trial %d: node %d utilization %v after draining, want exactly 0", trial, v, u)
			}
		}
		for l, u := range link {
			if u != 0 {
				t.Fatalf("trial %d: link %d utilization %v after draining, want exactly 0", trial, l, u)
			}
		}
		if s := f.Stats(); s.Deployments != 0 || s.Admitted != s.Released {
			t.Fatalf("trial %d: unbalanced counters %+v", trial, s)
		}
	}
}

// TestConcurrentDeployRelease hammers one fleet from many goroutines (run
// under -race in CI): each worker deploys, optionally rebalances, and
// releases its own deployments; afterwards the drained fleet must be back
// to the exact empty state.
func TestConcurrentDeployRelease(t *testing.T) {
	net := testNetwork(t)
	f, err := New(net)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var leftover []string
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			var mine []string
			for i := 0; i < 25; i++ {
				obj := model.MinDelay
				if i%2 == 0 {
					obj = model.MaxFrameRate
				}
				d, err := f.Deploy(Request{
					Tenant:    "w",
					Pipeline:  testPipeline(t, 4+rng.IntN(3), rng.Uint64()),
					Src:       model.NodeID(rng.IntN(net.N())),
					Dst:       model.NodeID((rng.IntN(net.N()-1) + 1)),
					Objective: obj,
					SLO:       SLO{MinRateFPS: 0.5},
				})
				if err != nil {
					if !errors.Is(err, ErrRejected) {
						errc <- err
						return
					}
					continue
				}
				mine = append(mine, d.ID)
				if len(mine) > 2 && rng.Float64() < 0.5 {
					id := mine[0]
					mine = mine[1:]
					if err := f.Release(id); err != nil {
						errc <- err
						return
					}
				}
				if i%10 == 5 {
					f.Rebalance(RebalanceOptions{MaxMoves: 1})
				}
				_ = f.Stats()
				_ = f.List()
			}
			mu.Lock()
			leftover = append(leftover, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	checkInvariants(t, f)
	for _, id := range leftover {
		if err := f.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	node, link := f.Utilization()
	for v, u := range node {
		if u != 0 {
			t.Errorf("node %d utilization %v after concurrent drain, want exactly 0", v, u)
		}
	}
	for l, u := range link {
		if u != 0 {
			t.Errorf("link %d utilization %v after concurrent drain, want exactly 0", l, u)
		}
	}
	if s := f.Stats(); s.Deployments != 0 {
		t.Errorf("deployments remain after drain: %+v", s)
	}
}
