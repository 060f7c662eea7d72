package engine_test

import (
	"fmt"
	"runtime"
	"testing"

	"elpc/internal/core"
	"elpc/internal/engine"
	"elpc/internal/gen"
	"elpc/internal/model"
)

// benchFrontCase indexes Suite20: index 11 is case 12 (35 modules, 90
// nodes, 3200 links), which makes each budget point a substantial
// bicriteria DP, so the sweep parallelizes with little overhead.
const benchFrontCase = 11

// benchFrontPoints matches the service's default sweep resolution.
const benchFrontPoints = 8

func buildBenchProblem(b *testing.B) *model.Problem {
	b.Helper()
	p, err := gen.Suite20()[benchFrontCase].Build()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkParetoFrontSequential is the single-goroutine baseline the
// parallel numbers compare against (core.ParetoFront through the pooled
// SolveContext path).
func BenchmarkParetoFrontSequential(b *testing.B) {
	p := buildBenchProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ParetoFront(p, benchFrontPoints, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoFrontParallel sweeps the same case through the engine pool
// at 1, 2, and 4 workers plus full GOMAXPROCS: near-linear scaling up to
// the sweep's point count, byte-identical results throughout (the
// determinism test asserts that; this benchmark measures it).
func BenchmarkParetoFrontParallel(b *testing.B) {
	p := buildBenchProblem(b)
	widths := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := engine.NewPool(w)
			defer pool.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.ParetoFront(pool, p, benchFrontPoints, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
