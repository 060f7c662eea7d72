package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"elpc/internal/model"
)

// benchCase indexes Suite20: case 10 (30 modules, 80 nodes, 2500 links) is
// large enough that the DP work dwarfs the hash+lookup cost of a cache hit.
const benchCase = 10

// benchOp is the benchmarked planning call: the Pareto sweep is the
// service's most expensive endpoint (one budgeted bicriteria DP per sweep
// point), i.e. the workload the cache pays for most.
const benchOp = OpFront

// BenchmarkSolverCacheHit measures a repeated Suite20 planning call served
// from the solution cache: canonical hash + shard lookup, no DP work. The
// cost is linear in problem size (the hash must read the problem) and
// independent of how hard the problem is to solve.
func BenchmarkSolverCacheHit(b *testing.B) {
	p := buildSuiteProblem(b, benchCase)
	s := NewSolver(Options{})
	if _, err := s.Solve(context.Background(), Request{Op: benchOp, Problem: p}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Solve(context.Background(), Request{Op: benchOp, Problem: p})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("expected cache hit")
		}
	}
}

// BenchmarkSolverColdSolve measures the same planning call with the cache
// disabled: the full Pareto sweep every iteration. The gap between this and
// BenchmarkSolverCacheHit is what the cache buys repeated requests.
func BenchmarkSolverColdSolve(b *testing.B) {
	p := buildSuiteProblem(b, benchCase)
	s := NewSolver(Options{CacheCapacity: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Solve(context.Background(), Request{Op: benchOp, Problem: p})
		if err != nil {
			b.Fatal(err)
		}
		if res.Cached {
			b.Fatal("unexpected cache hit with caching disabled")
		}
	}
}

// BenchmarkBatchSolve measures a /v1/batch-shaped fan-out of cold solves
// across the shared engine pool: distinct mid-size Suite20 problems, both
// objectives, cache disabled so every iteration pays the full DP cost. The
// workers=1 sub-benchmark is the sequential baseline; higher widths show
// the batch-level scaling the engine buys.
func BenchmarkBatchSolve(b *testing.B) {
	var reqs []Request
	for _, c := range []int{6, 7, 8, 9} {
		p := buildSuiteProblem(b, c)
		reqs = append(reqs,
			Request{Op: OpMinDelay, Problem: p},
			Request{Op: OpMaxFrameRate, Problem: p},
		)
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := NewSolver(Options{Workers: w, CacheCapacity: -1})
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, item := range s.SolveBatch(context.Background(), reqs) {
					if item.Err != nil {
						b.Fatal(item.Err)
					}
				}
			}
		})
	}
}

// BenchmarkSolverCacheHitParallel exercises the sharded cache under
// GOMAXPROCS concurrent readers.
func BenchmarkSolverCacheHitParallel(b *testing.B) {
	p := buildSuiteProblem(b, benchCase)
	s := NewSolver(Options{})
	if _, err := s.Solve(context.Background(), Request{Op: benchOp, Problem: p}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Solve(context.Background(), Request{Op: benchOp, Problem: p}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanHandlerCacheHit measures one planning request through
// Server.Handler() that the solution cache answers, with the telemetry
// middleware in front, on each planning route: /v1/mindelay,
// /v1/maxframerate with a delay budget, and /v1/front. The body is the
// json.Marshal of the Suite20 benchmark case (about 220 KB, almost all of
// it the network), the shape a client sends.
//   - repeat sends the same bytes every iteration, which the body tier
//     answers: body read, one SHA-256 of it, two lookups and the encode.
//   - respelled sends a fresh spelling of the same problem every iteration
//     (its leading whitespace spells the iteration number), which takes the
//     decode path to a canonical hit: body read and digest, decode,
//     validation, canonical hash, cache lookup and the encode.
func BenchmarkPlanHandlerCacheHit(b *testing.B) {
	p := buildSuiteProblem(b, benchCase)
	routes := []struct{ name, path, extra string }{
		{"mindelay", "/v1/mindelay", ""},
		{"maxframerate-budget", "/v1/maxframerate", `,"delay_budget_ms":600`},
		{"front", "/v1/front", ""},
	}
	for _, route := range routes {
		b.Run(route.name, func(b *testing.B) {
			wire, err := json.Marshal(struct {
				Network  *model.Network  `json:"network"`
				Pipeline *model.Pipeline `json:"pipeline"`
				Src      model.NodeID    `json:"src"`
				Dst      model.NodeID    `json:"dst"`
			}{p.Net, p.Pipe, p.Src, p.Dst})
			if err != nil {
				b.Fatal(err)
			}
			// The body: whitespace to respell, then the object and the route's
			// extra members.
			const pad = 24
			body := append(bytes.Repeat([]byte(" "), pad), wire[:len(wire)-1]...)
			body = append(append(body, route.extra...), '}')
			s := NewServer(Options{})
			defer s.Close()
			h := s.Handler()
			post := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route.path, bytes.NewReader(body)))
				return rec
			}
			if rec := post(); rec.Code != http.StatusOK {
				b.Fatalf("priming request: %d %s", rec.Code, rec.Body)
			}
			run := func(b *testing.B, respell func(i int)) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					respell(i)
					rec := post()
					if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
						b.Fatalf("expected a cache hit, got %d: %s", rec.Code, rec.Body)
					}
				}
			}
			b.Run("repeat", func(b *testing.B) { run(b, func(int) {}) })
			b.Run("respelled", func(b *testing.B) {
				// Iteration i writes its base-4 digits as JSON whitespace; the
				// priming request sent the all-space spelling, so start at 1.
				const ws = " \t\n\r"
				run(b, func(i int) {
					for j, n := 0, i+1; j < pad; j, n = j+1, n/4 {
						body[j] = ws[n%4]
					}
				})
			})
		})
	}
}
