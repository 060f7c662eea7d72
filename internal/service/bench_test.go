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

// BenchmarkPlanHandlerCacheHit measures one /v1/mindelay request through
// Server.Handler() that the solution cache answers: body read and decode,
// problem validation, canonical hash, cache lookup and response encoding,
// with the telemetry middleware in front. The body is the json.Marshal of
// the Suite20 benchmark case (about 220 KB, almost all of it the network),
// the shape a client sends.
func BenchmarkPlanHandlerCacheHit(b *testing.B) {
	p := buildSuiteProblem(b, benchCase)
	body, err := json.Marshal(struct {
		Network  *model.Network  `json:"network"`
		Pipeline *model.Pipeline `json:"pipeline"`
		Src      model.NodeID    `json:"src"`
		Dst      model.NodeID    `json:"dst"`
	}{p.Net, p.Pipe, p.Src, p.Dst})
	if err != nil {
		b.Fatal(err)
	}
	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mindelay", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		b.Fatalf("priming request: %d %s", rec.Code, rec.Body)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := post()
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
			b.Fatalf("expected a cache hit, got %d: %s", rec.Code, rec.Body)
		}
	}
}
