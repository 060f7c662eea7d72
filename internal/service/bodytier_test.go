package service

// Tests for the body tier: a planning route answers a byte-identical repeat
// of a body it has decoded from the exact tier, without decoding it again.
// Every answer must equal the one the decode path — decodeBody, request(op),
// Solver.Solve, writeJSON — gives for the same body on the same server, and
// every request must make exactly one counted exact-tier lookup.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
)

// planRoutes are the routes the body tier serves.
var planRoutes = []struct {
	path string
	op   Op
}{
	{"/v1/mindelay", OpMinDelay},
	{"/v1/maxframerate", OpMaxFrameRate},
	{"/v1/front", OpFront},
}

// postBody POSTs body to path through h.
func postBody(h http.Handler, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec
}

// decodePathAnswer answers a body as the planning routes did before the body
// tier: decodeBody, request(op), Solver.Solve, then writeJSON or writeError.
// body and readErr are what readBody returned for the request.
func decodePathAnswer(ctx context.Context, s *Server, op Op, body []byte, readErr error) *httptest.ResponseRecorder {
	res, err := func() (*Result, error) {
		w, err := decodeBody(body, readErr, readPlainRequest)
		if err != nil {
			return nil, err
		}
		req, err := w.request(op)
		if err != nil {
			return nil, err
		}
		return s.solver.Solve(ctx, req)
	}()
	rec := httptest.NewRecorder()
	if err != nil {
		writeError(rec, err)
	} else {
		writeJSON(rec, http.StatusOK, res)
	}
	return rec
}

// readAll returns what readBody reads from body.
func readAll(body io.Reader) ([]byte, error) {
	return readBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", body))
}

// sameAnswer fails unless got and want carry the same status and bytes.
func sameAnswer(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s: got %d %s\nwant %d %s", what, got.Code, got.Body, want.Code, want.Body)
	}
}

// planBody marshals p as a planning body in json.Marshal's plain form,
// with extra members (`"points":4`, say) after the problem's.
func planBody(t testing.TB, p *model.Problem, extra string) []byte {
	t.Helper()
	body, err := json.Marshal(wireFor(p))
	if err != nil {
		t.Fatal(err)
	}
	if extra != "" {
		body = append(append(body[:len(body)-1:len(body)-1], ','), extra+"}"...)
	}
	return body
}

// respellings returns bodies that spell p's planning body differently:
// members in reverse order, and json.MarshalIndent's whitespace.
func respellings(t testing.TB, p *model.Problem) [][]byte {
	t.Helper()
	var parts [4][]byte
	for i, v := range []any{p.Dst, p.Src, p.Pipe, p.Net} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = b
	}
	reordered := fmt.Appendf(nil, `{"dst":%s,"src":%s,"pipeline":%s,"network":%s}`,
		parts[0], parts[1], parts[2], parts[3])
	indented, err := json.MarshalIndent(wireFor(p), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{reordered, indented}
}

// unreachableProblem has no path from its source to its destination, so
// every operation answers it 422.
func unreachableProblem(t testing.TB) *model.Problem {
	t.Helper()
	net, err := model.NewNetwork(
		[]model.Node{{ID: 0, Power: 100}, {ID: 1, Power: 100}, {ID: 2, Power: 100}},
		[]model.Link{{ID: 0, From: 0, To: 1, BWMbps: 10}, {ID: 1, From: 1, To: 0, BWMbps: 10}})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := model.NewPipeline([]model.Module{
		{ID: 0, OutBytes: 10},
		{ID: 1, Complexity: 1, InBytes: 10, OutBytes: 10},
		{ID: 2, Complexity: 1, InBytes: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &model.Problem{Net: net, Pipe: pipe, Src: 0, Dst: 2, Cost: model.DefaultCostOptions()}
}

// spaces yields n spaces.
type spaces struct{ n int }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), s.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.n -= k
	return k, nil
}

// lookups is the number of counted exact-tier lookups so far.
func lookups(s *Server) uint64 {
	st := s.solver.Stats().Cache
	return st.Hits + st.Misses
}

func TestPlanBodyTierMatchesDecodePath(t *testing.T) {
	p0, p1 := buildSuiteProblem(t, 0), buildSuiteProblem(t, 1)
	small := planBody(t, p0, "")
	type bodyCase struct {
		name string
		body func() io.Reader // a fresh reader over the same bytes
	}
	var corpus []bodyCase
	add := func(name string, body []byte) {
		corpus = append(corpus, bodyCase{name, func() io.Reader { return bytes.NewReader(body) }})
	}
	add("suite-0", small)
	add("suite-1", planBody(t, p1, ""))
	add("budget", planBody(t, p0, `"delay_budget_ms":250`))
	add("points", planBody(t, p0, `"points":3`))
	add("allow-similar", planBody(t, p1, `"allow_similar":true`))
	// Suite case 1 at 90 % power: once case 1 is solved, the similarity
	// tier adapts its mapping, which the exact tier never holds.
	slower := cloneProblem(p1)
	for i := range slower.Net.Nodes {
		slower.Net.Nodes[i].Power *= 0.9
	}
	add("allow-similar-variant", planBody(t, slower, `"allow_similar":true`))
	add("infeasible", planBody(t, unreachableProblem(t), ""))
	add("points-past-limit", planBody(t, p0, fmt.Sprintf(`"points":%d`, MaxFrontPoints+1)))
	add("frames-past-limit", planBody(t, p0, fmt.Sprintf(`"frames":%d`, MaxSimFrames+1)))
	add("malformed", []byte(`{"network":`))
	add("not-json", []byte(`plan please`))
	add("empty", nil)
	add("missing-pipeline", []byte(`{"network":{"nodes":[],"links":[]}}`))
	add("unknown-field", bytes.Replace(small, []byte(`"src"`), []byte(`"source"`), 1))
	add("invalid-network", bytes.Replace(small, []byte(`"power":`), []byte(`"power":-`), 1))
	add("invalid-endpoint", planBody(t, &model.Problem{Net: p0.Net, Pipe: p0.Pipe, Src: 99, Dst: p0.Dst}, ""))
	for i, b := range respellings(t, p0) {
		add(fmt.Sprintf("respelled-%d", i), b)
	}
	// A valid body followed by more spaces than MaxRequestBytes allows: the
	// first value decodes, but the read fails, so it is never aliased. Each
	// read of it buffers MaxRequestBytes; a low GC target keeps only one
	// such buffer live.
	corpus = append(corpus, bodyCase{"cut", func() io.Reader {
		return io.MultiReader(bytes.NewReader(small), &spaces{n: MaxRequestBytes})
	}})
	defer debug.SetGCPercent(debug.SetGCPercent(5))

	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()
	approximates := 0
	for _, route := range planRoutes {
		for _, c := range corpus {
			what := route.path + " " + c.name
			first := postBody(h, route.path, c.body())
			before, bodyHits := lookups(s), s.solver.Stats().Cache.BodyHits
			second := postBody(h, route.path, c.body())
			gotLookups, gotBodyHits := lookups(s)-before, s.solver.Stats().Cache.BodyHits-bodyHits
			read, readErr := readAll(c.body())
			sameAnswer(t, what, second, decodePathAnswer(context.Background(), s, route.op, read, readErr))

			// A body that decodes and validates makes one counted lookup; only
			// a repeat of an exact answer to a body that read in full is a
			// body hit.
			wantLookups, wantBodyHits := uint64(0), uint64(0)
			if second.Code != http.StatusBadRequest {
				wantLookups = 1
			}
			approximate := bytes.Contains(first.Body.Bytes(), []byte(`"approximate": true`))
			if approximate {
				approximates++
			} else if first.Code == http.StatusOK && readErr == nil {
				wantBodyHits = 1
			}
			if gotLookups != wantLookups || gotBodyHits != wantBodyHits {
				t.Errorf("%s: repeat made %d counted lookups and %d body hits, want %d and %d",
					what, gotLookups, gotBodyHits, wantLookups, wantBodyHits)
			}
			if first.Code == http.StatusOK && !bytes.Contains(second.Body.Bytes(), []byte(`"cached": true`)) {
				t.Errorf("%s: repeat was not a cache hit: %s", what, second.Body)
			}
		}
		// A respelling of a solved body is a canonical hit: the same bytes as
		// the original's repeat.
		want := postBody(h, route.path, bytes.NewReader(small))
		for i, b := range respellings(t, p0) {
			b = append([]byte(" \n"), b...) // a spelling the loop above has not sent
			sameAnswer(t, fmt.Sprintf("%s respelled-%d", route.path, i), postBody(h, route.path, bytes.NewReader(b)), want)
		}
	}
	if approximates == 0 {
		t.Error("no body was answered from the similarity tier")
	}
}

func TestPlanBodyTierCanceledRequest(t *testing.T) {
	body := planBody(t, buildSuiteProblem(t, 0), "")
	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()
	planResult(t, postBody(h, "/v1/mindelay", bytes.NewReader(body)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mindelay", bytes.NewReader(body)).WithContext(ctx))
	sameAnswer(t, "canceled repeat", rec, decodePathAnswer(ctx, s, OpMinDelay, body, nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("canceled repeat: %d %s, want 503", rec.Code, rec.Body)
	}
}

func TestPlanBodyTierRouteIsolation(t *testing.T) {
	body := planBody(t, buildSuiteProblem(t, 0), "")
	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()
	for i, route := range planRoutes {
		for rep := 0; rep < 2; rep++ {
			rec := postBody(h, route.path, bytes.NewReader(body))
			var res Result
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", route.path, rec.Code, rec.Body)
			}
			if res.Op != route.op || res.Cached != (rep == 1) {
				t.Errorf("%s request %d: op %q cached %v", route.path, rep, res.Op, res.Cached)
			}
		}
		if got := s.solver.Stats().ColdSolves; got != uint64(i+1) {
			t.Errorf("after %s: %d cold solves, want %d", route.path, got, i+1)
		}
	}
	if got := s.solver.Stats().Cache.BodyHits; got != uint64(len(planRoutes)) {
		t.Errorf("body hits %d, want %d", got, len(planRoutes))
	}
}

// planResult decodes a 200 answer.
func planResult(t *testing.T, rec *httptest.ResponseRecorder) Result {
	t.Helper()
	var res Result
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// uncached is res without the fields that say how it was served.
func uncached(res Result) Result {
	res.Cached, res.SolveMs = false, 0
	return res
}

func TestPlanBodyTierStaleAliases(t *testing.T) {
	var probs []*model.Problem
	var bodies [][]byte
	for i := 0; i < 4; i++ {
		p := buildSuiteProblem(t, i%2)
		if i >= 2 {
			p = cloneProblem(p)
			p.Src, p.Dst = p.Dst, p.Src
		}
		probs = append(probs, p)
		bodies = append(bodies, planBody(t, p, ""))
	}
	s := NewServer(Options{CacheCapacity: 2, CacheShards: 1})
	defer s.Close()
	h := s.Handler()
	post := func(i int) Result {
		t.Helper()
		before := lookups(s)
		res := planResult(t, postBody(h, "/v1/mindelay", bytes.NewReader(bodies[i])))
		if got := lookups(s) - before; got != 1 {
			t.Errorf("body %d: %d counted lookups, want 1", i, got)
		}
		return res
	}

	// Cycling through more bodies than the cache holds: every answer is a
	// fresh solve, and the same one each time.
	want := make([]Result, len(bodies))
	for round := 0; round < 3; round++ {
		for i := range bodies {
			res := post(i)
			if res.Cached {
				t.Errorf("round %d body %d: cached, but the cycle evicts it", round, i)
			}
			if round == 0 {
				want[i] = res
			} else if !reflect.DeepEqual(uncached(res), uncached(want[i])) {
				t.Errorf("round %d body %d: %+v, want %+v", round, i, res, want[i])
			}
		}
	}

	// Evict body 0's exact entry behind the body tier's back: its alias
	// stays, goes stale, and the repeat is a fresh solve.
	if res := post(0); res.Cached {
		t.Fatal("body 0 should have been evicted by the cycle")
	}
	if res := post(0); !res.Cached {
		t.Fatal("repeat of body 0 missed")
	}
	for _, i := range []int{1, 2} {
		if _, err := s.solver.Solve(context.Background(), Request{Problem: probs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := s.solver.cache.getBody(bodyKey{op: OpMinDelay, digest: sha256.Sum256(bodies[0])}); ok {
		t.Fatal("body 0 still answered from the body tier after its exact entry was evicted")
	}
	bodyHits, solves := s.solver.Stats().Cache.BodyHits, s.solver.Stats().ColdSolves
	res := post(0)
	if res.Cached || res.SolveMs <= 0 || !reflect.DeepEqual(uncached(res), uncached(want[0])) {
		t.Errorf("stale alias: %+v, want a fresh solve of %+v", res, want[0])
	}
	st := s.solver.Stats()
	if st.Cache.BodyHits != bodyHits || st.ColdSolves != solves+1 {
		t.Errorf("stale alias: body hits %d -> %d, cold solves %d -> %d", bodyHits, st.Cache.BodyHits, solves, st.ColdSolves)
	}
	if res := post(0); !res.Cached || s.solver.Stats().Cache.BodyHits != bodyHits+1 {
		t.Errorf("repeat after the stale alias: %+v, body hits %d", res, s.solver.Stats().Cache.BodyHits)
	}
}

func TestPlanBodyTierRefreshesRecency(t *testing.T) {
	var bodies [][]byte
	for i := 0; i < 3; i++ {
		bodies = append(bodies, planBody(t, buildSuiteProblem(t, i), ""))
	}
	s := NewServer(Options{CacheCapacity: 2, CacheShards: 1})
	defer s.Close()
	h := s.Handler()
	cached := func(i int) bool {
		return planResult(t, postBody(h, "/v1/mindelay", bytes.NewReader(bodies[i]))).Cached
	}
	cached(0)
	cached(1)
	// Body 0's body hit makes body 1 the least recently used entry, so
	// body 2's solve evicts body 1 and body 0 stays.
	if !cached(0) {
		t.Fatal("repeat of body 0 missed")
	}
	cached(2)
	if !cached(0) {
		t.Error("body 0 was evicted: its body hit did not refresh its recency")
	}
	if cached(1) {
		t.Error("body 1 outlived body 0's refresh")
	}
}

func TestPlanBodyTierDisabled(t *testing.T) {
	body := planBody(t, buildSuiteProblem(t, 0), "")
	s := NewServer(Options{CacheCapacity: -1})
	defer s.Close()
	if s.solver.cache.bodies != nil {
		t.Fatal("a disabled cache has a body tier")
	}
	h := s.Handler()
	for rep := 0; rep < 3; rep++ {
		if res := planResult(t, postBody(h, "/v1/mindelay", bytes.NewReader(body))); res.Cached {
			t.Errorf("request %d cached with caching disabled", rep)
		}
	}
	st := s.solver.Stats()
	if st.ColdSolves != 3 || st.Cache.BodyHits != 0 || st.Cache.Misses != 3 {
		t.Errorf("cold solves %d, body hits %d, misses %d; want 3, 0, 3", st.ColdSolves, st.Cache.BodyHits, st.Cache.Misses)
	}
}

func TestPlanBodyTierConcurrent(t *testing.T) {
	var bodies [][]byte
	for seed := uint64(1); seed <= 3; seed++ {
		p, err := gen.Problem(gen.CaseSpec{Modules: 4, Nodes: 6, Links: 14}, gen.DefaultRanges(), gen.RNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, planBody(t, p, ""), planBody(t, p, `"delay_budget_ms":1000`))
		bodies = append(bodies, respellings(t, p)...)
	}
	type call struct {
		path string
		body []byte
	}
	var calls []call
	for _, route := range planRoutes {
		for _, b := range bodies {
			calls = append(calls, call{route.path, b})
		}
	}
	// answer is what a call returns, less how it was served.
	answer := func(rec *httptest.ResponseRecorder) string {
		if rec.Code != http.StatusOK {
			return fmt.Sprintf("%d %s", rec.Code, rec.Body)
		}
		var res Result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			return err.Error()
		}
		out, _ := json.Marshal(uncached(res))
		return string(out)
	}
	seq := NewServer(Options{})
	defer seq.Close()
	sh := seq.Handler()
	want := make([]string, len(calls))
	for i, c := range calls {
		want[i] = answer(postBody(sh, c.path, bytes.NewReader(c.body)))
	}

	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for r := 0; r < rounds; r++ {
				for _, i := range rng.Perm(len(calls)) {
					if got := answer(postBody(h, calls[i].path, bytes.NewReader(calls[i].body))); got != want[i] {
						t.Errorf("%s %d: got %s\nwant %s", calls[i].path, i, got, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.solver.Stats().Cache
	if n := uint64(goroutines * rounds * len(calls)); st.Hits+st.Misses != n {
		t.Errorf("%d counted lookups for %d requests", st.Hits+st.Misses, n)
	}
	if st.BodyHits == 0 || st.BodyHits > st.Hits {
		t.Errorf("body hits %d of %d hits", st.BodyHits, st.Hits)
	}
}
