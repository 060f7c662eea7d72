package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.95, 200}, {0.99, 1000}} {
		if got := minSamples(tc.q); got != tc.need {
			t.Errorf("minSamples(%v) = %d, want %d", tc.q, got, tc.need)
		}
		if _, err := percentile(seq(tc.need-1), tc.q); err == nil {
			t.Errorf("p%v of %d samples: no error, want a refusal", 100*tc.q, tc.need-1)
		}
		if _, err := percentile(seq(tc.need), tc.q); err != nil {
			t.Errorf("p%v of %d samples: %v", 100*tc.q, tc.need, err)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200) // 1..200
	for _, tc := range []struct{ q, want float64 }{{0.5, 100}, {0.95, 190}} {
		got, err := percentile(xs, tc.q)
		if err != nil || got != tc.want {
			t.Errorf("percentile(1..200, %v) = %v, %v; want %v", tc.q, got, err, tc.want)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestParseExposition(t *testing.T) {
	e := parseExposition(strings.Join([]string{
		"# TYPE elpc_fleet_lock_wait_seconds histogram",
		`elpc_fleet_lock_wait_seconds_sum{shard="s0"} 0.5`,
		`elpc_fleet_lock_wait_seconds_sum{shard="s1"} 0.25`,
		"elpc_wal_appends_total 12",
		"elpc_wal_appends_total_extra 99",
	}, "\n"))
	if got := e.sum("elpc_fleet_lock_wait_seconds_sum"); got != 0.75 {
		t.Errorf("sum over shards = %v, want 0.75", got)
	}
	if got := e.sum("elpc_wal_appends_total"); got != 12 {
		t.Errorf("sum of an unlabeled family = %v, want 12 (a longer name must not match)", got)
	}
	if got := e.sum(`elpc_fleet_lock_wait_seconds_sum{shard="s1"}`); got != 0.25 {
		t.Errorf("one labeled series = %v, want 0.25", got)
	}
}

func TestWorseningAppliesDirection(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.25}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.25}
	for _, tc := range []struct {
		def  metricDef
		a, b float64
		want float64
	}{
		{lower, 10, 12, 0.2},
		{lower, 10, 8, -0.2},
		{higher, 100, 80, 0.2},
		{higher, 100, 130, -0.3},
	} {
		if got := worsening(tc.def, tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("worsening(%s, %v, %v) = %v, want %v", tc.def.Name, tc.a, tc.b, got, tc.want)
		}
	}
	if !math.IsInf(worsening(lower, 0, 1), 1) || worsening(lower, 0, 0) != 0 {
		t.Error("a zero baseline must compare as unchanged or infinitely worse")
	}
}

func TestCompareDocsAppliesBounds(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDef{
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "throughput_rps", Unit: "req/s", Better: "higher", Bound: 0.25},
	}}
	doc := func(lat, thr float64) *resultDoc {
		return &resultDoc{Workloads: []*result{{Workload: "w", Correct: true, Metrics: map[string]metric{
			"latency_p50_ms": {lat, "ms"}, "throughput_rps": {thr, "req/s"}}}}}
	}
	for _, tc := range []struct {
		name     string
		lat, thr float64
		ok       bool
	}{
		{"same", 10, 100, true},
		{"within both bounds", 12, 80, true},
		{"latency past its bound", 12.6, 100, false},
		{"throughput past its bound", 10, 74, false},
	} {
		var sb strings.Builder
		if got := compareDocs(spec, doc(10, 100), doc(tc.lat, tc.thr), &sb); got != tc.ok {
			t.Errorf("%s: compareDocs = %v, want %v\n%s", tc.name, got, tc.ok, sb.String())
		}
	}
	var sb strings.Builder
	missing := &resultDoc{Workloads: []*result{{Workload: "w", Correct: true, Metrics: map[string]metric{}}}}
	if compareDocs(spec, doc(10, 100), missing, &sb) {
		t.Error("a run missing a metric compared as within bounds")
	}
}
