package main

import (
	"math"
	"testing"
	"time"
)

// The timings come from the replicas that lost the least CPU time to the
// hypervisor, kept in run order; ties keep the earlier replica.
func TestQuietestReplicas(t *testing.T) {
	var reps []*replica
	for _, steal := range []float64{0.30, 0.01, 0.02, 0.01, 0.25} {
		reps = append(reps, &replica{steal: steal})
	}
	got := quietest(reps, 3)
	want := []*replica{reps[1], reps[2], reps[3]}
	if len(got) != len(want) {
		t.Fatalf("kept %d replicas, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("replica %d: steal %v, want %v", i, got[i].steal, want[i].steal)
		}
	}
	if n := len(quietest(reps[:2], 3)); n != 2 {
		t.Errorf("asking for more replicas than ran kept %d, want 2", n)
	}
}

func TestStealShare(t *testing.T) {
	a, b := cpuStat{busy: 100, steal: 10}, cpuStat{busy: 190, steal: 20}
	if got := stealShare(a, b); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("steal share = %v, want 0.1 (10 of 100 ticks wanted)", got)
	}
	if got := stealShare(a, a); got != 0 {
		t.Errorf("steal share of an idle interval = %v, want 0", got)
	}
}

// Timing metrics skip the noisy replica; set-up time and memory use all.
func TestSummarizeTimesQuietReplicas(t *testing.T) {
	w := &workload{name: "w", rate: 10}
	rep := func(steal, lat, setup float64) *replica {
		r := &replica{steal: steal, setup: setup, rss: 10, openN: 20, closedN: 10,
			closedTime: time.Second, elpcdCPU: 20 * time.Millisecond, restarts: []float64{0.01}}
		r.sent = make([]sent, 30)
		for i := 0; i < 20; i++ {
			r.openLat = append(r.openLat, lat)
		}
		return r
	}
	reps := []*replica{rep(0.5, 100, 1), rep(0, 1, 2), rep(0, 1, 3), rep(0, 1, 4)}
	res := summarize(w, reps)
	for name, want := range map[string]float64{
		"throughput_rps":     10,
		"cpu_ms_per_request": 1,
		"setup_s":            2.5,
	} {
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]float64{"latency_p50_ms": 1, "recover_s": 0.01} {
		if got := res.Report[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
