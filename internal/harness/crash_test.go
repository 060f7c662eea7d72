package harness

import (
	"encoding/json"
	"testing"

	"elpc/internal/fleet"
	"elpc/internal/gen"
)

// crashSpec trims the default churn trace so the crash scenario stays
// fast enough for the CI recovery gate while still parking and preempting.
func crashSpec() gen.ChurnSpec {
	cs := gen.DefaultChurnSpec()
	cs.Events = 6
	return cs
}

// TestRunCrashScenario is the recovery gate's entry point: the scenario
// itself errors when any crash point recovers to a state no operation
// acknowledged, so the test mostly asserts the sweep actually covered the
// interesting territory. It sweeps the one-shard manager and a 3-shard one,
// whose log also carries coordinator records (cross-region deploys, repair
// parks and requeues, 2PC and fallback counters, boundary churn).
func TestRunCrashScenario(t *testing.T) {
	for _, shards := range []int{1, 3} {
		r, err := RunCrashScenario(gen.Suite20()[1], crashSpec(), 14, shards, 2026)
		if err != nil {
			t.Fatalf("%d-shard fleet: %v", shards, err)
		}
		if r.Records == 0 || r.LogBytes == 0 {
			t.Fatalf("%d-shard fleet: scenario produced no durable log: %+v", shards, r)
		}
		if r.SuffixBytes == 0 {
			t.Fatalf("%d-shard fleet: snapshot regime left no suffix segment: %+v", shards, r)
		}
		if r.Trials < 8 {
			t.Fatalf("%d-shard fleet: only %d crash points exercised", shards, r.Trials)
		}
		if r.TornTrials == 0 {
			t.Fatalf("%d-shard fleet: no crash point landed mid-record; torn-tail recovery was never exercised", shards)
		}
		if r.SnapshotTrials == 0 {
			t.Fatalf("%d-shard fleet: no crash point recovered through the snapshot", shards)
		}
		if r.DistinctStates < 3 {
			t.Fatalf("%d-shard fleet: crash points recovered into only %d distinct states; the sweep is degenerate", shards, r.DistinctStates)
		}
		if r.FinalDeployments == 0 {
			t.Fatalf("%d-shard fleet: workload ended with an empty fleet; the scenario proves nothing", shards)
		}
		if shards == 1 && r.MidOpTrials != 0 {
			t.Fatalf("one-shard operations log one record each, yet %d crashes fell inside one", r.MidOpTrials)
		}
		if table := CrashScenarioTable(r); table == "" {
			t.Fatal("empty table")
		}
	}
}

// TestRunCrashScenarioDeterministic pins the scenario's seeded outcome:
// two runs with the same inputs must agree exactly, or the recovery gate
// becomes flaky.
func TestRunCrashScenarioDeterministic(t *testing.T) {
	a, err := RunCrashScenario(gen.Suite20()[1], crashSpec(), 10, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCrashScenario(gen.Suite20()[1], crashSpec(), 10, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("scenario is not deterministic:\n a: %+v\n b: %+v", *a, *b)
	}
}

// TestBoundedBy checks the mid-operation recovery bound on hand-built
// states: a state between the two neighbors passes, a fabricated deployment
// or a lost untouched one fails.
func TestBoundedBy(t *testing.T) {
	state := func(ids ...string) string {
		var st crashState
		for _, id := range ids {
			st.List = append(st.List, fleet.Deployment{ID: id})
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	before, after := state("a", "b"), state("a", "c")
	for _, tc := range []struct {
		got  string
		want bool
	}{
		{state("a", "b"), true},
		{state("a", "c"), true},
		{state("a", "b", "c"), true},
		{state("a", "d"), false}, // fabricated
		{state("b", "c"), false}, // lost "a", which the operation left alone
	} {
		if err := boundedBy(tc.got, before, after); (err == nil) != tc.want {
			t.Errorf("boundedBy(%s) = %v, want ok=%v", tc.got, err, tc.want)
		}
	}
}
