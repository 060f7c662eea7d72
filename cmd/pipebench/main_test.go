package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runFig invokes run with the defaulted flag set the pre-compare tests use.
func runFig(fig, out string, workers, cases, replicas int, jsonPath string) error {
	return run(runConfig{
		fig: fig, out: out, workers: workers, cases: cases, replicas: replicas,
		jsonPath: jsonPath, parallel: 1,
	})
}

func TestRunEmitsArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := runFig("2", dir, 0, 2, 2, ""); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig2.md", "summary.txt", "runtimes.md"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

func TestRunFigures34(t *testing.T) {
	dir := t.TempDir()
	if err := runFig("3", dir, 0, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Error("fig3.dot malformed")
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4.dot")); err == nil {
		t.Error("-fig 3 should not emit fig4")
	}
	if err := runFig("4", dir, 0, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4.txt")); err != nil {
		t.Error("fig4.txt missing")
	}
}

func TestRunSeriesAndAblations(t *testing.T) {
	dir := t.TempDir()
	for _, fig := range []string{"5", "6", "mld", "jitter", "pareto", "churn", "warm"} {
		if err := runFig(fig, dir, 0, 2, 1, ""); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
	}
	for _, f := range []string{"fig5.csv", "fig6.csv", "mld.md", "jitter.csv", "pareto_case1.csv", "churn.md", "warm.md"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s missing: %v", f, err)
		}
	}
}

func TestRunReplicated(t *testing.T) {
	dir := t.TempDir()
	if err := runFig("replicated", dir, 0, 1, 2, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "replicated.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "±") {
		t.Error("replicated table missing ± cells")
	}
}

func TestRunErrors(t *testing.T) {
	if err := runFig("bogus", "", 0, 1, 1, ""); err == nil {
		t.Error("unknown figure should error")
	}
	if err := runFig("2", "", 0, 0, 1, ""); err == nil {
		t.Error("cases=0 should error")
	}
	if err := runFig("2", "", 0, 21, 1, ""); err == nil {
		t.Error("cases=21 should error")
	}
}

func TestRunJSONSummary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_suite.json")
	// -json forces the suite even for figures that don't otherwise need it.
	if err := runFig("ablation", "", 0, 2, 1, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema     string   `json:"schema"`
		Cases      int      `json:"cases"`
		Algorithms []string `json:"algorithms"`
		Results    []struct {
			Case  int                        `json:"case"`
			Delay map[string]json.RawMessage `json:"min_delay_ms"`
			Rate  map[string]json.RawMessage `json:"max_frame_rate_fps"`
		} `json:"results"`
		DelayWins map[string]int `json:"delay_wins"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if doc.Schema != "elpc-pipebench-v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if doc.Cases != 2 || len(doc.Results) != 2 {
		t.Errorf("cases = %d, results = %d, want 2", doc.Cases, len(doc.Results))
	}
	if len(doc.Algorithms) == 0 || doc.DelayWins["ELPC"] == 0 {
		t.Errorf("missing algorithms or ELPC delay wins: %+v", doc)
	}
	for _, r := range doc.Results {
		for _, alg := range doc.Algorithms {
			if _, ok := r.Delay[alg]; !ok {
				t.Errorf("case %d missing delay outcome for %s", r.Case, alg)
			}
			if _, ok := r.Rate[alg]; !ok {
				t.Errorf("case %d missing rate outcome for %s", r.Case, alg)
			}
		}
	}
}

func TestRunCompareGate(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	// Produce a baseline from a 2-case run, then compare a fresh identical
	// run against it with the wall-clock classes (runtime and ratio) out of
	// the gate: quality metrics are deterministic, so the gate passes. The
	// wall-clock classes are not: two runs on a loaded machine can differ by
	// any amount.
	if err := runFig("2", "", 0, 2, 1, baseline); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{fig: "2", cases: 2, replicas: 1, parallel: 1, compare: baseline, ignoreRuntime: true}); err != nil {
		t.Fatalf("identical rerun failed the gate: %v", err)
	}
	// A ratio metric pushed far past its threshold fails the gate once
	// runtime gating is on: inflate the baseline's scale speedup 100x.
	doctorBaseline(t, baseline, func(doc map[string]any) {
		scale := doc["scale"].(map[string]any)
		scale["speedup"] = scale["speedup"].(float64) * 100
	})
	if err := run(runConfig{fig: "2", cases: 2, replicas: 1, parallel: 1, compare: baseline}); err == nil {
		t.Fatal("100x speedup regression passed the gate")
	}
	// Corrupt the baseline's quality expectations: inflate every ELPC rate
	// 10x so the fresh run regresses far past the threshold, which gates
	// even with runtime gating off.
	doctorBaseline(t, baseline, func(doc map[string]any) {
		for _, rc := range doc["results"].([]any) {
			rates := rc.(map[string]any)["max_frame_rate_fps"].(map[string]any)
			elpc := rates["ELPC"].(map[string]any)
			if v, ok := elpc["value"].(float64); ok {
				elpc["value"] = v * 10
			}
		}
	})
	if err := run(runConfig{fig: "2", cases: 2, replicas: 1, parallel: 1, compare: baseline, ignoreRuntime: true}); err == nil {
		t.Fatal("10x rate regression passed the gate")
	}
	// Missing baseline file is a hard error, not a silent pass.
	if err := run(runConfig{fig: "2", cases: 1, replicas: 1, parallel: 1, compare: filepath.Join(dir, "nope.json")}); err == nil {
		t.Fatal("missing baseline passed")
	}
}

// doctorBaseline rewrites the JSON baseline at path through edit.
func doctorBaseline(t *testing.T, path string, edit func(map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunStdoutOnly(t *testing.T) {
	// No -out directory: artifacts go to stdout only; must not error.
	if err := runFig("ablation", "", 0, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
}
