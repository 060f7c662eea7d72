package main

import (
	"math"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

func loadRepoSpec(t *testing.T) (string, *benchSpec) {
	t.Helper()
	root, err := findRoot("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

// BENCHMARK.json must name exactly the workloads the program runs, and
// follow the naming rules its readers enforce.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	_, spec := loadRepoSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (%q) breaks the naming rules or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// The smoke test runs every workload end to end against a freshly built
// elpcd with tiny sizes and checks that the answers verify and every
// metric BENCHMARK.json names is produced.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds elpcd and runs every workload")
	}
	root, spec := loadRepoSpec(t)
	work := t.TempDir()
	bin, err := buildElpcd(root, work)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{root: root, work: work, bin: bin, seed: 1, seconds: 0.5, trace: true,
		traceDir: t.TempDir(), conns: min(2, runtime.NumCPU()), replicas: 1, restarts: 1, openN: 30, traceN: 10}
	// Percentiles these few samples cannot support are refused, not faked.
	tooFew := map[string]bool{"loadgen.lag_p95_ms": true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < cfg.openN {
				t.Fatalf("attempted %d, failed %d, correct %v: %v", res.Attempted, res.Failed, res.Correct, res.Notes)
			}
			for _, group := range []struct {
				defs []metricDef
				got  map[string]metric
			}{{spec.EndToEnd, res.Metrics}, {spec.PerLayer, res.Layers}} {
				for _, d := range group.defs {
					m, ok := group.got[d.Name]
					switch {
					case !ok && !tooFew[d.Name]:
						t.Errorf("metric %s not measured", d.Name)
					case ok && m.Unit != d.Unit:
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit)
					case ok && !finite(m.Value):
						t.Errorf("metric %s = %v", d.Name, m.Value)
					}
				}
			}
			if c := res.Layers["trace.coverage"].Value; c < 0.5 || c > 2 {
				t.Errorf("trace.coverage = %v; the layers do not account for the traced time", c)
			}
		})
	}
}

// finite reports whether v is a usable measurement.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
