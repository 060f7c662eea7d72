package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the metrics every run prints and the bound
// by which each end-to-end metric may worsen before a change regresses.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// worsening is how much worse b is than a, as a share of a: positive when
// b is worse in the metric's direction.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	change := (b - a) / math.Abs(a)
	if def.Better == "higher" {
		change = -change
	}
	return change
}

// resultDoc is what -out writes and -compare reads: one run of one or more
// workloads.
type resultDoc struct {
	Schema    string    `json:"schema"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Machine   machine   `json:"machine"`
	Workloads []*result `json:"workloads"`
}

// machine records where a run was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Conns      int    `json:"connections"`
	GoVersion  string `json:"go_version"`
}

const docSchema = "elpc-bench-v1"

func loadDoc(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d resultDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if d.Schema != docSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, docSchema)
	}
	return &d, nil
}

// compareDocs prints one row per workload present in both runs, applying
// each end-to-end metric's bound, and reports whether every metric of every
// workload stayed within it.
func compareDocs(spec *benchSpec, a, b *resultDoc, out *strings.Builder) bool {
	ok := true
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	names := make([]string, 0, len(spec.EndToEnd))
	for _, d := range spec.EndToEnd {
		names = append(names, d.Name)
	}
	fmt.Fprintf(out, "%-22s %s\n", "workload", strings.Join(names, " | "))
	for _, ra := range a.Workloads {
		rb, found := byName[ra.Workload]
		if !found {
			continue
		}
		var cells []string
		for _, def := range spec.EndToEnd {
			ma, okA := ra.Metrics[def.Name]
			mb, okB := rb.Metrics[def.Name]
			if !okA || !okB {
				cells = append(cells, "missing")
				ok = false
				continue
			}
			w := worsening(def, ma.Value, mb.Value)
			verdict := "ok"
			if w > def.Bound {
				verdict = "WORSE"
				ok = false
			}
			cells = append(cells, fmt.Sprintf("%.4g->%.4g %+.1f%% %s", ma.Value, mb.Value, 100*(mb.Value-ma.Value)/math.Abs(ma.Value), verdict))
		}
		if ra.Correct != rb.Correct || !rb.Correct {
			cells = append(cells, "INCORRECT")
			ok = false
		}
		fmt.Fprintf(out, "%-22s %s\n", ra.Workload, strings.Join(cells, " | "))
	}
	return ok
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
