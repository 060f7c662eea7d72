// Command bench is the end-to-end benchmark of elpcd. It builds ./cmd/elpcd
// from the tree under test, runs it as a child process on 127.0.0.1, and
// drives it from this one process over at most nproc (2) keep-alive
// connections. Each workload sets elpcd up, sends a seeded Poisson open-loop
// phase at a fixed rate and then a closed loop, checks every answer it can
// against in-process reference solves and fleet invariants, and restarts
// elpcd to time recovery. With -trace 1 a traced replay follows, which
// splits request time by layer (see trace.go).
//
//	cd bench && go run . -workload all -seed 2026 -trace 1 -out results/run.json
//	cd bench && go run . -compare results/seed-a.json results/seed-b.json
//
// bench/run.sh is the entry point BENCHMARK.json names; it keeps every
// build and scratch file inside <root>/.bench_build. The last line of
// standard output is a JSON object with the metrics BENCHMARK.json lists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// openShare is the part of the measured seconds given to the open loop; the
// closed loop gets the rest.
const openShare = 0.6

// config is one invocation's settings.
type config struct {
	root     string // checkout root (holds go.mod and BENCHMARK.json)
	work     string // scratch directory for binaries, logs, data and traces
	bin      string // the elpcd binary under test
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	conns    int
	// replicas is how many independently set-up elpcd processes share the
	// measured seconds; setup_s is the median of their setups, and the
	// timings come from the timedReplicas quietest of them.
	replicas int
	// restarts is how many SIGTERM restarts each replica times for recover_s.
	restarts int
	// openN, when positive, overrides the rate-derived open-loop size.
	openN int
	// traceN is the number of requests the traced replay sends.
	traceN int
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	root := fs.String("root", "", "checkout root (default: the parent of the bench directory)")
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 2026, "seed every input is generated from")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload: open loop, then closed loop (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = also run the traced replay and print per-layer metrics")
	out := fs.String("out", "", "also write every metric of the run to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files against the BENCHMARK.json bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, traceN: 200, replicas: 5, restarts: 3}
	var err error
	if cfg.root, err = findRoot(*root); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		return runCompare(spec, fs.Args())
	}
	if *seconds == 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-out file]")
		return 2
	}
	var specs []workloadSpec
	if *name == "all" {
		specs = workloads
	} else if s, ok := lookupWorkload(*name); ok {
		specs = []workloadSpec{s}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	cfg.work = filepath.Join(cfg.root, ".bench_build")
	cfg.traceDir = filepath.Join(cfg.work, "traces")
	if *out != "" {
		cfg.traceDir = filepath.Dir(*out)
	}
	cfg.conns = min(2, runtime.NumCPU())
	for _, dir := range []string{cfg.work, cfg.traceDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if cfg.bin, err = buildElpcd(cfg.root, cfg.work); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	doc := &resultDoc{Schema: docSchema, Seed: cfg.seed, Seconds: cfg.seconds, Machine: machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Conns: cfg.conns, GoVersion: runtime.Version()}}
	status := 0
	for _, s := range specs {
		res, err := runWorkload(cfg, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
			return 1
		}
		printResult(res)
		doc.Workloads = append(doc.Workloads, res)
		if !res.Correct {
			status = 1
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := summaryLine(spec, cfg.trace, doc.Workloads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(line)
	return status
}

// findRoot returns the checkout root: flagRoot if set, else the current
// directory or its parent, whichever holds cmd/elpcd.
func findRoot(flagRoot string) (string, error) {
	candidates := []string{flagRoot}
	if flagRoot == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if st, err := os.Stat(filepath.Join(c, "cmd", "elpcd")); err == nil && st.IsDir() {
			return filepath.Abs(c)
		}
	}
	return "", errors.New("no elpc checkout (cmd/elpcd) found; run from the checkout root or bench/, or pass -root")
}

func runCompare(spec *benchSpec, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench -compare a.json b.json")
		return 2
	}
	a, err := loadDoc(files[0])
	if err == nil {
		var b *resultDoc
		if b, err = loadDoc(files[1]); err == nil {
			var sb strings.Builder
			ok := compareDocs(spec, a, b, &sb)
			fmt.Print(sb.String())
			if !ok {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// summaryLine renders the last line of output: the end-to-end metrics, or
// with -trace 1 the per-layer metrics, that BENCHMARK.json lists. With more
// than one workload it maps each workload name to its summary.
func summaryLine(spec *benchSpec, trace bool, results []*result) (string, error) {
	defs, pick := spec.EndToEnd, func(r *result) map[string]metric { return r.Metrics }
	if trace {
		defs, pick = spec.PerLayer, func(r *result) map[string]metric { return r.Layers }
	}
	type summary struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	all := map[string]summary{}
	var last summary
	for _, r := range results {
		s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
		for _, d := range defs {
			m, ok := pick(r)[d.Name]
			if !ok {
				return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
			}
			if d.Unit != m.Unit {
				return "", fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", r.Workload, d.Name, m.Unit, d.Unit)
			}
			s.Metrics[d.Name] = m
		}
		all[r.Workload], last = s, s
	}
	var b []byte
	var err error
	if len(results) == 1 {
		b, err = json.Marshal(last)
	} else {
		b, err = json.Marshal(all)
	}
	return string(b), err
}

// printResult writes the human-readable report of one workload.
func printResult(r *result) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("== %s: %d requests, %d failed, %s\n", r.Workload, r.Attempted, r.Failed, verdict)
	for _, note := range r.Notes {
		fmt.Printf("   ! %s\n", note)
	}
	for _, group := range []struct {
		title string
		m     map[string]metric
	}{{"end to end", r.Metrics}, {"report", r.Report}, {"per layer", r.Layers}} {
		if len(group.m) == 0 {
			continue
		}
		fmt.Printf("   %s:\n", group.title)
		for _, k := range sortedKeys(group.m) {
			fmt.Printf("     %-34s %14.6g %s\n", k, group.m[k].Value, group.m[k].Unit)
		}
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
