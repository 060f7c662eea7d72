// Command pipebench regenerates every table and figure of the paper's
// evaluation (Section 4) from the deterministic case suite:
//
//	pipebench -fig 2          # Figure 2 comparison table (Markdown)
//	pipebench -fig 3          # Figure 3 min-delay path (DOT + text)
//	pipebench -fig 4          # Figure 4 max-frame-rate path (DOT + text)
//	pipebench -fig 5          # Figure 5 delay series (CSV)
//	pipebench -fig 6          # Figure 6 frame-rate series (CSV)
//	pipebench -fig ablation   # reuse-extension ablation (E12)
//	pipebench -fig mld        # MLD cost-term ablation
//	pipebench -fig replicated # Monte-Carlo replication of Figure 2
//	pipebench -fig all -out results/
//
// With -out, artifacts are written into the directory (fig2.md, fig3.dot,
// fig3.txt, fig4.dot, fig4.txt, fig5.csv, fig6.csv, ablation.md,
// summary.txt); they are always echoed to stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"elpc/internal/benchfmt"
	"elpc/internal/engine"
	"elpc/internal/gen"
	"elpc/internal/harness"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2, 3, 4, 5, 6, ablation, mld, pareto, jitter, replicated, fleet, churn, scale, burst, crash, warm, or all")
	out := flag.String("out", "", "directory to write artifacts into (optional)")
	workers := flag.Int("workers", 0, "parallel workers for the case suite (0 = GOMAXPROCS)")
	cases := flag.Int("cases", 20, "number of suite cases to run (1..20)")
	replicas := flag.Int("replicas", 5, "replicas per case for -fig replicated")
	jsonPath := flag.String("json", "", "write a machine-readable JSON summary of the suite metrics to this file (- for stdout)")
	parallel := flag.Int("parallel", 0, "engine pool parallelism for Pareto sweeps (0 = GOMAXPROCS, 1 = sequential)")
	compare := flag.String("compare", "", "compare the run's metrics against this baseline JSON (e.g. BENCH_BASELINE.json) and fail on regression")
	threshold := flag.Float64("threshold", 0, "relative quality-metric regression that fails -compare (0 = default 0.20)")
	runtimeThreshold := flag.Float64("runtime-threshold", 0, "relative runtime-metric regression that fails -compare (0 = default 0.50)")
	ignoreRuntime := flag.Bool("ignore-runtime", false, "exclude wall-clock metrics from the -compare gate (CI compares against a baseline from a different machine; quality metrics still gate)")
	withTelemetry := flag.Bool("telemetry", false, "include the run's process-metrics histogram summaries in the -json document")
	flag.Parse()

	if err := run(runConfig{
		fig: *fig, out: *out, workers: *workers, cases: *cases, replicas: *replicas,
		jsonPath: *jsonPath, parallel: *parallel,
		compare: *compare, threshold: *threshold, runtimeThreshold: *runtimeThreshold,
		ignoreRuntime: *ignoreRuntime, telemetry: *withTelemetry,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
}

// runConfig carries the parsed flags.
type runConfig struct {
	fig, out                    string
	workers, cases, replicas    int
	jsonPath                    string
	parallel                    int
	compare                     string
	threshold, runtimeThreshold float64
	ignoreRuntime               bool
	telemetry                   bool
}

func run(cfg runConfig) error {
	fig, out, workers, cases, replicas, jsonPath := cfg.fig, cfg.out, cfg.workers, cfg.cases, cfg.replicas, cfg.jsonPath
	if cases < 1 || cases > 20 {
		return fmt.Errorf("cases must be in [1,20], got %d", cases)
	}
	specs := gen.Suite20()[:cases]

	// Pareto sweeps fan out over a shared engine pool; the suite itself
	// parallelizes per case via -workers as before.
	pool := engine.NewPool(cfg.parallel)
	defer pool.Close()

	// With -json -, stdout belongs to the JSON document alone; the artifact
	// echoes move to stderr so the output stays machine-parseable.
	echo := os.Stdout
	if jsonPath == "-" {
		echo = os.Stderr
	}
	emit := func(name, content string) error {
		fmt.Fprintf(echo, "==== %s ====\n%s\n", name, content)
		if out == "" {
			return nil
		}
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(out, name), []byte(content), 0o644)
	}

	needSuite := fig == "all" || fig == "2" || fig == "5" || fig == "6" || jsonPath != "" || cfg.compare != ""
	var results []harness.CaseResult
	var suiteElapsed time.Duration
	if needSuite {
		start := time.Now()
		var err error
		results, err = harness.RunSuite(specs, workers)
		if err != nil {
			return err
		}
		suiteElapsed = time.Since(start)
		fmt.Fprintf(os.Stderr, "suite of %d cases completed in %v\n", len(specs), suiteElapsed.Round(time.Millisecond))
	}

	// The fleet scenario (multi-tenant admission + rebalance on a Suite20
	// network) feeds both the -fig fleet artifact and the JSON summary.
	var fleetRes *harness.FleetScenarioResult
	if fig == "all" || fig == "fleet" || jsonPath != "" || cfg.compare != "" {
		var err error
		// Case 2 (10 nodes, 60 links) with a heavier-than-default arrival
		// load, so admission control visibly rejects and the admission-rate
		// metric tracks capacity changes across PRs.
		as := gen.DefaultArrivalSpec()
		as.Sessions = 80
		as.MeanInterarrivalMs = 1000
		as.MeanHoldMs = 120000
		as.RateLo, as.RateHi = 4, 16
		fleetRes, err = harness.RunFleetScenario(gen.Suite20()[1], as, 2026)
		if err != nil {
			return err
		}
	}

	// The churn scenario (failure/degradation/drift trace with incremental
	// repair on a populated fleet) feeds -fig churn and the JSON summary.
	var churnRes *harness.ChurnScenarioResult
	if fig == "all" || fig == "churn" || jsonPath != "" || cfg.compare != "" {
		var err error
		// Same case-2 network as the fleet scenario; 16 tenants under the
		// default 60-event mixed trace.
		churnRes, err = harness.RunChurnScenario(gen.Suite20()[1], gen.DefaultChurnSpec(), 16, 2026)
		if err != nil {
			return err
		}
	}

	// The scale scenario (sharded vs unsharded placement on a clustered
	// topology) feeds -fig scale and the JSON summary.
	var scaleRes *harness.ScaleScenarioResult
	if fig == "all" || fig == "scale" || jsonPath != "" || cfg.compare != "" {
		var err error
		scaleRes, err = harness.RunScaleScenario(harness.DefaultScaleSpec())
		if err != nil {
			return err
		}
	}

	// The burst scenario (sequential-vs-batch admission on the same bursty
	// arrival trace) feeds -fig burst and the JSON summary.
	var burstRes *harness.BurstScenarioResult
	if fig == "all" || fig == "burst" || jsonPath != "" || cfg.compare != "" {
		var err error
		// Same case-2 network; the pinned seed is the one the harness tests
		// assert the batch-admission gain on.
		burstRes, err = harness.RunBurstScenario(gen.Suite20()[1], harness.DefaultBurstArrivalSpec(), 2026)
		if err != nil {
			return err
		}
	}

	// The warm scenario (the churn trace replayed warm and cold, end states
	// checked byte-identical) feeds -fig warm and the JSON summary: the
	// warm-hit ratio gates as a deterministic quality metric, the repair
	// latencies as runtime.
	var warmRes *harness.WarmScenarioResult
	if fig == "all" || fig == "warm" || jsonPath != "" || cfg.compare != "" {
		var err error
		// Same case-2 network and tenant count as the churn scenario, so
		// the warm/cold latency split is directly comparable to its row.
		warmRes, err = harness.RunWarmScenario(gen.Suite20()[1], gen.DefaultChurnSpec(), 16, 2026)
		if err != nil {
			return err
		}
	}

	// The crash scenario (WAL crash-injection sweep proving recovery lands
	// on acknowledged states only) feeds -fig crash; a recovery divergence
	// is an error, not a metric.
	var crashRes *harness.CrashScenarioResult
	if fig == "all" || fig == "crash" {
		cs := gen.DefaultChurnSpec()
		cs.Events = 6
		var err error
		crashRes, err = harness.RunCrashScenario(gen.Suite20()[1], cs, 14, 1, 2026)
		if err != nil {
			return err
		}
	}

	var doc *benchfmt.Doc
	if jsonPath != "" || cfg.compare != "" {
		doc = buildBenchDoc(cfg, results, fleetRes, churnRes, scaleRes, burstRes, warmRes, suiteElapsed)
	}
	if jsonPath != "" {
		if err := writeBenchJSON(jsonPath, doc); err != nil {
			return err
		}
	}
	if cfg.compare != "" {
		if err := compareBaseline(cfg.compare, doc, compareOpts(cfg), echo); err != nil {
			return err
		}
	}

	if fig == "all" || fig == "2" {
		if err := emit("fig2.md", harness.Fig2Table(results)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "3" || fig == "4" {
		f34, err := harness.RunFigure34()
		if err != nil {
			return err
		}
		if fig != "4" {
			if err := emit("fig3.dot", f34.Fig3Dot); err != nil {
				return err
			}
			if err := emit("fig3.txt", f34.Fig3Text); err != nil {
				return err
			}
		}
		if fig != "3" {
			if err := emit("fig4.dot", f34.Fig4Dot); err != nil {
				return err
			}
			if err := emit("fig4.txt", f34.Fig4Text); err != nil {
				return err
			}
		}
	}
	if fig == "all" || fig == "5" {
		if err := emit("fig5.csv", harness.SeriesCSV(results, false)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "6" {
		if err := emit("fig6.csv", harness.SeriesCSV(results, true)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "fleet" {
		if err := emit("fleet.md", harness.FleetScenarioTable(fleetRes)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "churn" {
		if err := emit("churn.md", harness.ChurnScenarioTable(churnRes)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "scale" {
		if err := emit("scale.md", harness.ScaleScenarioTable(scaleRes)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "burst" {
		if err := emit("burst.md", harness.BurstScenarioTable(burstRes)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "crash" {
		if err := emit("crash.md", harness.CrashScenarioTable(crashRes)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "warm" {
		if err := emit("warm.md", harness.WarmScenarioTable(warmRes)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "ablation" {
		rows, err := harness.RunReuseAblation(specs, workers)
		if err != nil {
			return err
		}
		if err := emit("ablation.md", harness.ReuseAblationTable(rows)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "mld" {
		rows, err := harness.RunMLDAblation(specs, workers)
		if err != nil {
			return err
		}
		if err := emit("mld.md", harness.MLDAblationTable(rows)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "pareto" {
		// The small case plus a mid-size case give representative fronts.
		for _, idx := range []int{0, 7} {
			if idx >= len(specs) {
				continue
			}
			csv, err := harness.ParetoCSVPool(specs[idx], 10, pool)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pareto case %d: %v\n", specs[idx].ID, err)
				continue
			}
			if err := emit(fmt.Sprintf("pareto_case%d.csv", specs[idx].ID), csv); err != nil {
				return err
			}
		}
	}
	if needSuite {
		if err := emit("runtimes.md", harness.RuntimeTable(results)); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "jitter" {
		csv, err := harness.JitterSweepCSV(specs[0], []float64{0, 0.1, 0.2, 0.4, 0.8}, 400)
		if err != nil {
			return err
		}
		if err := emit("jitter.csv", csv); err != nil {
			return err
		}
	}
	if fig == "replicated" {
		rows, err := harness.RunReplicated(specs, replicas, workers)
		if err != nil {
			return err
		}
		if err := emit("replicated.md", harness.ReplicatedTable(rows)); err != nil {
			return err
		}
	}
	if needSuite {
		if err := emit("summary.txt", harness.Summarize(results).SummaryText()); err != nil {
			return err
		}
	}
	switch fig {
	case "all", "2", "3", "4", "5", "6", "ablation", "mld", "replicated", "pareto", "jitter", "fleet", "churn", "scale", "burst", "crash", "warm":
		return nil
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}
