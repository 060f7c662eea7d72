package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// This file is the crash-injection scenario: a seeded
// deploy/churn/preemption/requeue workload runs once against a WAL-less
// reference fleet (capturing the exact state after every operation) and
// once against a WAL-backed fleet, then the log is "crashed" — truncated at
// randomized byte offsets, including mid-record — and recovered. A crash
// that lands on an operation boundary must recover exactly the reference
// state of the last operation whose records fully reached the log; anything
// else means an acknowledged transition was lost or a torn one resurrected.
// On a sharded fleet one operation can append several records (a regional
// rejection and the coordinator's fallback, one epoch per shard of a batch
// or repair); a crash between them must recover a state bounded by the
// operation's two neighbors: nothing the operation did not touch lost,
// nothing fabricated. The scenario runs twice, without and with a
// mid-workload snapshot, so both the pure-replay and the
// snapshot-plus-suffix recovery paths face arbitrary crash points.

// crashTrialBudget caps the crash offsets tried per regime; smaller logs
// are crashed at every byte.
const crashTrialBudget = 64

// crashOp applies one fleet operation and returns the harness-owned parked
// pool after it: the operation may hand deployments over (the preempted
// queue drain, repair evictions) or re-admit some, which the harness owns
// the way the churn reconciler would. On a one-shard fleet an operation
// appends at most one WAL record.
type crashOp func(f *fleet.ShardedFleet, parked []fleet.ParkedDeployment) ([]fleet.ParkedDeployment, error)

// CrashScenarioResult summarizes one crash-injection run.
type CrashScenarioResult struct {
	// Case and Network identify the suite case the workload ran on; Shards
	// is the fleet's region count.
	Case    int    `json:"case"`
	Network string `json:"network"`
	Shards  int    `json:"shards"`
	// Sessions is the tenant-session count; Ops the operation count in the
	// workload (deploys, a batch, releases, churn+repair events, a heal,
	// requeues, a rebalance); Records the WAL records the workload produced.
	Sessions int    `json:"sessions"`
	Ops      int    `json:"ops"`
	Records  uint64 `json:"records"`
	// LogBytes / SuffixBytes are the crashable byte ranges of the
	// no-snapshot and snapshot regimes (the suffix segment is all that
	// survives compaction in the latter).
	LogBytes    int `json:"log_bytes"`
	SuffixBytes int `json:"suffix_bytes"`
	// Trials counts recoveries run; TornTrials the subset whose crash
	// offset landed mid-record (forcing a tail truncation);
	// SnapshotTrials the subset recovered through the snapshot;
	// MidOpTrials the subset that recovered between two records of one
	// operation (sharded fleets only).
	Trials         int `json:"trials"`
	TornTrials     int `json:"torn_trials"`
	SnapshotTrials int `json:"snapshot_trials"`
	MidOpTrials    int `json:"mid_op_trials"`
	// DistinctStates counts how many different reference states the crash
	// points recovered into — evidence the offsets actually swept the
	// workload rather than collapsing onto the final state.
	DistinctStates int `json:"distinct_states"`
	// FinalDeployments / FinalParked describe the uncrashed end state.
	FinalDeployments int `json:"final_deployments"`
	FinalParked      int `json:"final_parked"`
}

// crashState is the full observable fleet state compared across the
// reference run and every recovery.
type crashState struct {
	Stats fleet.Stats        `json:"stats"`
	List  []fleet.Deployment `json:"list"`
	// SLO is the report pre-rendered with %+v: between a churn event and
	// its repair pass a dead placement scores a +Inf delay, which JSON
	// cannot encode but fmt renders deterministically.
	SLO      string            `json:"slo"`
	Residual *model.Network    `json:"residual"`
	Parked   []wal.ParkedState `json:"parked"`
}

// crashStateJSON canonicalizes a fleet plus the caller-owned parked pool.
// The pool is sorted by ID: the reference accumulates it in hand-over
// order while recovery rebuilds it in record order.
func crashStateJSON(f *fleet.ShardedFleet, parked []fleet.ParkedDeployment) (string, error) {
	states := fleet.ParkedStates(parked)
	sort.Slice(states, func(i, j int) bool { return states[i].ID < states[j].ID })
	data, err := json.Marshal(crashState{
		Stats:    f.Stats(),
		List:     f.List(),
		SLO:      fmt.Sprintf("%+v", f.SLOReport()),
		Residual: f.Snapshot(),
		Parked:   states,
	})
	return string(data), err
}

// buildCrashOps pre-generates the deterministic operation list. All random
// inputs are drawn here, never inside an op, so the same list replays
// identically against any number of fleets.
func buildCrashOps(net *model.Network, cs gen.ChurnSpec, sessions int, seed uint64) ([]crashOp, error) {
	rng := gen.RNG(seed)
	var ops []crashOp

	deployOp := func(i int, class fleet.Class) error {
		pl, err := gen.Pipeline(3+rng.IntN(4), gen.DefaultRanges(), rng)
		if err != nil {
			return err
		}
		src := model.NodeID(rng.IntN(net.N()))
		dst := model.NodeID(rng.IntN(net.N() - 1))
		if dst >= src {
			dst++
		}
		req := fleet.Request{
			Tenant:   fmt.Sprintf("t%02d", i),
			Pipeline: pl,
			Src:      src,
			Dst:      dst,
			SLO:      fleet.SLO{Class: class},
		}
		if i%2 == 0 {
			req.Objective = model.MaxFrameRate
			req.SLO.MinRateFPS = 1 + 2*rng.Float64()
			if class == fleet.ClassGuaranteed {
				// Oversized guaranteed demand displaces best-effort
				// tenants, so preemption records hit the log.
				req.SLO.MinRateFPS = 3 + 3*rng.Float64()
			}
		} else {
			req.Objective = model.MinDelay
		}
		ops = append(ops, func(f *fleet.ShardedFleet, parked []fleet.ParkedDeployment) ([]fleet.ParkedDeployment, error) {
			if _, err := f.Deploy(req); err != nil && !errors.Is(err, fleet.ErrRejected) {
				return nil, err
			}
			return append(parked, f.TakePreempted()...), nil
		})
		return nil
	}

	classes := []fleet.Class{fleet.ClassBestEffort, fleet.ClassStandard, "", fleet.ClassGuaranteed}
	for s := 0; s < sessions; s++ {
		if err := deployOp(s, classes[s%len(classes)]); err != nil {
			return nil, err
		}
	}

	// One batch admission (one multi-op record per shard, possibly with
	// admit-then-preempt inside one epoch).
	var batch []fleet.Request
	for i := 0; i < 4; i++ {
		pl, err := gen.Pipeline(3+rng.IntN(3), gen.DefaultRanges(), rng)
		if err != nil {
			return nil, err
		}
		src := model.NodeID(rng.IntN(net.N()))
		dst := model.NodeID(rng.IntN(net.N() - 1))
		if dst >= src {
			dst++
		}
		batch = append(batch, fleet.Request{
			Tenant:    fmt.Sprintf("b%d", i),
			Pipeline:  pl,
			Src:       src,
			Dst:       dst,
			Objective: model.MaxFrameRate,
			SLO:       fleet.SLO{MinRateFPS: 1 + rng.Float64(), Class: classes[i%len(classes)]},
		})
	}
	ops = append(ops, func(f *fleet.ShardedFleet, parked []fleet.ParkedDeployment) ([]fleet.ParkedDeployment, error) {
		for _, out := range f.DeployBatch(batch) {
			if out.Err != nil && !errors.Is(out.Err, fleet.ErrRejected) {
				return nil, out.Err
			}
		}
		return append(parked, f.TakePreempted()...), nil
	})

	// Releases pick by live-list index at run time — identical across runs
	// because the runs are identical up to this point.
	for k := 0; k < sessions/4; k++ {
		k := k
		ops = append(ops, func(f *fleet.ShardedFleet, parked []fleet.ParkedDeployment) ([]fleet.ParkedDeployment, error) {
			live := f.List()
			if len(live) == 0 {
				return parked, nil
			}
			id := live[(k*7)%len(live)].ID
			if err := f.Release(id); err != nil && !errors.Is(err, fleet.ErrNotFound) {
				return nil, err
			}
			return parked, nil
		})
	}

	// Churn events with incremental repair, the way the reconciler drives
	// them; repair evictions are handed to the harness.
	trace, err := gen.Churn(cs, net, gen.RNG(seed^0x9e3779b97f4a7c15))
	if err != nil {
		return nil, err
	}
	for _, ev := range trace {
		evs := []model.ChurnEvent{ev.Event}
		ops = append(ops,
			func(f *fleet.ShardedFleet, parked []fleet.ParkedDeployment) ([]fleet.ParkedDeployment, error) {
				f.Affected(evs) // read-only, mirrors the reconciler's probe
				return parked, f.ApplyChurn(evs)
			},
			func(f *fleet.ShardedFleet, parked []fleet.ParkedDeployment) ([]fleet.ParkedDeployment, error) {
				rep := f.Repair(f.Affected(evs))
				return append(parked, rep.Parked...), nil
			})
	}

	// Heal the trace's outages, then re-admit parked deployments the way
	// the reconciler's requeue loop does — one attempt per op, oldest
	// first, RequeueOf naming the parked entry so recovery drains the pool.
	if heal := gen.Heal(trace); len(heal) > 0 {
		ops = append(ops, func(f *fleet.ShardedFleet, parked []fleet.ParkedDeployment) ([]fleet.ParkedDeployment, error) {
			return parked, f.ApplyChurn(heal)
		})
	}
	for k := 0; k < 3; k++ {
		ops = append(ops, requeueOp)
	}

	// Late guaranteed deploys against the degraded network, then one
	// rebalance pass.
	for s := sessions; s < sessions+3; s++ {
		if err := deployOp(s, fleet.ClassGuaranteed); err != nil {
			return nil, err
		}
	}
	ops = append(ops, func(f *fleet.ShardedFleet, parked []fleet.ParkedDeployment) ([]fleet.ParkedDeployment, error) {
		f.Rebalance(fleet.RebalanceOptions{MaxMoves: 3})
		return parked, nil
	})
	return ops, nil
}

// requeueOp tries to re-admit the oldest parked deployment: admitted, it
// leaves the pool; rejected, it moves to the back.
func requeueOp(f *fleet.ShardedFleet, parked []fleet.ParkedDeployment) ([]fleet.ParkedDeployment, error) {
	if len(parked) == 0 {
		return parked, nil
	}
	p := parked[0]
	rest := append([]fleet.ParkedDeployment(nil), parked[1:]...)
	req := p.Req
	req.RequeueOf = p.ID
	if _, err := f.Deploy(req); err != nil {
		if !errors.Is(err, fleet.ErrRejected) {
			return nil, err
		}
		rest = append(rest, p)
	}
	return append(rest, f.TakePreempted()...), nil
}

// runCrashReference replays ops on a WAL-less fleet, returning the state
// JSON before any op and after each op.
func runCrashReference(net *model.Network, shards int, ops []crashOp) ([]string, error) {
	f, err := fleet.NewSharded(net, shards)
	if err != nil {
		return nil, err
	}
	states := make([]string, 0, len(ops)+1)
	var parked []fleet.ParkedDeployment
	s, err := crashStateJSON(f, parked)
	if err != nil {
		return nil, err
	}
	states = append(states, s)
	for i, op := range ops {
		if parked, err = op(f, parked); err != nil {
			return nil, fmt.Errorf("harness: crash reference op %d: %w", i, err)
		}
		if s, err = crashStateJSON(f, parked); err != nil {
			return nil, err
		}
		states = append(states, s)
	}
	return states, nil
}

// runCrashWAL replays ops on a WAL-backed fleet in dir, recording the log
// sequence acknowledged after every op. snapshotAt >= 0 writes a compacted
// snapshot (with the harness-owned parked pool folded in, the way the
// reconciler's CaptureSnapshot does) after that op index.
func runCrashWAL(dir string, net *model.Network, shards int, ops []crashOp, snapshotAt int) (seqAfter []uint64, finalState string, err error) {
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, "", err
	}
	defer l.Close()
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		return nil, "", fmt.Errorf("harness: crash dir %s is not empty", dir)
	}
	f, err := fleet.NewSharded(net, shards)
	if err != nil {
		return nil, "", err
	}
	if err := fleet.AppendInstall(l, net, f.Shards()); err != nil {
		return nil, "", err
	}
	f.UseWAL(l)

	seqAfter = make([]uint64, 0, len(ops)+1)
	seqAfter = append(seqAfter, l.LastSeq()) // the install record
	var parked []fleet.ParkedDeployment
	for i, op := range ops {
		if parked, err = op(f, parked); err != nil {
			return nil, "", fmt.Errorf("harness: crash WAL op %d: %w", i, err)
		}
		seqAfter = append(seqAfter, l.LastSeq())
		if i == snapshotAt {
			snap := f.CaptureSnapshot(l)
			snap.Parked = append(fleet.ParkedStates(parked), snap.Parked...)
			if err := l.WriteSnapshot(snap); err != nil {
				return nil, "", err
			}
		}
	}
	if finalState, err = crashStateJSON(f, parked); err != nil {
		return nil, "", err
	}
	return seqAfter, finalState, l.Close()
}

// activeSegment returns the path and contents of dir's single log segment.
// Both regimes end with exactly one: rotation only happens at snapshot
// time, and compaction removes the covered segment.
func activeSegment(dir string) (string, []byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, err
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) != 1 {
		return "", nil, fmt.Errorf("harness: crash dir %s has %d segments, want 1", dir, len(segs))
	}
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	return path, data, err
}

// copyDir copies every regular file in src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// crashOffsets picks the byte offsets to crash at: every byte when the
// segment fits the budget, otherwise both endpoints plus a random sample.
func crashOffsets(n int, rng interface{ IntN(int) int }) []int {
	if n+1 <= crashTrialBudget {
		offs := make([]int, 0, n+1)
		for x := 0; x <= n; x++ {
			offs = append(offs, x)
		}
		return offs
	}
	offs := []int{0, n}
	for len(offs) < crashTrialBudget {
		offs = append(offs, rng.IntN(n+1))
	}
	return offs
}

// crashAndRecover truncates the regime dir's segment at offset, recovers,
// and checks the result: exactly the reference state of the last fully
// logged operation when the crash fell on an operation boundary, a state
// bounded by the torn operation's neighbors otherwise. It updates the
// result tallies and the distinct-state set.
func crashAndRecover(dir string, offset int, states []string, seqAfter []uint64, res *CrashScenarioResult, seen map[int]bool) error {
	tmp, err := os.MkdirTemp("", "elpc-crash-trial-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := copyDir(dir, tmp); err != nil {
		return err
	}
	segPath, data, err := activeSegment(tmp)
	if err != nil {
		return err
	}
	if offset > len(data) {
		return fmt.Errorf("harness: crash offset %d beyond segment of %d bytes", offset, len(data))
	}
	if err := os.WriteFile(segPath, data[:offset], 0o644); err != nil {
		return err
	}

	l, rec, err := wal.Open(tmp, wal.Options{})
	if err != nil {
		return fmt.Errorf("harness: recover after crash at offset %d: %w", offset, err)
	}
	defer l.Close()
	res.Trials++
	if rec.TruncatedTail {
		res.TornTrials++
	}
	if rec.Snapshot != nil {
		res.SnapshotTrials++
	}

	lastSeq := l.LastSeq()
	if lastSeq == 0 {
		// The crash tore even the install record: recovery must produce no
		// manager rather than a fabricated one.
		r, err := fleet.Recover(rec)
		if err != nil {
			return err
		}
		if r.Manager != nil {
			return fmt.Errorf("harness: crash at offset %d recovered a manager from an empty log", offset)
		}
		seen[-1] = true
		return nil
	}

	r, err := fleet.Recover(rec)
	if err != nil {
		return fmt.Errorf("harness: rebuild after crash at offset %d: %w", offset, err)
	}
	if r.Manager == nil {
		return fmt.Errorf("harness: crash at offset %d lost the install record (seq %d)", offset, lastSeq)
	}
	got, err := crashStateJSON(r.Manager, r.Parked)
	if err != nil {
		return err
	}

	// idx is the last operation whose records all reached the log.
	idx := -1
	for i := len(seqAfter) - 1; i >= 0; i-- {
		if seqAfter[i] <= lastSeq {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("harness: crash at offset %d recovered to seq %d, before the install", offset, lastSeq)
	}
	if seqAfter[idx] != lastSeq {
		// The crash fell between two records of operation idx+1.
		res.MidOpTrials++
		if err := boundedBy(got, states[idx], states[idx+1]); err != nil {
			return fmt.Errorf("harness: crash at offset %d (inside op %d, seq %d): %w", offset, idx+1, lastSeq, err)
		}
		return nil
	}
	if got != states[idx] {
		return fmt.Errorf("harness: crash at offset %d (op %d, seq %d): recovered state diverged from the acknowledged state\n reference: %s\n recovered: %s",
			offset, idx, lastSeq, states[idx], got)
	}
	seen[idx] = true
	return nil
}

// boundedBy checks a state recovered from inside one operation against the
// reference states before and after it: every deployment and parked entry
// it holds appears, byte for byte, in one of the two (nothing torn or
// fabricated), and every one both hold is present (nothing the operation
// left alone was lost).
func boundedBy(got, before, after string) error {
	var g, b, a crashState
	for _, p := range []struct {
		s  string
		st *crashState
	}{{got, &g}, {before, &b}, {after, &a}} {
		if err := json.Unmarshal([]byte(p.s), p.st); err != nil {
			return err
		}
	}
	check := func(what string, got, before, after []string) error {
		inBefore, inAfter := setOf(before), setOf(after)
		inGot := setOf(got)
		for _, x := range got {
			if !inBefore[x] && !inAfter[x] {
				return fmt.Errorf("recovered %s in neither neighbor state: %s", what, x)
			}
		}
		for _, x := range before {
			if inAfter[x] && !inGot[x] {
				return fmt.Errorf("lost %s the operation did not touch: %s", what, x)
			}
		}
		return nil
	}
	if err := check("deployment", marshalEach(g.List), marshalEach(b.List), marshalEach(a.List)); err != nil {
		return err
	}
	return check("parked entry", marshalEach(g.Parked), marshalEach(b.Parked), marshalEach(a.Parked))
}

// marshalEach renders every element as its canonical JSON.
func marshalEach[T any](xs []T) []string {
	out := make([]string, 0, len(xs))
	for _, x := range xs {
		data, _ := json.Marshal(x) // plain data structs always marshal
		out = append(out, string(data))
	}
	return out
}

// setOf indexes a string list.
func setOf(xs []string) map[string]bool {
	set := make(map[string]bool, len(xs))
	for _, x := range xs {
		set[x] = true
	}
	return set
}

// RunCrashScenario runs the crash-injection scenario on one suite case
// against a fleet of the given shard count: a seeded
// deploy/churn/preemption/requeue workload, crashed at randomized log
// offsets and recovered, in both the pure-replay and snapshot-plus-suffix
// regimes. A non-nil error means a recovery diverged from an acknowledged
// state — the durability contract was violated.
func RunCrashScenario(spec gen.CaseSpec, cs gen.ChurnSpec, sessions, shards int, seed uint64) (*CrashScenarioResult, error) {
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		return nil, err
	}
	ops, err := buildCrashOps(net, cs, sessions, seed)
	if err != nil {
		return nil, err
	}
	states, err := runCrashReference(net, shards, ops)
	if err != nil {
		return nil, err
	}

	res := &CrashScenarioResult{
		Case:     spec.ID,
		Network:  fmt.Sprintf("n%d l%d", spec.Nodes, spec.Links),
		Shards:   max(shards, 1),
		Sessions: sessions,
		Ops:      len(ops),
	}
	seen := map[int]bool{}
	rng := gen.RNG(seed ^ 0xc2b2ae3d27d4eb4f)

	// Regime 1: no snapshot — every crash point recovers by pure replay.
	// Regime 2: snapshot mid-workload — crash points sweep the suffix
	// segment, recovering through the snapshot plus the surviving records.
	for _, snapshotAt := range []int{-1, len(ops) / 2} {
		dir, err := os.MkdirTemp("", "elpc-crash-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		seqAfter, finalState, err := runCrashWAL(dir, net, shards, ops, snapshotAt)
		if err != nil {
			return nil, err
		}
		if finalState != states[len(ops)] {
			return nil, fmt.Errorf("harness: WAL-backed run diverged from the reference before any crash")
		}
		_, seg, err := activeSegment(dir)
		if err != nil {
			return nil, err
		}
		if snapshotAt < 0 {
			res.Records = seqAfter[len(seqAfter)-1]
			res.LogBytes = len(seg)
		} else {
			res.SuffixBytes = len(seg)
		}
		for _, off := range crashOffsets(len(seg), rng) {
			if err := crashAndRecover(dir, off, states, seqAfter, res, seen); err != nil {
				return nil, err
			}
		}
	}

	res.DistinctStates = len(seen)
	var final crashState
	if err := json.Unmarshal([]byte(states[len(ops)]), &final); err != nil {
		return nil, err
	}
	res.FinalDeployments = final.Stats.Deployments
	res.FinalParked = len(final.Parked)
	return res, nil
}

// CrashScenarioTable renders the scenario as a small Markdown block for
// the pipebench artifacts.
func CrashScenarioTable(r *CrashScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Crash-recovery scenario (case %d, %s, %d-shard fleet)\n\n", r.Case, r.Network, r.Shards)
	fmt.Fprintf(&b, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| sessions | %d |\n", r.Sessions)
	fmt.Fprintf(&b, "| operations | %d |\n", r.Ops)
	fmt.Fprintf(&b, "| WAL records | %d |\n", r.Records)
	fmt.Fprintf(&b, "| log bytes (pure replay) | %d |\n", r.LogBytes)
	fmt.Fprintf(&b, "| suffix bytes (post-snapshot) | %d |\n", r.SuffixBytes)
	fmt.Fprintf(&b, "| crash points recovered | %d |\n", r.Trials)
	fmt.Fprintf(&b, "| torn-tail crashes | %d |\n", r.TornTrials)
	fmt.Fprintf(&b, "| snapshot-path recoveries | %d |\n", r.SnapshotTrials)
	fmt.Fprintf(&b, "| mid-operation recoveries | %d |\n", r.MidOpTrials)
	fmt.Fprintf(&b, "| distinct acknowledged states hit | %d |\n", r.DistinctStates)
	fmt.Fprintf(&b, "| final deployments | %d |\n", r.FinalDeployments)
	fmt.Fprintf(&b, "| final parked | %d |\n", r.FinalParked)
	fmt.Fprintf(&b, "| acknowledged-state losses | 0 |\n")
	return b.String()
}
