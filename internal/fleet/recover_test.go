package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// This file is the recovery property test: a WAL-backed fleet driven through
// a seeded deploy/churn/repair/preemption/rebalance workload must recover
// byte-identical — same Stats, List, SLO report, residual network, and
// parked pool — whether replayed purely from the log or from a mid-workload
// snapshot plus the log suffix. Determinism ties the two recovery paths
// together: the same seeded workload on two identical managers produces the
// same live state, so snapshot-at-K + suffix == pure replay == live.

// managerView is the full externally observable state of a manager, each
// piece pre-marshaled so a mismatch reports which surface diverged.
type managerView map[string]string

// viewOf captures Stats, List, SLOReport, and the residual network as
// canonical JSON. The parked pool is compared separately: live managers
// hand parked deployments to their caller (the preempted queue and repair
// reports), recovery surfaces them through Recovered.Parked.
func viewOf(t *testing.T, m *ShardedFleet) managerView {
	t.Helper()
	view := managerView{}
	for name, v := range map[string]any{
		"stats":    m.Stats(),
		"list":     m.List(),
		"slo":      m.SLOReport(),
		"residual": m.Snapshot(),
	} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		view[name] = string(data)
	}
	return view
}

// mustMatch fails with the diverging surface when two views differ.
func mustMatch(t *testing.T, label string, want, got managerView) {
	t.Helper()
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: %s diverged\n live: %s\n recovered: %s", label, name, w, g)
		}
	}
}

// runRecoveryWorkload drives a deterministic mixed workload — single
// deploys across all three SLO classes (guaranteed ones sized to force
// preemptions), a batch admission, releases, a churn trace with repairs,
// a heal followed by requeues of the evicted deployments (RequeueOf set,
// as the reconciler does), late deploys, and a rebalance pass — against m.
// mid, when non-nil, runs between the release phase and the churn phase
// (the snapshot point). The returned slice holds the deployments the repair
// passes evicted and the requeues did not re-admit, which the live manager
// hands to its caller rather than keeping.
func runRecoveryWorkload(t *testing.T, m Manager, net *model.Network, seed uint64, mid func()) []ParkedDeployment {
	t.Helper()
	rng := gen.RNG(seed)
	var admitted []string
	var evicted []ParkedDeployment

	deploy := func(i int, class Class) {
		pl, err := gen.Pipeline(3+rng.IntN(4), gen.DefaultRanges(), rng)
		if err != nil {
			t.Fatal(err)
		}
		src := model.NodeID(rng.IntN(net.N()))
		dst := model.NodeID(rng.IntN(net.N() - 1))
		if dst >= src {
			dst++
		}
		req := Request{
			Tenant:   fmt.Sprintf("t%02d", i),
			Pipeline: pl,
			Src:      src,
			Dst:      dst,
			SLO:      SLO{Class: class},
		}
		if i%2 == 0 {
			req.Objective = model.MaxFrameRate
			req.SLO.MinRateFPS = 1 + 2*rng.Float64()
			if class == ClassGuaranteed {
				// Oversized demand so guaranteed admissions displace
				// best-effort tenants and exercise the preemption records.
				req.SLO.MinRateFPS = 3 + 3*rng.Float64()
			}
		} else {
			req.Objective = model.MinDelay
		}
		d, err := m.Deploy(req)
		if err != nil {
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("deploy %d: %v", i, err)
			}
			return // rejections thin the population and still log counters
		}
		admitted = append(admitted, d.ID)
	}

	classes := []Class{ClassBestEffort, ClassStandard, "", ClassGuaranteed}
	for i := 0; i < 16; i++ {
		deploy(i, classes[i%len(classes)])
	}

	// One batch admission: mixed classes in one WAL epoch.
	var batch []Request
	for i := 0; i < 4; i++ {
		pl, err := gen.Pipeline(3+rng.IntN(3), gen.DefaultRanges(), rng)
		if err != nil {
			t.Fatal(err)
		}
		src := model.NodeID(rng.IntN(net.N()))
		dst := model.NodeID(rng.IntN(net.N() - 1))
		if dst >= src {
			dst++
		}
		batch = append(batch, Request{
			Tenant:    fmt.Sprintf("b%d", i),
			Pipeline:  pl,
			Src:       src,
			Dst:       dst,
			Objective: model.MaxFrameRate,
			SLO:       SLO{MinRateFPS: 1 + rng.Float64(), Class: classes[i%len(classes)]},
		})
	}
	for _, out := range m.DeployBatch(batch) {
		if out.Err == nil {
			admitted = append(admitted, out.Deployment.ID)
		} else if !errors.Is(out.Err, ErrRejected) {
			t.Fatalf("batch deploy %d: %v", out.Index, out.Err)
		}
	}

	// Release every third admitted deployment (some IDs may already be
	// gone to preemption — NotFound is part of the workload, not an error).
	for i := 0; i < len(admitted); i += 3 {
		if err := m.Release(admitted[i]); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("release %s: %v", admitted[i], err)
		}
	}

	if mid != nil {
		mid()
	}

	// Churn trace with per-event repair, like the reconciler drives it.
	cs := gen.DefaultChurnSpec()
	cs.Events = 6
	trace, err := gen.Churn(cs, net, gen.RNG(seed^0x9e3779b97f4a7c15))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range trace {
		evs := []model.ChurnEvent{ev.Event}
		affected := m.Affected(evs)
		if err := m.ApplyChurn(evs); err != nil {
			t.Fatalf("churn event %d (%s): %v", i, ev.Event, err)
		}
		rep := m.Repair(affected)
		evicted = append(evicted, rep.Parked...)
	}
	if err := m.ApplyChurn(gen.Heal(trace)); err != nil {
		t.Fatalf("heal: %v", err)
	}
	kept := evicted[:0]
	for _, p := range evicted {
		req := p.Req
		req.RequeueOf = p.ID
		if _, err := m.Deploy(req); err != nil {
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("requeue %s: %v", p.ID, err)
			}
			kept = append(kept, p)
		}
	}
	evicted = kept

	for i := 16; i < 20; i++ {
		deploy(i, classes[i%len(classes)])
	}
	m.Rebalance(RebalanceOptions{MaxMoves: 3})
	return evicted
}

// newWALManager opens a fresh log in dir, builds a manager over net
// (shards == 0 means New, shards >= 1 NewSharded), logs the install record,
// and wires the WAL in.
func newWALManager(t *testing.T, dir string, net *model.Network, shards int) (*ShardedFleet, *wal.Log) {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir %s recovered state: %+v", dir, rec)
	}
	var m *ShardedFleet
	if shards == 0 {
		m, err = New(net)
	} else {
		m, err = NewSharded(net, shards)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendInstall(l, net, m.Shards()); err != nil {
		t.Fatal(err)
	}
	m.UseWAL(l)
	return m, l
}

// recoverDir reopens dir and rebuilds the manager from whatever snapshot
// and log suffix survive there.
func recoverDir(t *testing.T, dir string) (*Recovered, *wal.Recovery) {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.TruncatedTail {
		t.Fatalf("gracefully closed log recovered with a torn tail")
	}
	r, err := Recover(rec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Manager == nil {
		t.Fatal("recovery produced no manager")
	}
	return r, rec
}

// parkedJSON canonicalizes a parked pool for comparison: ParkedState form,
// sorted by deployment ID, marshaled. Sorting is needed because the live
// pool is assembled from two sources (the preempted queue and the repair
// reports) whose concatenation order differs from WAL record order.
func parkedJSON(t *testing.T, pool []ParkedDeployment) string {
	t.Helper()
	states := ParkedStates(pool)
	sort.Slice(states, func(i, j int) bool { return states[i].ID < states[j].ID })
	data, err := json.Marshal(states)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// mustMatchParked compares a recovered parked pool against the live one and
// checks the recovered manager's own preempted queue is empty (recovery
// routes every parked deployment to Recovered.Parked for the reconciler).
func mustMatchParked(t *testing.T, label, live string, r *Recovered) {
	t.Helper()
	if rem := r.Manager.TakePreempted(); len(rem) != 0 {
		t.Errorf("%s: recovered manager still holds %d preempted deployments", label, len(rem))
	}
	if got := parkedJSON(t, r.Parked); got != live {
		t.Errorf("%s: parked diverged\n live: %s\n recovered: %s", label, live, got)
	}
}

// TestRecoverPropertyReplayEqualsLive is the recovery property test: for a
// spread of seeds and manager shapes, (a) pure log replay reproduces the
// live fleet exactly, (b) an independent run of the same workload that
// snapshots mid-way and recovers from snapshot + log suffix lands on the
// same state, proving compaction loses nothing.
func TestRecoverPropertyReplayEqualsLive(t *testing.T) {
	shapes := []struct {
		name   string
		shards int
	}{
		{"plain", 0},
		{"sharded-k1", 1},
		{"sharded-k3", 3},
	}
	for _, shape := range shapes {
		for _, seed := range []uint64{1, 7, 23} {
			t.Run(fmt.Sprintf("%s/seed%d", shape.name, seed), func(t *testing.T) {
				net, err := gen.Network(10, 60, gen.DefaultRanges(), gen.RNG(seed*41+3))
				if err != nil {
					t.Fatal(err)
				}

				// Run A: no snapshot — recovery is a pure replay.
				dirA := t.TempDir()
				mA, lA := newWALManager(t, dirA, net, shape.shards)
				evictedA := runRecoveryWorkload(t, mA, net, seed, nil)
				live := viewOf(t, mA)
				liveParked := parkedJSON(t, append(evictedA, mA.TakePreempted()...))
				if err := lA.Close(); err != nil {
					t.Fatal(err)
				}
				rA, recA := recoverDir(t, dirA)
				if recA.Snapshot != nil {
					t.Fatal("run A recovered a snapshot that was never written")
				}
				mustMatch(t, "pure replay", live, viewOf(t, rA.Manager))
				mustMatchParked(t, "pure replay", liveParked, rA)

				// Run B: same workload, snapshot mid-way; recovery is the
				// snapshot plus the post-snapshot suffix. Compaction must
				// have pruned the covered prefix, and the recovered state
				// must still equal run A's live state.
				dirB := t.TempDir()
				mB, lB := newWALManager(t, dirB, net, shape.shards)
				evictedB := runRecoveryWorkload(t, mB, net, seed, func() {
					snap := mB.CaptureSnapshot(lB)
					if snap.Seq == 0 {
						t.Fatal("mid-workload snapshot covers no records")
					}
					if err := lB.WriteSnapshot(snap); err != nil {
						t.Fatal(err)
					}
				})
				mustMatch(t, "determinism across runs", live, viewOf(t, mB))
				liveParkedB := parkedJSON(t, append(evictedB, mB.TakePreempted()...))
				if liveParkedB != liveParked {
					t.Fatalf("workload is not deterministic: parked pools differ across runs")
				}
				if err := lB.Close(); err != nil {
					t.Fatal(err)
				}
				rB, recB := recoverDir(t, dirB)
				if recB.Snapshot == nil {
					t.Fatal("run B lost its snapshot")
				}
				if len(recB.Records) == 0 {
					t.Fatal("run B has no replay suffix after the snapshot")
				}
				mustMatch(t, "snapshot+suffix", live, viewOf(t, rB.Manager))
				mustMatchParked(t, "snapshot+suffix", liveParked, rB)
			})
		}
	}
}

// TestRecoverEmptyLogYieldsInstallOnly checks the degenerate path: an
// install record with no traffic recovers an empty manager of the right
// shape.
func TestRecoverEmptyLogYieldsInstallOnly(t *testing.T) {
	net, err := gen.Network(6, 20, gen.DefaultRanges(), gen.RNG(5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, l := newWALManager(t, dir, net, 2)
	if got := len(m.List()); got != 0 {
		t.Fatalf("fresh manager has %d deployments", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, _ := recoverDir(t, dir)
	sh := r.Manager
	if sh.Shards() != 2 {
		t.Fatalf("recovered %d shards, want 2", sh.Shards())
	}
	if got := len(sh.List()); got != 0 {
		t.Fatalf("recovered %d deployments from an empty log", got)
	}
}
