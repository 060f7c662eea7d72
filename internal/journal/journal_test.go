package journal

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"elpc/internal/model"
	"elpc/internal/wal"
)

// note builds a one-op record of the given kind concerning one deployment.
func note(kind wal.Kind, dep string) *wal.Record {
	return &wal.Record{Ops: []wal.Op{{Kind: kind, ID: dep}}}
}

// TestAppendOrdering checks sequence numbers are dense, monotonic, and the
// retained ring serves them oldest first.
func TestAppendOrdering(t *testing.T) {
	j := New(16)
	for i := 0; i < 10; i++ {
		j.Append(note(wal.DeployAdmitted, fmt.Sprintf("d-%d", i)), nil)
		if last := j.Stats().LastSeq; last != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d, want %d", i, last, i+1)
		}
	}
	evs := j.Since(0, 0)
	if len(evs) != 10 {
		t.Fatalf("retained %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if i > 0 && evs[i].TimeMs < evs[i-1].TimeMs {
			t.Fatalf("event %d time %.3f precedes event %d time %.3f", i, evs[i].TimeMs, i-1, evs[i-1].TimeMs)
		}
	}
	st := j.Stats()
	if st.Depth != 10 || st.LastSeq != 10 || st.Dropped != 0 || st.Capacity != 16 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBoundedDrop fills the ring past capacity and checks FIFO eviction:
// the oldest events disappear, numbering never skips, and the drop counter
// accounts for every eviction.
func TestBoundedDrop(t *testing.T) {
	j := New(8)
	for i := 0; i < 20; i++ {
		j.Append(&wal.Record{Ops: []wal.Op{{Kind: wal.ReleaseDone, Remove: "d-000001"}}}, nil)
	}
	st := j.Stats()
	if st.Depth != 8 {
		t.Fatalf("depth %d, want 8", st.Depth)
	}
	if st.Dropped != 12 {
		t.Fatalf("dropped %d, want 12", st.Dropped)
	}
	if st.LastSeq != 20 {
		t.Fatalf("last seq %d, want 20", st.LastSeq)
	}
	evs := j.Since(0, 0)
	if len(evs) != 8 || evs[0].Seq != 13 || evs[7].Seq != 20 {
		t.Fatalf("retained window [%d..%d] over %d events, want [13..20]", evs[0].Seq, evs[len(evs)-1].Seq, len(evs))
	}
	// The per-deployment index must have been pruned along with the ring.
	tl := j.Timeline("d-000001")
	if len(tl) != 8 || tl[0].Seq != 13 {
		t.Fatalf("timeline has %d events starting at %d, want 8 starting at 13", len(tl), tl[0].Seq)
	}
}

// TestSinceAndTail exercises incremental tailing and bounded tails; one
// churn op with twelve events projects to twelve churn_applied events.
func TestSinceAndTail(t *testing.T) {
	j := New(32)
	churn := make([]model.ChurnEvent, 12)
	for i := range churn {
		churn[i] = model.ChurnEvent{Kind: model.NodeDown, Node: model.NodeID(i)}
	}
	j.Append(&wal.Record{Ops: []wal.Op{{Kind: wal.ChurnApplied, Churn: churn}}}, nil)
	if evs := j.Since(8, 0); len(evs) != 4 || evs[0].Seq != 9 {
		t.Fatalf("Since(8) = %d events from %d", len(evs), evs[0].Seq)
	}
	if evs := j.Since(8, 2); len(evs) != 2 || evs[1].Seq != 10 {
		t.Fatalf("Since(8, limit 2) = %d events ending at %d", len(evs), evs[len(evs)-1].Seq)
	}
	if evs := j.Tail(3); len(evs) != 3 || evs[0].Seq != 10 || evs[2].Seq != 12 {
		t.Fatalf("Tail(3) = %+v", evs)
	}
	if evs := j.Tail(0); len(evs) != 12 {
		t.Fatalf("Tail(0) = %d events, want 12", len(evs))
	}
}

// TestSinceCursors checks the cursor bounds of Since, including a cursor at
// the top of the uint64 range, where seq+1 wraps to 0.
func TestSinceCursors(t *testing.T) {
	j := New(8)
	for i := 0; i < 5; i++ {
		j.Append(note(wal.RepairKept, "d-1"), nil)
	}
	const last = 5
	for _, tc := range []struct {
		since uint64
		want  int
	}{
		{0, 5},
		{last - 1, 1},
		{last, 0},
		{last + 1, 0},
		{math.MaxUint64, 0},
	} {
		if evs := j.Since(tc.since, 0); len(evs) != tc.want {
			t.Errorf("Since(%d) returned %d events, want %d", tc.since, len(evs), tc.want)
		}
	}
}

// TestTimelineIndex checks the secondary index returns exactly one
// deployment's events, in order, across interleaved appends.
func TestTimelineIndex(t *testing.T) {
	j := New(64)
	for i := 0; i < 30; i++ {
		j.Append(note(wal.RepairKept, fmt.Sprintf("d-%d", i%3)), nil)
	}
	tl := j.Timeline("d-1")
	if len(tl) != 10 {
		t.Fatalf("timeline has %d events, want 10", len(tl))
	}
	for i, ev := range tl {
		if ev.Deployment != "d-1" {
			t.Fatalf("timeline event %d concerns %q", i, ev.Deployment)
		}
		if i > 0 && ev.Seq <= tl[i-1].Seq {
			t.Fatalf("timeline out of order at %d: %d after %d", i, ev.Seq, tl[i-1].Seq)
		}
	}
	if tl := j.Timeline("no-such"); len(tl) != 0 {
		t.Fatalf("unknown deployment has %d events", len(tl))
	}
}

// TestFilter checks kind filtering and its limit, and that a churn_batch
// event carries its op's summary as the payload.
func TestFilter(t *testing.T) {
	j := New(32)
	for i := 0; i < 6; i++ {
		j.Append(&wal.Record{Scope: wal.ScopeChurn, Ops: []wal.Op{{Kind: wal.ChurnBatch, Summary: &wal.ChurnSummary{Seq: i}}}}, nil)
		j.Append(note(wal.DeployAdmitted, ""), nil)
	}
	evs := j.Filter(wal.ChurnBatch, 0)
	if len(evs) != 6 {
		t.Fatalf("filter returned %d events, want 6", len(evs))
	}
	evs = j.Filter(wal.ChurnBatch, 2)
	if len(evs) != 2 || evs[0].Payload.(wal.ChurnSummary).Seq != 4 {
		t.Fatalf("limited filter = %+v", evs)
	}
}

// TestProjection pins how each kind of op renders on the wire: actor and
// shard from the scope and kind, identity and detail from the payload, the
// requeue event after a requeue admission, and one event per churn event.
func TestProjection(t *testing.T) {
	j := New(64)
	parked := &wal.ParkedState{ID: "s1-d-000002", Tenant: "be", Reason: "preempted by guaranteed deploy s1-d-000003"}
	j.Append(&wal.Record{Install: &wal.InstallState{}, Ops: []wal.Op{{Kind: wal.ShardReconfig, Detail: "installed"}}}, nil)
	j.Append(&wal.Record{Scope: "s1", Ops: []wal.Op{
		{Kind: wal.DeployAdmitted, Deploy: &wal.DeploymentState{ID: "s1-d-000003", Tenant: "gold", Mapping: "m", DelayMs: 2, RateFPS: 3, ReservedFPS: 4, RequeueOf: "s1-d-000001"}},
		{Kind: wal.DeployPreempted, Remove: parked.ID, Park: parked},
		{Kind: wal.ReleaseDone, Remove: "s1-d-000009", Tenant: "old"},
	}}, nil)
	j.Append(&wal.Record{Scope: wal.ScopeCross, Ops: []wal.Op{
		{Kind: wal.TwoPhaseCommit, ID: "x-d-000001", Tenant: "far", Detail: "round 1/2 committed"},
	}}, nil)
	j.Append(&wal.Record{Ops: []wal.Op{
		{Kind: wal.RepairKept, ID: "d-000001", Tenant: "cam", Mapping: "k", DelayMs: 5, RateFPS: 6},
		{Kind: wal.ChurnApplied, Churn: []model.ChurnEvent{{Kind: model.NodeDown, Node: 1}, {Kind: model.NodeUp, Node: 2}}},
	}}, nil)

	want := []Event{
		{Kind: wal.ShardReconfig, Actor: ActorService, Detail: "installed"},
		{Kind: wal.DeployAdmitted, Actor: ActorFleet, Shard: "s1", Deployment: "s1-d-000003", Tenant: "gold", Detail: "reserved 4.000 fps", Mapping: "m", DelayMs: 2, RateFPS: 3},
		{Kind: wal.Requeued, Actor: ActorChurn, Deployment: "s1-d-000003", Tenant: "gold", Detail: "re-admitted after parking as s1-d-000001"},
		{Kind: wal.DeployPreempted, Actor: ActorFleet, Shard: "s1", Deployment: "s1-d-000002", Tenant: "be", Detail: parked.Reason},
		{Kind: wal.ReleaseDone, Actor: ActorFleet, Shard: "s1", Deployment: "s1-d-000009", Tenant: "old"},
		{Kind: wal.TwoPhaseCommit, Actor: ActorCoordinator, Shard: "x", Deployment: "x-d-000001", Tenant: "far", Detail: "round 1/2 committed"},
		{Kind: wal.RepairKept, Actor: ActorFleet, Shard: "main", Deployment: "d-000001", Tenant: "cam", Mapping: "k", DelayMs: 5, RateFPS: 6},
		{Kind: wal.ChurnApplied, Actor: ActorChurn, Detail: "node_down v1"},
		{Kind: wal.ChurnApplied, Actor: ActorChurn, Detail: "node_up v2"},
	}
	got := j.Since(0, 0)
	if len(got) != len(want) {
		t.Fatalf("projected %d events, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		want[i].Seq, want[i].TimeMs = got[i].Seq, got[i].TimeMs
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if tl := j.Timeline("s1-d-000003"); len(tl) != 2 || tl[1].Kind != wal.Requeued {
		t.Errorf("requeued timeline = %+v, want admission then requeued", tl)
	}
}

// TestNilJournal checks every method is a safe no-op on nil, and that Append
// still hands the record to the log.
func TestNilJournal(t *testing.T) {
	var j *Journal
	if lsn := j.Append(note(wal.DeployAdmitted, "d-1"), nil); lsn != 0 {
		t.Fatalf("nil Append returned %d", lsn)
	}
	l, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if lsn := j.Append(note(wal.DeployAdmitted, "d-1"), l); lsn != 1 || l.LastSeq() != 1 {
		t.Fatalf("nil Append with a log returned lsn %d, log at %d", lsn, l.LastSeq())
	}
	if evs := j.Since(0, 0); evs != nil {
		t.Fatal("nil Since returned events")
	}
	if evs := j.Tail(4); evs != nil {
		t.Fatal("nil Tail returned events")
	}
	if evs := j.Timeline("d-1"); evs != nil {
		t.Fatal("nil Timeline returned events")
	}
	if evs := j.Filter(wal.ChurnBatch, 0); evs != nil {
		t.Fatal("nil Filter returned events")
	}
	if st := j.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
}

// TestAppendLogOrder appends records from many goroutines into a journal
// and a log at once (run with -race) and checks the journal lists exactly
// the projection of the log's records, in the log's order.
func TestAppendLogOrder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := New(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rec := note(wal.RepairKept, fmt.Sprintf("s%d-d-%06d", w, i))
				rec.Scope = fmt.Sprintf("s%d", w)
				if err := l.Commit(j.Append(rec, l)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replay := New(1024)
	for i := range rec.Records {
		replay.Append(&rec.Records[i], nil)
	}
	got, want := j.Since(0, 0), replay.Since(0, 0)
	if len(got) != 320 || len(got) != len(want) {
		t.Fatalf("journal has %d events, log projects to %d, want 320", len(got), len(want))
	}
	for i := range got {
		got[i].TimeMs, want[i].TimeMs = 0, 0
		if got[i] != want[i] {
			t.Fatalf("event %d: journal %+v, log %+v", i, got[i], want[i])
		}
	}
}

// TestConcurrentAppend hammers the ring from many goroutines (run with
// -race) and checks the final accounting is exact.
func TestConcurrentAppend(t *testing.T) {
	j := New(128)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dep := fmt.Sprintf("d-%d", w)
			for i := 0; i < perWriter; i++ {
				j.Append(note(wal.DeployAdmitted, dep), nil)
				j.Timeline(dep)
				j.Since(uint64(i), 16)
			}
		}(w)
	}
	wg.Wait()
	st := j.Stats()
	if st.LastSeq != writers*perWriter {
		t.Fatalf("last seq %d, want %d", st.LastSeq, writers*perWriter)
	}
	if st.Depth != 128 {
		t.Fatalf("depth %d, want capacity 128", st.Depth)
	}
	if st.Dropped != writers*perWriter-128 {
		t.Fatalf("dropped %d, want %d", st.Dropped, writers*perWriter-128)
	}
	// Retained events must be dense and ordered.
	evs := j.Since(0, 0)
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("gap in retained window: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}
