package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// rec builds a minimal distinguishable record for framing tests.
func rec(kind Kind, scope string) *Record {
	return &Record{Scope: scope, Ops: []Op{{Kind: kind, Remove: string(kind)}}}
}

// appendN appends and commits n records, returning the last lsn.
func appendN(t *testing.T, l *Log, n int) uint64 {
	t.Helper()
	var lsn uint64
	for i := 0; i < n; i++ {
		lsn = l.Append(rec(ReleaseDone, ""))
		if lsn == 0 {
			t.Fatalf("append %d returned 0 on an open log", i)
		}
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatalf("commit %d: %v", lsn, err)
	}
	return lsn
}

func TestAppendCommitReopen(t *testing.T) {
	dir := t.TempDir()
	l, rec0, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec0.Snapshot != nil || len(rec0.Records) != 0 || rec0.TruncatedTail {
		t.Fatalf("fresh dir recovered non-empty state: %+v", rec0)
	}
	appendN(t, l, 10)
	if got := l.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec1.Records) != 10 || rec1.TruncatedTail {
		t.Fatalf("reopen recovered %d records (torn=%v), want 10 clean", len(rec1.Records), rec1.TruncatedTail)
	}
	for i, r := range rec1.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	// Appends continue after the recovered tail.
	if lsn := l2.Append(rec(DeployAdmitted, "")); lsn != 11 {
		t.Fatalf("post-recovery append got seq %d, want 11", lsn)
	}
}

func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the clean prefix boundaries of each whole record.
	recs, _, err := DecodeFrames(full)
	if err != nil || len(recs) != 5 {
		t.Fatalf("segment decodes to %d records, err %v", len(recs), err)
	}

	for cut := 0; cut <= len(full); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec2, err := Open(sub, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want, clean, _ := DecodeFrames(full[:cut])
		if len(rec2.Records) != len(want) {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec2.Records), len(want))
		}
		if (clean != cut) != rec2.TruncatedTail {
			t.Fatalf("cut %d: TruncatedTail=%v with clean=%d", cut, rec2.TruncatedTail, clean)
		}
		// The torn bytes must be physically gone so a later append cannot
		// create a mid-frame collision.
		data, err := os.ReadFile(filepath.Join(sub, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, full[:clean]) {
			t.Fatalf("cut %d: segment not truncated to clean prefix (%d bytes, want %d)", cut, len(data), clean)
		}
		l2.Close()
	}
}

func TestCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the third record: replay must stop cleanly
	// after record 2 and truncate the rest.
	recs, _, _ := DecodeFrames(data)
	_ = recs
	var off int
	for i := 0; i < 2; i++ {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += frameHeader + n
	}
	data[off+frameHeader] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec2.Records) != 2 || !rec2.TruncatedTail {
		t.Fatalf("recovered %d records (torn=%v), want 2 with torn tail", len(rec2.Records), rec2.TruncatedTail)
	}
}

func TestSnapshotCompactionAndRetention(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SnapshotRetain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for snapRound := 1; snapRound <= 3; snapRound++ {
		appendN(t, l, 4)
		snap := &Snapshot{Seq: l.LastSeq(), Install: &InstallState{}}
		if err := l.WriteSnapshot(snap); err != nil {
			t.Fatalf("snapshot %d: %v", snapRound, err)
		}
	}
	appendN(t, l, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, segs int
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps++
		}
		if _, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs++
		}
	}
	if snaps != 2 {
		t.Fatalf("retained %d snapshots, want 2", snaps)
	}
	if segs > 2 {
		t.Fatalf("retained %d segments after compaction, want <= 2", segs)
	}

	l2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec2.Snapshot == nil || rec2.Snapshot.Seq != 12 {
		t.Fatalf("recovered snapshot %+v, want seq 12", rec2.Snapshot)
	}
	if len(rec2.Records) != 2 {
		t.Fatalf("replay suffix has %d records, want 2", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(13+i) {
			t.Fatalf("suffix record %d has seq %d", i, r.Seq)
		}
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SnapshotRetain: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2)
	if err := l.WriteSnapshot(&Snapshot{Seq: 2, Install: &InstallState{}}); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2)
	if err := l.WriteSnapshot(&Snapshot{Seq: 4, Install: &InstallState{}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot's payload: recovery must fall back to the
	// older one and replay records 3..4 from the (still retained) segments.
	newest := filepath.Join(dir, snapName(4))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec2.Snapshot == nil || rec2.Snapshot.Seq != 2 {
		t.Fatalf("recovered snapshot %+v, want fallback to seq 2", rec2.Snapshot)
	}
	if len(rec2.Records) != 2 {
		t.Fatalf("replay suffix has %d records, want 2", len(rec2.Records))
	}
}

func TestClosedLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if lsn := l.Append(rec(DeployAdmitted, "")); lsn != 0 {
		t.Fatalf("append on closed log returned %d, want 0", lsn)
	}
	if err := l.Commit(0); err != ErrClosed {
		t.Fatalf("commit(0) = %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("sync on closed log = %v, want ErrClosed", err)
	}
}

func TestSyncModeCommitDurable(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	lsn := l.Append(rec(DeployAdmitted, ""))
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	// In Sync mode the record must be on disk the moment Commit returns —
	// readable by a second decoder without closing the log.
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := DecodeFrames(data)
	if err != nil || len(recs) != 1 {
		t.Fatalf("decoded %d records, err %v; want 1 durable record", len(recs), err)
	}
	l.Close()
}
