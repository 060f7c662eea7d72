package service

import (
	"fmt"
	"log/slog"
	"time"

	"elpc/internal/fleet"
	"elpc/internal/journal"
	"elpc/internal/wal"
)

// snapshotPollInterval paces the background snapshot loop's check of the
// append counter. Snapshots are triggered by record count (SnapshotEvery),
// not by time; the poll just bounds how stale the check can be.
const snapshotPollInterval = time.Second

// NewDurableServer builds a Server whose control plane persists to
// opt.DataDir: on boot it recovers the fleet manager, the reconciler's
// parked pool, and every counter from the newest valid snapshot plus the
// write-ahead log suffix, then resumes logging and background snapshotting.
// With an empty DataDir it is NewServer (in-memory control plane, nil
// error), so callers can thread the option through unconditionally.
func NewDurableServer(opt Options) (*Server, error) {
	s := NewServer(opt)
	o := s.solver.opt // normalized
	if o.DataDir == "" {
		return s, nil
	}
	l, rec, err := wal.Open(o.DataDir, wal.Options{
		Sync:           o.WALSync,
		SnapshotRetain: o.SnapshotRetain,
	})
	if err != nil {
		return nil, fmt.Errorf("service: opening data dir: %w", err)
	}
	recovered, err := fleet.Recover(rec)
	if err != nil {
		_ = l.Close()
		return nil, fmt.Errorf("service: recovering fleet state: %w", err)
	}
	if recovered.Manager != nil {
		s.fleet.adopt(recovered, s.journal, l)
		slog.Info("fleet state recovered",
			"dir", o.DataDir,
			"snapshot_seq", l.SnapshotSeq(),
			"replayed_records", len(rec.Records),
			"truncated_tail_bytes", rec.TruncatedTail,
			"deployments", recovered.Manager.Stats().Deployments,
			"parked", len(recovered.Parked))
	}
	s.fleet.wal = l
	s.wal = l
	s.startSnapshotLoop()
	return s, nil
}

// adopt installs a recovered manager and its reconciler state, replacing
// nothing (it only runs on a fresh server, before any traffic).
func (s *fleetState) adopt(rec *fleet.Recovered, jr *journal.Journal, l *wal.Log) {
	r := attach(rec.Manager, jr, l)
	r.Restore(rec.Parked, rec.Churn)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f, s.rec = rec.Manager, r
	r.Start()
}

// startSnapshotLoop launches the background compaction goroutine: whenever
// SnapshotEvery records have accumulated past the last snapshot, it captures
// a consistent snapshot and rewrites the retention window.
func (s *Server) startSnapshotLoop() {
	s.stopSnap = make(chan struct{})
	s.snapDone = make(chan struct{})
	go func() {
		defer close(s.snapDone)
		t := time.NewTicker(snapshotPollInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stopSnap:
				return
			case <-t.C:
				s.maybeSnapshot(false)
			}
		}
	}()
}

// maybeSnapshot writes a compacted snapshot when enough records have
// accumulated since the last one (or when forced and anything at all has,
// as on shutdown — a final snapshot makes the next boot's replay trivial).
func (s *Server) maybeSnapshot(force bool) {
	l := s.wal
	if l == nil {
		return
	}
	pending := l.LastSeq() - l.SnapshotSeq()
	if pending == 0 || (!force && pending < uint64(s.solver.opt.SnapshotEvery)) {
		return
	}
	s.fleet.mu.RLock()
	rec := s.fleet.rec
	s.fleet.mu.RUnlock()
	if rec == nil {
		return
	}
	snap := rec.CaptureSnapshot(l)
	if err := l.WriteSnapshot(snap); err != nil {
		slog.Error("snapshot failed", "seq", snap.Seq, "err", err)
		return
	}
	slog.Info("snapshot written", "seq", snap.Seq, "dir", l.Dir())
}
