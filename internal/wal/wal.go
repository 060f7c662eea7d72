package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"elpc/internal/telemetry"
)

// Log defaults.
const (
	// DefaultFlushInterval bounds how long a committed-but-unsynced record
	// can sit in the OS page cache before the background fsync.
	DefaultFlushInterval = 5 * time.Millisecond
	// DefaultSnapshotRetain keeps the newest snapshot plus one fallback
	// (Options.SnapshotRetain zero).
	DefaultSnapshotRetain = 2
)

// WAL observability: append volume, fsync batching, and the two recovery
// outcomes (records replayed, torn tails truncated). Registered in the
// process-global registry so the families are present in /metrics even at
// zero, which the metricsgate checklist relies on.
var (
	appendsTotal = telemetry.Default().Counter(
		"elpc_wal_appends_total", "records appended to the write-ahead log")
	fsyncsTotal = telemetry.Default().Counter(
		"elpc_wal_fsyncs_total", "fsync batches issued by the write-ahead log")
	replayedTotal = telemetry.Default().Counter(
		"elpc_wal_replayed_events_total", "records replayed from the log during recovery")
	truncatedTotal = telemetry.Default().Counter(
		"elpc_wal_truncated_tail_total", "torn log tails truncated during recovery")
)

// Options tunes a Log opened with Open.
type Options struct {
	// Sync makes Commit wait for fsync instead of just the buffered write:
	// group commit still batches concurrent committers behind one fsync,
	// but every acknowledgment is then durable against power loss, not just
	// process crash. Costs roughly one disk-sync latency per commit batch.
	Sync bool
	// SnapshotRetain keeps this many newest snapshots (zero selects
	// DefaultSnapshotRetain; negative keeps all).
	SnapshotRetain int
}

// Recovery is what Open reconstructed from disk: the newest valid snapshot
// (nil when none) and the log records after it, in order.
type Recovery struct {
	// Snapshot is the newest decodable snapshot, already CRC-verified.
	Snapshot *Snapshot
	// Records are the replay suffix: every record with Seq greater than the
	// snapshot's (all records when Snapshot is nil), ending at the last
	// record before the torn tail, if any.
	Records []Record
	// TruncatedTail reports that a torn or corrupt tail was found and
	// physically truncated from the segment file.
	TruncatedTail bool
}

// ErrClosed is returned by Append/Commit/WriteSnapshot on a closed Log.
var ErrClosed = fmt.Errorf("wal: log closed")

// Log is the append-only, group-committed write-ahead log over a data
// directory. Appends buffer under the log's lock; Commit waits until the
// record has reached the log file via write(2) (and, in Sync mode, fsync),
// with one leader writing each accumulated batch on behalf of all waiters.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	buf     []byte // encoded frames not yet written to f
	nextSeq uint64 // next record sequence number to assign
	bufSeq  uint64 // highest sequence number in buf
	written uint64 // highest sequence number written to f
	synced  uint64 // highest sequence number fsynced
	dirty   bool   // f has writes not yet fsynced
	writing bool   // a leader is inside the write syscall
	snapSeq uint64 // sequence number of the newest snapshot on disk
	closed  bool

	stopFlush chan struct{}
	flushDone chan struct{}
}

// Open opens (creating if needed) the write-ahead log in dir, recovers the
// newest valid snapshot and the replay suffix, truncates any torn tail, and
// returns the log positioned to append after the last durable record.
func Open(dir string, opt Options) (*Log, *Recovery, error) {
	if opt.SnapshotRetain == 0 {
		opt.SnapshotRetain = DefaultSnapshotRetain
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opt: opt, nextSeq: 1}
	l.cond = sync.NewCond(&l.mu)

	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}

	l.stopFlush = make(chan struct{})
	l.flushDone = make(chan struct{})
	go l.flushLoop()
	return l, rec, nil
}

// segPrefix/segSuffix name segment files wal-<firstseq>.log; snapshots are
// snap-<seq>.snap.
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(firstSeq uint64) string { return fmt.Sprintf("%s%016d%s", segPrefix, firstSeq, segSuffix) }
func snapName(seq uint64) string     { return fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix) }
func parseSeq(name, pre, suf string) (uint64, bool) {
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, pre), suf), "%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// recover scans dir: picks the newest decodable snapshot, replays every
// segment in order skipping records at or below the snapshot sequence,
// truncates the torn tail at the first corrupt record, and opens the last
// segment for append. Called once from Open, before the flush loop starts.
func (l *Log) recover() (*Recovery, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan %s: %w", l.dir, err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })

	rec := &Recovery{}
	// Newest decodable snapshot wins; corrupt or partial ones fall back to
	// the next older, and ultimately to pure replay.
	for _, seq := range snaps {
		snap, err := readSnapshot(filepath.Join(l.dir, snapName(seq)))
		if err != nil {
			continue
		}
		rec.Snapshot = snap
		l.snapSeq = snap.Seq
		break
	}

	last := l.snapSeq
	for i, first := range segs {
		path := filepath.Join(l.dir, segName(first))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", path, err)
		}
		recs, clean, decErr := DecodeFrames(data)
		stop := false
		for _, r := range recs {
			if r.Seq <= l.snapSeq {
				continue // compacted into the snapshot already
			}
			if r.Seq != last+1 {
				// A sequence discontinuity means the log lost something the
				// framing could not see; nothing after it is trustworthy.
				stop = true
				break
			}
			rec.Records = append(rec.Records, r)
			last = r.Seq
		}
		if decErr != nil || stop {
			// Torn or corrupt tail: physically truncate this segment at the
			// clean prefix and ignore any later segments entirely.
			if decErr != nil && clean < len(data) {
				if err := os.Truncate(path, int64(clean)); err != nil {
					return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
				}
			}
			for _, laterFirst := range segs[i+1:] {
				os.Remove(filepath.Join(l.dir, segName(laterFirst)))
			}
			rec.TruncatedTail = true
			truncatedTotal.Inc()
			break
		}
	}
	replayedTotal.Add(uint64(len(rec.Records)))

	l.nextSeq = last + 1
	l.written, l.synced = last, last
	// Append into the newest surviving segment, or start a fresh one.
	active := segName(l.nextSeq)
	if len(segs) > 0 {
		newest := segs[0]
		for _, s := range segs {
			if s > newest && s <= l.nextSeq {
				newest = s
			}
		}
		if _, err := os.Stat(filepath.Join(l.dir, segName(newest))); err == nil {
			active = segName(newest)
		}
	}
	f, err := os.OpenFile(filepath.Join(l.dir, active), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %s: %w", active, err)
	}
	l.f = f
	return rec, nil
}

// Append assigns the next sequence number to rec, encodes and buffers it,
// and returns the sequence number to pass to Commit. The caller appends
// while holding the lock that serializes the recorded state transition, so
// log order always matches application order; the (cheap) buffered append
// keeps that critical section short. On a closed log it returns 0.
func (l *Log) Append(rec *Record) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0
	}
	rec.Seq = l.nextSeq
	buf, err := AppendFrame(l.buf, rec)
	if err != nil {
		// A record that cannot encode is a programming error; losing it
		// would silently break replay, so fail loudly.
		panic(err)
	}
	l.buf = buf
	l.nextSeq++
	l.bufSeq = rec.Seq
	appendsTotal.Inc()
	return rec.Seq
}

// Commit blocks until the record with the given sequence number is written
// to the log file (and fsynced, in Sync mode). Concurrent committers elect
// one leader per accumulated batch: the leader performs the single write
// (plus fsync in Sync mode) for everyone buffered so far and wakes the rest
// — classic group commit. A zero lsn (from Append on a closed log) is an
// immediate ErrClosed.
func (l *Log) Commit(lsn uint64) error {
	if lsn == 0 {
		return ErrClosed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.written >= lsn && (!l.opt.Sync || l.synced >= lsn) {
			return nil
		}
		if l.closed {
			return ErrClosed
		}
		if !l.writing && l.bufSeq > l.written {
			l.flushLocked(l.opt.Sync)
			continue
		}
		l.cond.Wait()
	}
}

// flushLocked is the leader path: it takes the accumulated buffer, drops
// the lock for the syscalls, and republishes progress. Callers hold l.mu;
// sync additionally fsyncs the file. Errors surface via panic — a control
// plane that cannot persist acknowledged state must not keep acknowledging.
func (l *Log) flushLocked(sync bool) {
	l.writing = true
	buf, hi := l.buf, l.bufSeq
	l.buf = nil
	f := l.f
	l.mu.Unlock()

	var werr, serr error
	if len(buf) > 0 {
		_, werr = f.Write(buf)
	}
	if werr == nil && sync {
		serr = f.Sync()
	}

	l.mu.Lock()
	l.writing = false
	if werr != nil {
		l.cond.Broadcast()
		panic(fmt.Errorf("wal: write segment: %w", werr))
	}
	if hi > l.written {
		l.written = hi
	}
	l.dirty = true
	if sync {
		if serr != nil {
			l.cond.Broadcast()
			panic(fmt.Errorf("wal: fsync segment: %w", serr))
		}
		l.synced = l.written
		l.dirty = false
		fsyncsTotal.Inc()
	}
	l.cond.Broadcast()
}

// flushLoop is the background fsync batcher: every DefaultFlushInterval it
// pushes buffered frames to the file and fsyncs anything
// written-but-unsynced, so the window of acknowledged state a power loss can
// take is bounded.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(DefaultFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-t.C:
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return
			}
			if !l.writing && (l.bufSeq > l.written || l.dirty) {
				l.flushLocked(true)
			}
			l.mu.Unlock()
		}
	}
}

// Sync forces everything appended so far to disk (write + fsync).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for l.writing {
		l.cond.Wait()
	}
	if l.bufSeq > l.written || l.dirty {
		l.flushLocked(true)
	}
	return nil
}

// LastSeq returns the sequence number of the last appended record (0 when
// empty). Captured under the callers' state locks, it names the exact log
// position a state snapshot corresponds to.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// SnapshotSeq returns the sequence number of the newest snapshot on disk.
func (l *Log) SnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapSeq
}

// Dir returns the log's data directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes and fsyncs all buffered records, stops the background
// flusher, and closes the segment file. Further Appends return 0 and
// further Commits ErrClosed; callers should quiesce traffic first.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.writing {
		l.cond.Wait()
	}
	if l.bufSeq > l.written || l.dirty {
		l.flushLocked(true)
	}
	l.closed = true
	f := l.f
	l.cond.Broadcast()
	l.mu.Unlock()

	close(l.stopFlush)
	<-l.flushDone
	return f.Close()
}
