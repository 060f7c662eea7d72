package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// ScopeState is one fleet scope's full durable state inside a snapshot:
// residual capacity factors (the cumulative churn the scope has absorbed),
// counters, and every live deployment in admission order.
type ScopeState struct {
	// Scope is "" (the only shard of a one-shard fleet), "s<i>", or "x".
	Scope string `json:"scope,omitempty"`
	// NodeFactors/LinkFactors are the residual network's capacity factors.
	NodeFactors []float64 `json:"node_factors,omitempty"`
	LinkFactors []float64 `json:"link_factors,omitempty"`
	// Counters is the scope's counter state at the snapshot point.
	Counters Counters `json:"counters"`
	// Deploys lists live deployments in admission (iteration) order.
	Deploys []DeploymentState `json:"deploys,omitempty"`
}

// Snapshot is one compacted full-state checkpoint: everything needed to
// rebuild the manager without replaying the log prefix it covers.
type Snapshot struct {
	// Seq is the log sequence number the snapshot corresponds to: replay
	// after loading it skips records with Seq <= Seq.
	Seq uint64 `json:"seq"`
	// Install reconstructs the manager (network + shard count).
	Install *InstallState `json:"install,omitempty"`
	// Scopes holds per-scope fleet state; Parked the unified parked pool in
	// requeue order; Churn the reconciler counter state.
	Scopes []ScopeState  `json:"scopes,omitempty"`
	Parked []ParkedState `json:"parked,omitempty"`
	Churn  *ChurnState   `json:"churn,omitempty"`
}

// Snapshot file layout: an 8-byte magic, a u32 format version, a u32
// payload length, a u32 IEEE CRC32 of the payload, then the JSON payload.
const (
	snapMagic   = "ELPCSNAP"
	snapVersion = 1
	snapHeader  = 8 + 4 + 4 + 4
)

// WriteSnapshot persists snap and compacts the log around it: the log is
// fsynced through snap.Seq first (so a surviving snapshot always implies
// its covered records survived), the snapshot file is written
// temp-file-then-rename (a crash mid-write leaves no partial artifact that
// recovery could trust), the active segment is rotated, fully-covered old
// segments are deleted, and snapshots beyond the retention bound are pruned.
func (l *Log) WriteSnapshot(snap *Snapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("wal: encode snapshot %d: %w", snap.Seq, err)
	}
	hdr := make([]byte, snapHeader)
	copy(hdr[0:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], snapVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload))

	// Durability ordering: the records the snapshot compacts must be on
	// disk before the snapshot becomes visible, or a crash could recover a
	// snapshot "from the future" relative to its own log.
	if err := l.Sync(); err != nil {
		return err
	}

	final := filepath.Join(l.dir, snapName(snap.Seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create snapshot: %w", err)
	}
	if _, err := f.Write(hdr); err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}

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
	if snap.Seq > l.snapSeq {
		l.snapSeq = snap.Seq
	}
	// Rotate: later records start a fresh segment so the old ones become
	// fully-covered (hence deletable) once a snapshot passes their range.
	next, err := os.OpenFile(filepath.Join(l.dir, segName(l.nextSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate segment: %w", err)
	}
	old := l.f
	l.f = next
	old.Close()
	l.pruneLocked()
	return nil
}

// pruneLocked deletes snapshots beyond the retention bound, then segments
// fully covered by the oldest snapshot still retained — not the newest, so
// every retained fallback snapshot keeps the log suffix it needs to replay
// from (a corrupt newest snapshot degrades recovery, it does not lose
// acknowledged records). Caller holds l.mu. Best-effort: a leftover file is
// re-pruned next time.
func (l *Log) pruneLocked() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
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
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	if l.opt.SnapshotRetain > 0 && len(snaps) > l.opt.SnapshotRetain {
		for _, seq := range snaps[l.opt.SnapshotRetain:] {
			os.Remove(filepath.Join(l.dir, snapName(seq)))
		}
		snaps = snaps[:l.opt.SnapshotRetain]
	}
	if len(snaps) == 0 {
		return
	}
	cover := snaps[len(snaps)-1] // oldest retained snapshot
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	// Segment k holds records [firstSeq(k), firstSeq(k+1)); it is deletable
	// when the whole range is compacted into every retained snapshot, i.e.
	// the next segment starts at or below cover+1. The newest segment is
	// never deletable this way.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= cover+1 {
			os.Remove(filepath.Join(l.dir, segName(segs[i])))
		}
	}
}

// readSnapshot loads and verifies one snapshot file: magic, version,
// length, CRC, then the JSON payload. Any mismatch is an error — the caller
// falls back to an older snapshot or pure replay.
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < snapHeader || string(data[0:8]) != snapMagic {
		return nil, fmt.Errorf("wal: %s: bad snapshot magic", path)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != snapVersion {
		return nil, fmt.Errorf("wal: %s: unsupported snapshot version %d", path, v)
	}
	n := int(binary.LittleEndian.Uint32(data[12:16]))
	if n != len(data)-snapHeader {
		return nil, fmt.Errorf("wal: %s: snapshot length mismatch", path)
	}
	payload := data[snapHeader:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[16:20]) {
		return nil, fmt.Errorf("wal: %s: snapshot checksum mismatch", path)
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("wal: %s: decode snapshot: %w", path, err)
	}
	return &snap, nil
}
