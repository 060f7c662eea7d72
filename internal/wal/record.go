// Package wal is the control plane's durability layer: an append-only,
// length-prefixed, CRC32-checksummed on-disk event log with fsync-batched
// group commit, plus periodic compacted snapshots with a versioned header.
//
// Every mutating fleet transition — deploy admitted (including preemptions
// and requeues), release, churn event, repair outcome, rebalance move,
// two-phase commit or abort, shard reconfiguration — is logged as one
// Record before the operation is acknowledged, and on boot the newest
// valid snapshot plus the log suffix replays to the exact pre-crash state.
// A torn tail (a partially-written final record after a crash) is detected
// by the length/checksum framing and truncated at the first bad record;
// everything before it is recovered, everything after it was never
// acknowledged under the log's commit rules.
//
// The package depends only on internal/model so that fleet, churn, and
// service can all import it without cycles.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"elpc/internal/model"
)

// Kind labels what operation produced a Record. Replay is driven by record
// content (the Ops list and state blocks), not by Kind; the label exists so
// logs are greppable and the fuzz corpus is readable.
type Kind string

// Record kinds, one per logged fleet/churn transition.
const (
	// KindInstall records a fleet network install or replacement; replay
	// rebuilds the manager from the embedded InstallState and discards any
	// prior fleet state (installs are only accepted on empty fleets).
	KindInstall Kind = "install"
	// KindDeploy records one admission attempt (including any preemptions
	// it performed); KindBatch records one DeployBatch lock epoch.
	KindDeploy Kind = "deploy"
	KindBatch  Kind = "deploy_batch"
	// KindRelease records a deployment returning its capacity.
	KindRelease Kind = "release"
	// KindChurn records one applied churn batch (capacity mutations).
	KindChurn Kind = "churn"
	// KindRepair records one repair pass; KindRebalance one rebalance pass.
	KindRepair    Kind = "repair"
	KindRebalance Kind = "rebalance"
	// KindChurnState records the reconciler's counter state after a batch.
	KindChurnState Kind = "churn_state"
)

// ScopeChurn is the Record.Scope of reconciler state records. Fleet scopes
// are "" (the only shard of a one-shard fleet), "s<i>" (shard i of a K>1
// sharded fleet), and "x" (the cross-region coordinator).
const ScopeChurn = "churn"

// ScopeCross is the coordinator scope of a sharded fleet.
const ScopeCross = "x"

// DeploymentState is the durable form of one admitted deployment — enough
// to rebuild the in-memory Deployment and its reservation exactly, without
// re-running the solver.
type DeploymentState struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	// Objective, Src, Dst, Pipeline, SLO*, and Cost reproduce the admission
	// request (needed so a recovered deployment can be repaired, rebalanced,
	// or parked-and-requeued later exactly like a live one).
	Objective     int             `json:"objective,omitempty"`
	Src           model.NodeID    `json:"src"`
	Dst           model.NodeID    `json:"dst"`
	Pipeline      *model.Pipeline `json:"pipeline,omitempty"`
	SLOMaxDelayMs float64         `json:"slo_max_delay_ms,omitempty"`
	SLOMinRateFPS float64         `json:"slo_min_rate_fps,omitempty"`
	SLOClass      string          `json:"slo_class,omitempty"`
	CostMLD       bool            `json:"cost_mld,omitempty"`
	// Assignment/Mapping/DelayMs/RateFPS/ReservedFPS snapshot the placement
	// outcome; ResClass is the reservation's SLO class tag exactly as the
	// live path set it (admissions tag it, migrations historically do not).
	Assignment  []model.NodeID `json:"assignment"`
	Mapping     string         `json:"mapping,omitempty"`
	DelayMs     float64        `json:"delay_ms"`
	RateFPS     float64        `json:"rate_fps"`
	ReservedFPS float64        `json:"reserved_fps,omitempty"`
	ResClass    string         `json:"res_class,omitempty"`
	// Seq is the fleet-local admission sequence number embedded in the ID.
	Seq uint64 `json:"seq,omitempty"`
	// RequeueOf names the parked entry this admission drained, so replay
	// removes it from the recovered parked pool.
	RequeueOf string `json:"requeue_of,omitempty"`
	// Update marks a placement change of an existing deployment (repair
	// migration, rebalance move): replay updates the stored deployment in
	// place instead of inserting a new one, and Pipeline is omitted.
	Update bool `json:"update,omitempty"`
}

// ParkedState is the durable form of one parked deployment (repair park or
// preemption victim) — the displaced ID plus the request needed to requeue.
type ParkedState struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	Reason string `json:"reason,omitempty"`
	// The re-admission request.
	Objective     int             `json:"objective,omitempty"`
	Src           model.NodeID    `json:"src"`
	Dst           model.NodeID    `json:"dst"`
	Pipeline      *model.Pipeline `json:"pipeline,omitempty"`
	SLOMaxDelayMs float64         `json:"slo_max_delay_ms,omitempty"`
	SLOMinRateFPS float64         `json:"slo_min_rate_fps,omitempty"`
	SLOClass      string          `json:"slo_class,omitempty"`
	// CostMLD mirrors Request.Cost: nil means the request carried no
	// override and re-admission uses the defaults.
	CostMLD *bool `json:"cost_mld,omitempty"`
}

// Op is one mutation inside a Record, in chronological order. Exactly one
// field is set. Keeping mutations as an ordered list (rather than parallel
// lists per type) matters: a batch can admit a deployment and then preempt
// it later in the same lock epoch, and replay must see those in order.
type Op struct {
	// Deploy inserts (or, with Update set, re-places) a deployment.
	Deploy *DeploymentState `json:"deploy,omitempty"`
	// Remove deletes the deployment with this ID (release, park, preempt).
	Remove string `json:"remove,omitempty"`
	// Park appends a displaced deployment to the parked pool.
	Park *ParkedState `json:"park,omitempty"`
	// Churn applies capacity-mutation events to the scope's residual state.
	Churn []model.ChurnEvent `json:"churn,omitempty"`
}

// Counters is the durable snapshot of one scope's admission counters after
// a record's operations. Counter-only records exist too (rejections, repair
// passes that kept everything): they still changed Rejected or Solves, and
// recovered Stats must be byte-identical.
type Counters struct {
	Admitted      uint64 `json:"admitted,omitempty"`
	Rejected      uint64 `json:"rejected,omitempty"`
	Released      uint64 `json:"released,omitempty"`
	Moves         uint64 `json:"moves,omitempty"`
	Repaired      uint64 `json:"repaired,omitempty"`
	RepairMoves   uint64 `json:"repair_moves,omitempty"`
	ParkEvictions uint64 `json:"park_evictions,omitempty"`
	Preemptions   uint64 `json:"preemptions,omitempty"`
	Solves        uint64 `json:"solves,omitempty"`
	Seq           uint64 `json:"seq,omitempty"`
	// Coordinator-only counters (scope "x").
	Fallbacks  uint64 `json:"fallbacks,omitempty"`
	TPCRetries uint64 `json:"tpc_retries,omitempty"`
	TPCAborts  uint64 `json:"tpc_aborts,omitempty"`
}

// ChurnState is the reconciler's durable counter state, logged after each
// batch so recovered /v1/churn/stats is consistent with the recovered fleet.
type ChurnState struct {
	Seq             int     `json:"seq,omitempty"`
	Batches         uint64  `json:"batches,omitempty"`
	Events          uint64  `json:"events,omitempty"`
	Affected        uint64  `json:"affected,omitempty"`
	Migrated        uint64  `json:"migrated,omitempty"`
	ParkTotal       uint64  `json:"park_total,omitempty"`
	Requeued        uint64  `json:"requeued,omitempty"`
	RequeueAttempts uint64  `json:"requeue_attempts,omitempty"`
	RepairMs        float64 `json:"repair_ms,omitempty"`
	MaxRepairMs     float64 `json:"max_repair_ms,omitempty"`
}

// InstallState is the durable form of a fleet install: the full network and
// the shard count. Sharded partitioning is deterministic from these.
type InstallState struct {
	Network *model.Network `json:"network"`
	Shards  int            `json:"shards,omitempty"`
}

// Record is one durably-logged transition: an ordered list of mutations in
// one scope plus that scope's counter state afterwards. Install and
// reconciler-state records use the dedicated blocks instead of Ops.
type Record struct {
	// Seq is the log-assigned sequence number, monotonic from 1 across
	// segments and snapshots; replay after a snapshot skips Seq <= snapshot.
	Seq   uint64 `json:"seq"`
	Kind  Kind   `json:"kind"`
	Scope string `json:"scope,omitempty"`
	Ops   []Op   `json:"ops,omitempty"`
	// Counters is the scope's counter state after Ops (nil for install and
	// churn-state records).
	Counters *Counters     `json:"counters,omitempty"`
	Install  *InstallState `json:"install,omitempty"`
	Churn    *ChurnState   `json:"churn,omitempty"`
}

// frame layout: u32 LE payload length, u32 LE IEEE CRC32 of the payload,
// then the JSON payload. maxFrame bounds a single record so a corrupt
// length prefix cannot ask the decoder to allocate gigabytes.
const (
	frameHeader = 8
	maxFrame    = 64 << 20
)

// AppendFrame encodes rec as one framed log entry appended to buf and
// returns the extended buffer.
func AppendFrame(buf []byte, rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("wal: encode record %d: %w", rec.Seq, err)
	}
	if len(payload) > maxFrame {
		return buf, fmt.Errorf("wal: record %d exceeds frame bound (%d bytes)", rec.Seq, len(payload))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// errTorn reports that decoding stopped before consuming all input: a short
// header, a short payload, a CRC mismatch, an oversized length prefix, or
// undecodable JSON. It is how crash-truncated tails are detected.
var errTorn = errors.New("wal: torn or corrupt record")

// DecodeFrames decodes consecutive framed records from data. It returns the
// records decoded before the first corruption, the byte offset of the clean
// prefix (the truncation point for a torn tail), and nil error only when the
// entire input decoded cleanly. It never panics on arbitrary input — the
// property the fuzz target holds it to.
func DecodeFrames(data []byte) (recs []Record, clean int, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			return recs, off, errTorn
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxFrame || len(data)-off-frameHeader < n {
			return recs, off, errTorn
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, errTorn
		}
		var rec Record
		if jsonErr := json.Unmarshal(payload, &rec); jsonErr != nil {
			return recs, off, errTorn
		}
		recs = append(recs, rec)
		off += frameHeader + n
	}
	return recs, off, nil
}
