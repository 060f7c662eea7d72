// Package wal is the control plane's durability layer: an append-only,
// length-prefixed, CRC32-checksummed on-disk event log with fsync-batched
// group commit, plus periodic compacted snapshots with a versioned header.
//
// Every fleet, churn and service transition — deploy admitted, rejected or
// preempted, release, churn event, repair outcome, rebalance move, requeue,
// each two-phase-commit phase, shard reconfiguration — is described once,
// as one typed Op of the Record its lock epoch closes. Records are logged
// before the operation is acknowledged, and on boot the newest valid
// snapshot plus the log suffix replays to the exact pre-crash state; the
// in-memory journal (internal/journal) serves the same records as events.
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
	// outcome. Older logs may also carry "res_class", which decoding
	// ignores.
	Assignment  []model.NodeID `json:"assignment"`
	Mapping     string         `json:"mapping,omitempty"`
	DelayMs     float64        `json:"delay_ms"`
	RateFPS     float64        `json:"rate_fps"`
	ReservedFPS float64        `json:"reserved_fps,omitempty"`
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

// Kind types one transition. The values are the wire kinds served by
// /v1/journal and /v1/fleet/{id}/timeline.
type Kind string

// Transition kinds, each with the op fields it carries. A note carries no
// replayed state, only identity, detail and scores.
const (
	DeployAdmitted   Kind = "deploy_admitted"  // Deploy (with RequeueOf when it drains a parked entry)
	DeployRejected   Kind = "deploy_rejected"  // note: the rejection reason
	DeployPreempted  Kind = "deploy_preempted" // Remove and Park: displaced by a guaranteed deploy
	AdmissionShed    Kind = "admission_shed"   // note: a best-effort request shed at service intake
	ReleaseDone      Kind = "release"          // Remove and Tenant
	ChurnApplied     Kind = "churn_applied"    // Churn: the applied network mutations
	ChurnBatch       Kind = "churn_batch"      // Summary: one reconciler batch
	RepairKept       Kind = "repair_kept"      // note: the surviving placement's scores
	RepairMigrated   Kind = "repair_migrated"  // Deploy with Update
	RepairParked     Kind = "repair_parked"    // Remove and Park
	RebalanceMove    Kind = "rebalance_move"   // Deploy with Update, and the gain as Detail
	Requeued         Kind = "requeued"         // no op: projected from a DeployAdmitted with RequeueOf
	TwoPhaseReserve  Kind = "2pc_reserve"      // note: a cross-region proposal solved
	TwoPhaseValidate Kind = "2pc_validate"     // note: phase 2 found it overcommitted, re-solve
	TwoPhaseCommit   Kind = "2pc_commit"       // note: the cross-region reservation committed
	TwoPhaseAbort    Kind = "2pc_abort"        // note: every two-phase round lost
	ShardReconfig    Kind = "shard_reconfig"   // note on a fleet network install
)

// Op is one transition inside a Record, in chronological order. Keeping
// transitions as an ordered list (rather than parallel lists per type)
// matters: a batch can admit a deployment and then preempt it later in the
// same lock epoch, and replay must see those in order. Replay applies the
// state payloads (Deploy, Remove, Park, Churn) and skips notes — ops that
// carry none, because the transition changed no replayed state.
type Op struct {
	// Kind types the transition (empty in logs written before ops were
	// typed).
	Kind Kind `json:"kind,omitempty"`
	// Deploy inserts (or, with Update set, re-places) a deployment.
	Deploy *DeploymentState `json:"deploy,omitempty"`
	// Remove deletes the deployment with this ID (release, park, preempt).
	Remove string `json:"remove,omitempty"`
	// Park appends a displaced deployment to the parked pool; its Reason is
	// the transition's detail line.
	Park *ParkedState `json:"park,omitempty"`
	// Churn applies capacity-mutation events to the scope's residual state.
	Churn []model.ChurnEvent `json:"churn,omitempty"`
	// Summary is a reconciler batch's outcome.
	Summary *ChurnSummary `json:"summary,omitempty"`
	// ID and Tenant identify the deployment or request a note (or a
	// release's Remove) concerns; Detail is the human-readable line (the
	// rejection reason, rebalance gain, or 2PC round); Mapping, DelayMs and
	// RateFPS carry the placement a note scored.
	ID      string  `json:"id,omitempty"`
	Tenant  string  `json:"tenant,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	Mapping string  `json:"mapping,omitempty"`
	DelayMs float64 `json:"delay_ms,omitempty"`
	RateFPS float64 `json:"rate_fps,omitempty"`
}

// ChurnSummary summarizes one applied reconciler event batch and its
// repair cycle (the /v1/events response and /v1/events/log record).
type ChurnSummary struct {
	// Seq numbers applied batches from 1, in application order.
	Seq int `json:"seq"`
	// Events is the applied batch.
	Events []model.ChurnEvent `json:"events"`
	// Affected is the size of the incremental-repair frontier: deployments
	// whose placements touch a mutated element. Kept survived unchanged
	// (no re-solve), Resolved were re-solved, Migrated moved to a new
	// mapping, Parked were evicted with their requests retained.
	Affected int `json:"affected"`
	Kept     int `json:"kept"`
	Resolved int `json:"resolved"`
	Migrated int `json:"migrated"`
	Parked   int `json:"parked"`
	// Requeued is the number of previously parked deployments re-admitted
	// while handling this batch.
	Requeued int `json:"requeued"`
	// Displaced = Migrated + Parked: deployments the batch moved or
	// evicted.
	Displaced int `json:"displaced"`
	// RepairMs is the wall-clock latency of the full repair cycle
	// (identify + repair + requeue).
	RepairMs float64 `json:"repair_ms"`
}

// Counters is the durable snapshot of one scope's admission counters after
// a record's operations. Records that replay no state — only notes, or no
// ops at all (a rebalance pass that moved nothing) — still changed counters
// such as Rejected or Solves, and recovered Stats must be byte-identical.
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

// Record is one lock epoch's transitions: an ordered list of ops in one
// scope plus that scope's counter state afterwards. Install and reconciler
// records additionally carry their dedicated state blocks.
type Record struct {
	// Seq is the log-assigned sequence number, monotonic from 1 across
	// segments and snapshots; replay after a snapshot skips Seq <= snapshot.
	Seq   uint64 `json:"seq"`
	Scope string `json:"scope,omitempty"`
	Ops   []Op   `json:"ops,omitempty"`
	// Counters is the scope's counter state after Ops (nil for install and
	// reconciler records).
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
