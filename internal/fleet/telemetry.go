package fleet

import (
	"fmt"
	"strings"

	"elpc/internal/telemetry"
)

// Fleet-level metrics, recorded into the process-global registry. Outcome
// counters mirror the raw per-manager tallies (ShardStats semantics): a
// regional rejection that the coordinator fallback then admits contributes
// one rejected and one admitted increment — the 2PC fallback counter
// reconciles the two, exactly like Stats does for /v1/stats.
var (
	admittedTotal = telemetry.Default().Counter(
		`elpc_fleet_admissions_total{outcome="admitted"}`,
		"deploy admission outcomes (raw per-manager tallies)")
	rejectedTotal = telemetry.Default().Counter(
		`elpc_fleet_admissions_total{outcome="rejected"}`, "")
	deploySeconds = telemetry.Default().Histogram(
		"elpc_fleet_deploy_seconds",
		"admission latency, solve through commit or rejection (seconds)", nil)
	batchDeploySeconds = telemetry.Default().Histogram(
		"elpc_fleet_batch_deploy_seconds",
		"batch admission latency, whole burst under one lock epoch (seconds)", nil)
	preemptedTotal = telemetry.Default().Counter(
		"elpc_admission_preempted_total",
		"best-effort deployments displaced by guaranteed admissions")
	rebalanceSeconds = telemetry.Default().Histogram(
		"elpc_fleet_rebalance_seconds", "rebalance pass latency (seconds)", nil)
	rebalanceMovesTotal = telemetry.Default().Counter(
		"elpc_fleet_rebalance_moves_total", "applied rebalance migrations")
	repairSeconds = telemetry.Default().Histogram(
		"elpc_fleet_repair_seconds", "incremental repair pass latency (seconds)", nil)
	parkEvictionsTotal = telemetry.Default().Counter(
		"elpc_fleet_park_evictions_total",
		"deployments evicted with a reusable admission request")

	// Sharded-coordinator counters: phase-2 validation failures that forced
	// a re-solve, exhausted two-phase rounds, and regional rejections retried
	// through the coordinator.
	tpcRetriesTotal = telemetry.Default().Counter(
		"elpc_fleet_2pc_retries_total",
		"cross-region phase-2 validation failures that forced a re-solve")
	tpcAbortsTotal = telemetry.Default().Counter(
		"elpc_fleet_2pc_aborts_total",
		"cross-region deployments rejected after exhausting two-phase rounds")
	tpcFallbacksTotal = telemetry.Default().Counter(
		"elpc_fleet_2pc_fallbacks_total",
		"single-region rejections retried through the coordinator")
)

// shardLabel renders a region's idPrefix as its shard label: "s3-" -> "s3",
// "x-" -> "x", empty (the only shard of a one-shard fleet) -> "main".
func shardLabel(idPrefix string) string {
	if idPrefix == "" {
		return "main"
	}
	return strings.TrimSuffix(idPrefix, "-")
}

// lockWaitHist lazily resolves the region's per-shard lock-wait histogram,
// registering the series only for regions that take Deploy traffic (the
// coordinator admits through its own two-phase path and never does); the
// sync.Once makes first use race-free under concurrent Deploys.
func (f *region) lockWaitHist() *telemetry.Histogram {
	f.lockWaitOnce.Do(func() {
		f.lockWait = telemetry.Default().Histogram(
			fmt.Sprintf(`elpc_fleet_lock_wait_seconds{shard=%q}`, shardLabel(f.idPrefix)),
			"time Deploy spent waiting for the fleet mutex (seconds)", nil)
	})
	return f.lockWait
}
