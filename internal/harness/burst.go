package harness

import (
	"errors"
	"fmt"
	"strings"

	"elpc/internal/fleet"
	"elpc/internal/gen"
)

// BurstScenarioResult summarizes one burst-admission comparison: the same
// deterministic bursty arrival trace replayed twice against identical fresh
// fleets — once trickling every arrival through Deploy in trace order, once
// handing each burst to DeployBatch so the fleet places it in one
// class/scarcity-ordered pass under one lock epoch. The batch replay should
// never admit less: placing the scarcest (highest class, highest demanded
// rate, tightest delay slack) requests while residual capacity is fresh
// leaves the flexible ones to fit in the leftovers.
type BurstScenarioResult struct {
	Case      int    `json:"case"`
	Network   string `json:"network"` // "n50 l1000"
	Sessions  int    `json:"sessions"`
	BurstSize int    `json:"burst_size"`
	Bursts    int    `json:"bursts"`

	// Sequential replay: one Deploy per arrival, trace order.
	SeqAdmitted      int     `json:"seq_admitted"`
	SeqRejected      int     `json:"seq_rejected"`
	SeqAdmissionRate float64 `json:"seq_admission_rate"`
	SeqPreemptions   uint64  `json:"seq_preemptions"`

	// Batch replay: one DeployBatch per burst.
	BatchAdmitted      int     `json:"batch_admitted"`
	BatchRejected      int     `json:"batch_rejected"`
	BatchAdmissionRate float64 `json:"batch_admission_rate"`
	BatchPreemptions   uint64  `json:"batch_preemptions"`

	// AdmissionGain is BatchAdmissionRate - SeqAdmissionRate (expected
	// >= 0: batch ordering can only use the burst's freedom, not lose it).
	AdmissionGain float64 `json:"admission_gain"`

	// Per-class admitted counts of the batch replay.
	BatchGuaranteed int `json:"batch_guaranteed"`
	BatchStandard   int `json:"batch_standard"`
	BatchBestEffort int `json:"batch_best_effort"`
}

// DefaultBurstArrivalSpec returns the calibrated bursty workload the burst
// scenario and benchmarks replay: bursts of 8 simultaneous sessions, long
// holds (high contention), demanding streaming rates, and a mixed
// guaranteed/standard/best-effort class split.
func DefaultBurstArrivalSpec() gen.ArrivalSpec {
	return gen.ArrivalSpec{
		Sessions:           80,
		MeanInterarrivalMs: 8000,
		MeanHoldMs:         120000,
		ModulesMin:         4,
		ModulesMax:         8,
		StreamingShare:     0.7,
		RateLo:             4,
		RateHi:             16,
		BurstSize:          8,
		GuaranteedShare:    0.2,
		BestEffortShare:    0.3,
	}
}

// request converts one arrival event into the fleet's request form.
func burstRequest(ev gen.ArrivalEvent) fleet.Request {
	return fleet.Request{
		Tenant:    fmt.Sprintf("s%d", ev.Session),
		Pipeline:  ev.Pipeline,
		Src:       ev.Src,
		Dst:       ev.Dst,
		Objective: ev.Objective,
		SLO: fleet.SLO{
			MinRateFPS: ev.MinRateFPS,
			MaxDelayMs: ev.MaxDelayMs,
			Class:      fleet.Class(ev.Class),
		},
	}
}

// releaseIfLive releases a departing session's deployment, tolerating
// not-found (the deployment may have been preempted by a guaranteed
// admission and parked — it is no longer the fleet's to release).
func releaseIfLive(f *fleet.ShardedFleet, byID map[int]string, session int) error {
	id, ok := byID[session]
	if !ok {
		return nil
	}
	delete(byID, session)
	if err := f.Release(id); err != nil && !errors.Is(err, fleet.ErrNotFound) {
		return fmt.Errorf("harness: burst scenario release %s: %w", id, err)
	}
	return nil
}

// RunBurstScenario replays a bursty multi-tenant workload twice against
// identical fresh fleets on the given suite case's network — sequentially
// (one Deploy per arrival) and batched (one DeployBatch per burst of
// same-instant arrivals) — and reports both admission outcomes side by
// side. Departures replay identically in both; preempted deployments drain
// via TakePreempted and count toward the preemption gauges.
func RunBurstScenario(spec gen.CaseSpec, as gen.ArrivalSpec, seed uint64) (*BurstScenarioResult, error) {
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		return nil, err
	}
	events, err := gen.Arrivals(as, net, gen.DefaultRanges(), gen.RNG(seed))
	if err != nil {
		return nil, err
	}

	res := &BurstScenarioResult{
		Case:      spec.ID,
		Network:   fmt.Sprintf("n%d l%d", spec.Nodes, spec.Links),
		Sessions:  as.Sessions,
		BurstSize: as.BurstSize,
	}

	// Sequential replay: trace order, one admission attempt per arrival.
	seq, err := fleet.New(net)
	if err != nil {
		return nil, err
	}
	seqIDs := make(map[int]string, as.Sessions)
	for _, ev := range events {
		switch ev.Kind {
		case gen.Arrive:
			d, err := seq.Deploy(burstRequest(ev))
			if err != nil {
				if !errors.Is(err, fleet.ErrRejected) {
					return nil, fmt.Errorf("harness: burst scenario session %d: %w", ev.Session, err)
				}
				res.SeqRejected++
				continue
			}
			res.SeqAdmitted++
			seqIDs[ev.Session] = d.ID
		case gen.Depart:
			if err := releaseIfLive(seq, seqIDs, ev.Session); err != nil {
				return nil, err
			}
		}
		seq.TakePreempted()
	}
	res.SeqAdmissionRate = float64(res.SeqAdmitted) / float64(res.Sessions)
	res.SeqPreemptions = seq.Stats().Preemptions

	// Batch replay: identical trace, but every run of same-instant arrivals
	// is placed as one batch under one lock epoch.
	bat, err := fleet.New(net)
	if err != nil {
		return nil, err
	}
	batIDs := make(map[int]string, as.Sessions)
	flush := func(burst []gen.ArrivalEvent) error {
		if len(burst) == 0 {
			return nil
		}
		res.Bursts++
		reqs := make([]fleet.Request, len(burst))
		for i, ev := range burst {
			reqs[i] = burstRequest(ev)
		}
		for i, out := range bat.DeployBatch(reqs) {
			if out.Err != nil {
				if !errors.Is(out.Err, fleet.ErrRejected) {
					return fmt.Errorf("harness: burst scenario session %d: %w", burst[i].Session, out.Err)
				}
				res.BatchRejected++
				continue
			}
			res.BatchAdmitted++
			batIDs[burst[i].Session] = out.Deployment.ID
			switch out.Deployment.SLO.Class.Canon() {
			case fleet.ClassGuaranteed:
				res.BatchGuaranteed++
			case fleet.ClassBestEffort:
				res.BatchBestEffort++
			default:
				res.BatchStandard++
			}
		}
		bat.TakePreempted()
		return nil
	}
	var burst []gen.ArrivalEvent
	for _, ev := range events {
		if ev.Kind == gen.Arrive {
			if len(burst) > 0 && ev.TimeMs != burst[len(burst)-1].TimeMs {
				if err := flush(burst); err != nil {
					return nil, err
				}
				burst = burst[:0]
			}
			burst = append(burst, ev)
			continue
		}
		// A departure closes the open burst: releases must replay at the
		// same point in both traces for the comparison to be fair.
		if err := flush(burst); err != nil {
			return nil, err
		}
		burst = burst[:0]
		if err := releaseIfLive(bat, batIDs, ev.Session); err != nil {
			return nil, err
		}
	}
	if err := flush(burst); err != nil {
		return nil, err
	}
	res.BatchAdmissionRate = float64(res.BatchAdmitted) / float64(res.Sessions)
	res.BatchPreemptions = bat.Stats().Preemptions
	res.AdmissionGain = res.BatchAdmissionRate - res.SeqAdmissionRate
	return res, nil
}

// BurstScenarioTable renders the comparison as a small Markdown block for
// the pipebench artifacts.
func BurstScenarioTable(r *BurstScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Burst admission scenario (case %d, %s)\n\n", r.Case, r.Network)
	fmt.Fprintf(&b, "| metric | sequential | batch |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| admitted | %d | %d |\n", r.SeqAdmitted, r.BatchAdmitted)
	fmt.Fprintf(&b, "| rejected | %d | %d |\n", r.SeqRejected, r.BatchRejected)
	fmt.Fprintf(&b, "| admission rate | %.3f | %.3f |\n", r.SeqAdmissionRate, r.BatchAdmissionRate)
	fmt.Fprintf(&b, "| preemptions | %d | %d |\n", r.SeqPreemptions, r.BatchPreemptions)
	fmt.Fprintf(&b, "\n%d sessions in bursts of %d (%d bursts); admission gain %.3f.\n",
		r.Sessions, r.BurstSize, r.Bursts, r.AdmissionGain)
	fmt.Fprintf(&b, "Batch classes: %d guaranteed, %d standard, %d best-effort.\n",
		r.BatchGuaranteed, r.BatchStandard, r.BatchBestEffort)
	return b.String()
}
