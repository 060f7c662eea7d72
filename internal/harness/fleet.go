package harness

import (
	"errors"
	"fmt"
	"strings"

	"elpc/internal/fleet"
	"elpc/internal/gen"
)

// FleetScenarioResult summarizes one multi-tenant fleet replay: a
// deterministic arrival/departure schedule played against a fleet over one
// suite network, followed by a rebalance pass.
type FleetScenarioResult struct {
	Case     int    `json:"case"`
	Network  string `json:"network"` // "n50 l1000"
	Sessions int    `json:"sessions"`
	// Admitted / Rejected count arrival outcomes; AdmissionRate is
	// Admitted/Sessions.
	Admitted      int     `json:"admitted"`
	Rejected      int     `json:"rejected"`
	AdmissionRate float64 `json:"admission_rate"`
	// MeanDeployedFPS averages the sustainable frame rate of admitted
	// deployments at admission time.
	MeanDeployedFPS float64 `json:"mean_deployed_fps"`
	// MeanReservedFPS averages the capacity actually reserved.
	MeanReservedFPS float64 `json:"mean_reserved_fps"`
	// PeakNodeUtil / PeakLinkUtil are the highest utilization gauges seen
	// during the replay.
	PeakNodeUtil float64 `json:"peak_node_util"`
	PeakLinkUtil float64 `json:"peak_link_util"`
	// RebalanceMoves and RebalanceMeanGain report the final rebalance pass
	// over the deployments still live at the end of the schedule.
	RebalanceMoves    int     `json:"rebalance_moves"`
	RebalanceMeanGain float64 `json:"rebalance_mean_gain"`
}

// RunFleetScenario replays a generated multi-tenant workload against a
// fresh fleet on the given suite case's network: deploy on every arrival
// (counting admissions and rejections), release on every departure of an
// admitted session, then run one rebalance pass over the survivors.
func RunFleetScenario(spec gen.CaseSpec, as gen.ArrivalSpec, seed uint64) (*FleetScenarioResult, error) {
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		return nil, err
	}
	events, err := gen.Arrivals(as, net, gen.DefaultRanges(), gen.RNG(seed))
	if err != nil {
		return nil, err
	}
	f, err := fleet.New(net)
	if err != nil {
		return nil, err
	}

	res := &FleetScenarioResult{
		Case:     spec.ID,
		Network:  fmt.Sprintf("n%d l%d", spec.Nodes, spec.Links),
		Sessions: as.Sessions,
	}
	byID := make(map[int]string, as.Sessions)
	for _, ev := range events {
		switch ev.Kind {
		case gen.Arrive:
			d, err := f.Deploy(fleet.Request{
				Tenant:    fmt.Sprintf("s%d", ev.Session),
				Pipeline:  ev.Pipeline,
				Src:       ev.Src,
				Dst:       ev.Dst,
				Objective: ev.Objective,
				SLO:       fleet.SLO{MinRateFPS: ev.MinRateFPS, MaxDelayMs: ev.MaxDelayMs},
			})
			if err != nil {
				if !errors.Is(err, fleet.ErrRejected) {
					return nil, fmt.Errorf("harness: fleet scenario session %d: %w", ev.Session, err)
				}
				res.Rejected++
				continue
			}
			res.Admitted++
			res.MeanDeployedFPS += d.RateFPS
			res.MeanReservedFPS += d.ReservedFPS
			byID[ev.Session] = d.ID
			s := f.Stats()
			if s.MaxNodeUtil > res.PeakNodeUtil {
				res.PeakNodeUtil = s.MaxNodeUtil
			}
			if s.MaxLinkUtil > res.PeakLinkUtil {
				res.PeakLinkUtil = s.MaxLinkUtil
			}
		case gen.Depart:
			if id, ok := byID[ev.Session]; ok {
				if err := f.Release(id); err != nil {
					return nil, fmt.Errorf("harness: fleet scenario release %s: %w", id, err)
				}
				delete(byID, ev.Session)
			}
		}
	}
	if res.Admitted > 0 {
		res.MeanDeployedFPS /= float64(res.Admitted)
		res.MeanReservedFPS /= float64(res.Admitted)
	}
	res.AdmissionRate = float64(res.Admitted) / float64(res.Sessions)

	rep := f.Rebalance(fleet.RebalanceOptions{})
	res.RebalanceMoves = rep.Applied
	res.RebalanceMeanGain = rep.MeanGain
	return res, nil
}

// FleetScenarioTable renders the scenario as a small Markdown block for the
// pipebench artifacts.
func FleetScenarioTable(r *FleetScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Fleet scenario (case %d, %s)\n\n", r.Case, r.Network)
	fmt.Fprintf(&b, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| sessions | %d |\n", r.Sessions)
	fmt.Fprintf(&b, "| admitted | %d |\n", r.Admitted)
	fmt.Fprintf(&b, "| rejected | %d |\n", r.Rejected)
	fmt.Fprintf(&b, "| admission rate | %.3f |\n", r.AdmissionRate)
	fmt.Fprintf(&b, "| mean deployed rate | %.2f fps |\n", r.MeanDeployedFPS)
	fmt.Fprintf(&b, "| mean reserved rate | %.2f fps |\n", r.MeanReservedFPS)
	fmt.Fprintf(&b, "| peak node util | %.3f |\n", r.PeakNodeUtil)
	fmt.Fprintf(&b, "| peak link util | %.3f |\n", r.PeakLinkUtil)
	fmt.Fprintf(&b, "| rebalance moves | %d |\n", r.RebalanceMoves)
	fmt.Fprintf(&b, "| rebalance mean gain | %.3f |\n", r.RebalanceMeanGain)
	return b.String()
}
