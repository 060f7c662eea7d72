package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
)

// This file is the SLO report's differential test. SLOReport scores every
// deployment on one shared snapshot of the composed view, rewriting only the
// deployment's path (model.ResidualNetwork.ScorePath). The reference below
// is the full-materialization scorer that design replaced: it builds the
// whole network once per deployment with that deployment's reservation
// subtracted from every load. The two must agree in every field, floats
// compared by bits, after every step of seeded churn traces at K=1, 3 and 8
// and after recovery from the write-ahead log.

// referenceFraction is the residual-fraction clamp every materialization
// applies: the unreserved remainder of the effective capacity, floored at
// model.MinResidualFraction and capped at nominal.
func referenceFraction(capFactor, load float64) float64 {
	f := capFactor - load
	if f < model.MinResidualFraction {
		return model.MinResidualFraction
	}
	if f > 1 {
		return 1
	}
	return f
}

// referenceStatus scores d on the residual view rn by materializing the
// whole network, through rn's public accessors, with d's reservation
// subtracted from every node and link load, and evaluating the mapping on it.
func referenceStatus(t *testing.T, rn *model.ResidualNetwork, d *Deployment, shard string) SLOStatus {
	t.Helper()
	st := SLOStatus{
		ID:          d.ID,
		Tenant:      d.Tenant,
		Shard:       shard,
		MaxDelayMs:  d.SLO.MaxDelayMs,
		ReservedFPS: d.ReservedFPS,
	}
	for _, v := range d.Assignment {
		if rn.NodeCapacity(v) == 0 {
			st.DelayMs = math.Inf(1)
			st.Reason = fmt.Sprintf("node v%d hosting a module is down", v)
			return st
		}
	}
	// res reads d's reservation element by element: its load on an
	// otherwise empty view of the same network.
	base, res := rn.Base(), model.NewResidualNetwork(rn.Base())
	res.SetLoad([]model.Reservation{d.reservation})
	nodes := append([]model.Node(nil), base.Nodes...)
	for i := range nodes {
		v := model.NodeID(i)
		nodes[i].Power = base.Nodes[i].Power * referenceFraction(rn.NodeCapacity(v), rn.NodeLoad(v)-res.NodeLoad(v))
	}
	links := append([]model.Link(nil), base.Links...)
	for i := range links {
		links[i].BWMbps = base.Links[i].BWMbps * referenceFraction(rn.LinkCapacity(i), rn.LinkLoad(i)-res.LinkLoad(i))
	}
	net, err := model.NewNetwork(nodes, links)
	if err != nil {
		t.Fatalf("%s: reference network: %v", d.ID, err)
	}
	m := model.NewMapping(d.Assignment)
	st.DelayMs = model.TotalDelay(net, d.pipe, m, d.cost)
	st.RateFPS = model.FrameRate(model.SharedBottleneck(net, d.pipe, m))
	switch {
	case math.IsInf(st.DelayMs, 1):
		st.Reason = "mapping traverses an unusable path"
	case d.SLO.MaxDelayMs > 0 && st.DelayMs > d.SLO.MaxDelayMs:
		st.Reason = fmt.Sprintf("delay %.3f ms exceeds SLO %.3f ms", st.DelayMs, d.SLO.MaxDelayMs)
	case st.RateFPS < d.ReservedFPS:
		st.Reason = fmt.Sprintf("sustainable rate %.3f fps below reserved %.3f fps", st.RateFPS, d.ReservedFPS)
	default:
		st.Compliant = true
	}
	return st
}

// referenceSLOReport is SLOReport with every deployment scored by
// referenceStatus on the composed view.
func referenceSLOReport(t *testing.T, s *ShardedFleet) SLOReport {
	t.Helper()
	var rep SLOReport
	s.composed(func(rn *model.ResidualNetwork) {
		for _, f := range s.regions {
			for _, d := range f.order {
				rep.add(referenceStatus(t, rn, d, shardLabel(f.idPrefix)))
			}
		}
	})
	return rep
}

// reportDiff describes the first difference between two reports, comparing
// every status field and floats by bits; "" means bit-identical.
func reportDiff(a, b SLOReport) string {
	if a.Evaluated != b.Evaluated || a.Compliant != b.Compliant || a.Violating != b.Violating || len(a.Statuses) != len(b.Statuses) {
		return fmt.Sprintf("tallies %d/%d/%d over %d statuses vs %d/%d/%d over %d",
			a.Evaluated, a.Compliant, a.Violating, len(a.Statuses), b.Evaluated, b.Compliant, b.Violating, len(b.Statuses))
	}
	for i := range a.Statuses {
		va, vb := reflect.ValueOf(a.Statuses[i]), reflect.ValueOf(b.Statuses[i])
		for j := 0; j < va.NumField(); j++ {
			fa, fb := va.Field(j), vb.Field(j)
			same := fa.Interface() == fb.Interface()
			if fa.Kind() == reflect.Float64 {
				same = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
			}
			if !same {
				return fmt.Sprintf("status %d (%s) field %s: %v vs %v", i, a.Statuses[i].ID, va.Type().Field(j).Name, fa, fb)
			}
		}
	}
	return ""
}

// diffRequest draws a request whose SLO churn on its path can break: a
// min-delay placement bounded just above the delay it is admitted at (found
// by a probe deploy and release), a streaming placement with a stated rate,
// or a streaming placement reserving all the rate it achieves. Three in four
// requests stay inside one cluster of spec.
func diffRequest(t *testing.T, m *ShardedFleet, spec gen.ClusterSpec, rng *rand.Rand, tag int) Request {
	t.Helper()
	pl, err := gen.Pipeline(3+rng.IntN(3), gen.DefaultRanges(), rng)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	a, b := rng.IntN(spec.Clusters), rng.IntN(spec.Clusters)
	if rng.IntN(4) > 0 {
		b = a
	}
	src := model.NodeID(a*spec.Nodes + rng.IntN(spec.Nodes))
	dst := model.NodeID(b*spec.Nodes + rng.IntN(spec.Nodes))
	if dst == src {
		dst = model.NodeID(b*spec.Nodes + (int(dst)-b*spec.Nodes+1)%spec.Nodes)
	}
	req := Request{Tenant: fmt.Sprintf("t%d", tag), Pipeline: pl, Src: src, Dst: dst, Objective: model.MaxFrameRate}
	switch tag % 3 {
	case 0:
		req.Objective = model.MinDelay
		if d, err := m.Deploy(req); err == nil {
			if err := m.Release(d.ID); err != nil {
				t.Fatalf("release probe: %v", err)
			}
			req.SLO.MaxDelayMs = 1.05 * d.DelayMs
		}
	case 1:
		req.SLO.MinRateFPS = 1 + 2*rng.Float64()
	}
	return req
}

// pathChurn draws a degrade or drift event on an element of a random live
// deployment's path: a link between consecutive groups (degrade or drift) or
// a group's node (drift). ok is false when nothing is deployed.
func pathChurn(m *ShardedFleet, rng *rand.Rand) (ev model.ChurnEvent, ok bool) {
	deps := m.List()
	if len(deps) == 0 {
		return ev, false
	}
	walk := model.NewMapping(deps[rng.IntN(len(deps))].Assignment).Walk()
	i := rng.IntN(len(walk))
	if i+1 == len(walk) || rng.IntN(2) == 0 {
		return model.ChurnEvent{Kind: model.CapacityDrift, Target: model.TargetNode, Node: walk[i], Factor: 0.4 + 0.85*rng.Float64()}, true
	}
	link, _ := m.Network().LinkBetween(walk[i], walk[i+1])
	if rng.IntN(2) == 0 {
		return model.ChurnEvent{Kind: model.LinkDegrade, Link: link.ID, Factor: 0.2 + 0.6*rng.Float64()}, true
	}
	return model.ChurnEvent{Kind: model.CapacityDrift, Target: model.TargetLink, Link: link.ID, Factor: 0.4 + 0.85*rng.Float64()}, true
}

// TestSLOReportDifferential drives a WAL-backed manager at K=1, 3 and 8
// through a populated fleet, a gen.DefaultChurnSpec trace, and a trace of
// degrade and drift events aimed at live paths, with repairs after every
// other event and periodic rebalances, and requires SLOReport to equal the
// full-materialization reference bit for bit after every step and after
// recovery. It fails unless the compared reports include down-node,
// delay-over-SLO and rate-below-reserved violations.
func TestSLOReportDifferential(t *testing.T) {
	spec := gen.ClusterSpec{Clusters: 8, Nodes: 6, Links: 20, InterLinks: 24}
	net, err := gen.ClusteredNetwork(spec, gen.DefaultRanges(), gen.RNG(17))
	if err != nil {
		t.Fatal(err)
	}
	reasons := map[string]int{}
	tally := func(rep SLOReport) {
		for _, st := range rep.Statuses {
			for _, prefix := range []string{"node v", "delay ", "sustainable rate "} {
				if strings.HasPrefix(st.Reason, prefix) {
					reasons[prefix]++
				}
			}
		}
	}
	for _, k := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			dir := t.TempDir()
			m, l := newWALManager(t, dir, net, k)
			check := func(step string) {
				t.Helper()
				got := m.SLOReport()
				if d := reportDiff(got, referenceSLOReport(t, m)); d != "" {
					t.Fatalf("after %s: SLOReport diverges from the reference: %s", step, d)
				}
				tally(got)
			}
			churn := func(step string, ev model.ChurnEvent, repair bool) {
				t.Helper()
				batch := []model.ChurnEvent{ev}
				if err := m.ApplyChurn(batch); err != nil {
					t.Fatalf("%s %v: %v", step, ev, err)
				}
				check(step)
				if repair {
					m.Repair(m.Affected(batch))
					check(step + " repair")
				}
			}

			rng := gen.RNG(uint64(100 + k))
			tag := 0
			deploy := func() {
				if _, err := m.Deploy(diffRequest(t, m, spec, rng, tag)); err != nil && !errors.Is(err, ErrRejected) {
					t.Fatalf("deploy %d: %v", tag, err)
				}
				tag++
			}
			for tag < 36 {
				deploy()
			}
			check("population")

			trace, err := gen.Churn(gen.DefaultChurnSpec(), net, gen.RNG(uint64(200+k)))
			if err != nil {
				t.Fatal(err)
			}
			for i, te := range trace {
				churn(fmt.Sprintf("default event %d", i), te.Event, i%2 == 1)
				if i%10 == 9 {
					m.Rebalance(RebalanceOptions{})
					check(fmt.Sprintf("rebalance after event %d", i))
					deploy()
					check(fmt.Sprintf("deploy after event %d", i))
				}
			}
			for i, ev := range gen.Heal(trace) {
				churn(fmt.Sprintf("heal event %d", i), ev, true)
			}
			for i := 0; i < 40; i++ {
				ev, ok := pathChurn(m, rng)
				if !ok {
					break
				}
				churn(fmt.Sprintf("path event %d", i), ev, i%2 == 1)
				if i%10 == 9 {
					m.Rebalance(RebalanceOptions{})
					check(fmt.Sprintf("rebalance after path event %d", i))
				}
			}

			live := m.SLOReport()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			r, _ := recoverDir(t, dir)
			got := r.Manager.SLOReport()
			if d := reportDiff(got, referenceSLOReport(t, r.Manager)); d != "" {
				t.Fatalf("after recovery: SLOReport diverges from the reference: %s", d)
			}
			if d := reportDiff(got, live); d != "" {
				t.Fatalf("recovered SLOReport differs from the live one: %s", d)
			}
		})
	}
	for _, prefix := range []string{"node v", "delay ", "sustainable rate "} {
		if reasons[prefix] == 0 {
			t.Errorf("no compared status had a %q violation (tallies %v)", prefix, reasons)
		}
	}
	t.Logf("violations compared: %v", reasons)
}
