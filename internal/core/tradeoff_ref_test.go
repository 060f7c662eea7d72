package core

import (
	"fmt"
	"math"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/graph"
	"elpc/internal/model"
)

// This file keeps the rate–delay DP kernel MaxFrameRateWithBudget replaced
// — one that reads every in-edge's link, evaluates every parent entry of
// every in-edge, and scans the whole cell for a dominating entry on every
// insertion — as the reference the pruned kernel is held to.
// refMaxFrameRateWithBudget and refInsertPareto are that kernel and its
// insertPareto, on plainly allocated cells and bitsets instead of the
// context's slabs and arena; the cells come back too, so a test can compare
// every cell of the grid, not only the mapping read off the last one.

// TestTradeoffMatchesReference holds MaxFrameRateWithBudget to the
// reference cell for cell — every entry's bottleneck and delay bit for bit,
// its back-pointer and its consumed-node set — and to its mapping and error
// text, on Suite20 cases 1–13 at beams 1, 2, 4 and 8 and on random tiny
// problems at beams 1 to 8 (a few past maxSlabBeam too), both as generated
// and with small-integer costs, whose exact ties in bottleneck and delay
// exercise the tie rules. Each problem is solved unconstrained, at every
// budget of the 8-point ladder FrontBudgets builds, and at every delay the
// unconstrained solve's last cell holds: a candidate whose delay equals
// the budget exactly is what a bound loosened from > to >= would wrongly
// refuse.
func TestTradeoffMatchesReference(t *testing.T) {
	sc := NewSolveContext()
	solves := 0
	check := func(name string, p *model.Problem, beam int) {
		for _, budget := range referenceBudgets(t, sc, p, beam) {
			opt := TradeoffOptions{Beam: beam, DelayBudgetMs: budget}
			if diff := tradeoffDiff(sc, p, opt); diff != "" {
				t.Fatalf("%s beam %d budget %v: %s", name, beam, budget, diff)
			}
			solves++
		}
	}
	for _, spec := range gen.Suite20()[:13] {
		p, err := spec.Build()
		if err != nil {
			t.Fatalf("suite case %d: %v", spec.ID, err)
		}
		for _, beam := range []int{1, 2, 4, 8} {
			check(fmt.Sprintf("suite%d", spec.ID), p, beam)
		}
	}
	for seed := uint64(0); seed < 400; seed++ {
		p, err := gen.RandomTinyProblem(gen.RNG(seed+27000), 8, 14)
		if err != nil {
			t.Fatalf("tiny seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("tiny%d", seed), p, 1+int(seed%8))
		check(fmt.Sprintf("tied%d", seed), tiedCosts(t, p, seed), 1+int(seed%8))
		if seed%40 == 0 {
			// Past maxSlabBeam, cells start empty and grow per survivor.
			check(fmt.Sprintf("tiny%d", seed), p, maxSlabBeam+1)
		}
	}
	t.Logf("%d budgeted solves matched the reference", solves)
}

// FuzzTradeoffMatchesReference draws a random tiny problem from seed — with
// small-integer costs when tied is set — a beam of 1 to 16 and a budget,
// and holds MaxFrameRateWithBudget to the reference cell for cell. budget 0
// solves unconstrained; with its top bit set it picks one of the delays the
// unconstrained reference's last cell holds, exactly; otherwise its low 15
// bits scale the unconstrained mapping's delay by 0 to 2.
func FuzzTradeoffMatchesReference(f *testing.F) {
	f.Add(uint64(1), false, uint8(3), uint16(0))
	f.Add(uint64(2), false, uint8(0), uint16(0x8000))
	f.Add(uint64(3), true, uint8(1), uint16(0x8001))
	f.Add(uint64(4), false, uint8(7), uint16(16384))
	f.Add(uint64(5), true, uint8(15), uint16(9000))
	f.Add(uint64(6), true, uint8(2), uint16(1))

	sc := NewSolveContext()
	f.Fuzz(func(t *testing.T, seed uint64, tied bool, beam uint8, budget uint16) {
		p, err := gen.RandomTinyProblem(gen.RNG(seed), 8, 16)
		if err != nil {
			t.Skip()
		}
		if tied {
			p = tiedCosts(t, p, seed)
		}
		opt := TradeoffOptions{Beam: 1 + int(beam%16)}
		if budget != 0 {
			cells, m, err := refMaxFrameRateWithBudget(p, opt)
			if err != nil {
				t.Skip()
			}
			if budget&0x8000 != 0 {
				final := cells[p.Pipe.N()-1][p.Dst]
				opt.DelayBudgetMs = final[int(budget&0x7fff)%len(final)].delay
			} else {
				opt.DelayBudgetMs = model.TotalDelay(p.Net, p.Pipe, m, p.Cost) * float64(budget) / 16384
			}
		}
		if diff := tradeoffDiff(sc, p, opt); diff != "" {
			t.Fatalf("beam %d budget %v: %s", opt.Beam, opt.DelayBudgetMs, diff)
		}
	})
}

// referenceBudgets lists the budgets TestTradeoffMatchesReference solves p
// at: 0 (unconstrained), the FrontBudgets ladder, and the exact delays of
// the unconstrained reference solve's last cell.
func referenceBudgets(t *testing.T, sc *SolveContext, p *model.Problem, beam int) []float64 {
	t.Helper()
	budgets := []float64{0}
	cells, _, err := refMaxFrameRateWithBudget(p, TradeoffOptions{Beam: beam})
	if err != nil {
		return budgets
	}
	ladder, err := sc.frontBudgets(p, 8, beam)
	if err != nil {
		t.Fatalf("front budgets: %v", err)
	}
	budgets = append(budgets, ladder...)
	for _, e := range cells[p.Pipe.N()-1][p.Dst] {
		budgets = append(budgets, e.delay)
	}
	return budgets
}

// tiedCosts returns p on the same topology and endpoints with every cost a
// small integer number of milliseconds: every module moves 1000 bytes, at
// complexity 1 or 2, over links of 1, 2, 4 or 8 Mbit/s with an MLD of 0, 1
// or 2 ms, on nodes of power 125, 250, 500 or 1000. Sums of such costs are
// exact, so candidates tie often, in bottleneck, in delay and in both.
func tiedCosts(t *testing.T, p *model.Problem, seed uint64) *model.Problem {
	t.Helper()
	rng := gen.RNG(seed ^ 0x71ed)
	nodes := append([]model.Node(nil), p.Net.Nodes...)
	for i := range nodes {
		nodes[i].Power = []float64{125, 250, 500, 1000}[rng.IntN(4)]
	}
	links := append([]model.Link(nil), p.Net.Links...)
	for i := range links {
		links[i].BWMbps = []float64{1, 2, 4, 8}[rng.IntN(4)]
		links[i].MLDms = float64(rng.IntN(3))
	}
	modules := append([]model.Module(nil), p.Pipe.Modules...)
	for j := range modules {
		modules[j].InBytes, modules[j].OutBytes = 1000, 1000
		if j > 0 {
			modules[j].Complexity = float64(1 + rng.IntN(2))
		}
	}
	net, err := model.NewNetwork(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := model.NewPipeline(modules)
	if err != nil {
		t.Fatal(err)
	}
	q := *p
	q.Net, q.Pipe = net, pipe
	return &q
}

// tradeoffDiff solves p with sc and with the reference and describes the
// first difference: error text, mapping, or any cell of the grid. It
// returns "" when the two agree.
func tradeoffDiff(sc *SolveContext, p *model.Problem, opt TradeoffOptions) string {
	wantCells, want, wantErr := refMaxFrameRateWithBudget(p, opt)
	got, gotErr := sc.MaxFrameRateWithBudget(p, opt)
	if errString(gotErr) != errString(wantErr) {
		return fmt.Sprintf("error %q, reference %q", errString(gotErr), errString(wantErr))
	}
	if !sameAssign(got, want) {
		return fmt.Sprintf("mapping %v, reference %v", got, want)
	}
	if wantCells == nil {
		return ""
	}
	gotCells := sc.trRows[:len(wantCells)]
	for j, row := range wantCells {
		for v, wl := range row {
			gl := gotCells[j][v]
			if len(gl) != len(wl) {
				return fmt.Sprintf("cell (%d, %d) holds %d entries, reference %d", j, v, len(gl), len(wl))
			}
			for i, w := range wl {
				g := gl[i]
				if math.Float64bits(g.val) != math.Float64bits(w.val) ||
					math.Float64bits(g.delay) != math.Float64bits(w.delay) ||
					g.parent != w.parent || g.parentIdx != w.parentIdx {
					return fmt.Sprintf("cell (%d, %d) entry %d is %+v, reference %+v", j, v, i, g, w)
				}
				if fmt.Sprint(g.used) != fmt.Sprint(w.used) {
					return fmt.Sprintf("cell (%d, %d) entry %d consumed %v, reference %v", j, v, i, g.used, w.used)
				}
			}
		}
	}
	return ""
}

// refMaxFrameRateWithBudget is the reference kernel. cells is nil when the
// solve fails before the grid is built.
func refMaxFrameRateWithBudget(p *model.Problem, opt TradeoffOptions) (cells [][][]tradeEntry, m *model.Mapping, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	beam := opt.Beam
	if beam <= 0 {
		beam = DefaultBeam
	}
	if beam > maxTradeoffBeam {
		return nil, nil, fmt.Errorf("core: tradeoff: beam %d exceeds %d", beam, maxTradeoffBeam)
	}
	budget := opt.DelayBudgetMs
	if budget <= 0 {
		budget = math.Inf(1)
	}
	n := p.Pipe.N()
	k := p.Net.N()
	if n > k {
		return nil, nil, fmt.Errorf("core: tradeoff: %d modules exceed %d nodes without reuse: %w", n, k, model.ErrInfeasible)
	}
	if p.Src == p.Dst {
		return nil, nil, fmt.Errorf("core: tradeoff: source equals destination without reuse: %w", model.ErrInfeasible)
	}
	topo := p.Net.Topology()
	toDst := topo.HopsTo(int(p.Dst))

	cells = make([][][]tradeEntry, n)
	for j := range cells {
		cells[j] = make([][]tradeEntry, k)
	}
	srcUsed := graph.NewBitset(k)
	srcUsed.Set(int(p.Src))
	cells[0][p.Src] = append(cells[0][p.Src], tradeEntry{val: 0, delay: 0, parent: -1, parentIdx: -1, used: srcUsed})

	for j := 1; j < n; j++ {
		inBytes := p.Pipe.Modules[j].InBytes
		remaining := n - 1 - j
		for v := 0; v < k; v++ {
			if toDst[v] == graph.Unreachable || toDst[v] > remaining {
				continue
			}
			if (remaining == 0) != (v == int(p.Dst)) {
				continue
			}
			compute := p.Pipe.ComputeTime(j, p.Net.Power(model.NodeID(v)))
			entries := cells[j][v]
			for _, eid := range topo.InEdges(v) {
				u := topo.Edge(int(eid)).From
				link := p.Net.Links[eid]
				transferBusy := link.TransferTime(inBytes, false)
				transferDelay := link.TransferTime(inBytes, p.Cost.IncludeMLDInDelay)
				for idx, pe := range cells[j-1][u] {
					if pe.used.Has(v) {
						continue
					}
					delay := pe.delay + compute + transferDelay
					if delay > budget {
						continue
					}
					val := pe.val
					if compute > val {
						val = compute
					}
					if transferBusy > val {
						val = transferBusy
					}
					entries = refInsertPareto(entries, tradeEntry{
						val: val, delay: delay, parent: int32(u), parentIdx: int16(idx),
					}, beam)
				}
			}
			for i := range entries {
				e := &entries[i]
				e.used = cells[j-1][e.parent][e.parentIdx].used.Clone()
				e.used.Set(v)
			}
			cells[j][v] = entries
		}
	}

	final := cells[n-1][p.Dst]
	if len(final) == 0 {
		return cells, nil, fmt.Errorf("core: tradeoff: no simple path within delay budget %.3g ms: %w", budget, model.ErrInfeasible)
	}
	assign := make([]model.NodeID, n)
	assign[n-1] = p.Dst
	node, idx := int32(p.Dst), int16(0)
	for j := n - 1; j >= 1; j-- {
		e := cells[j][node][idx]
		assign[j-1] = model.NodeID(e.parent)
		node, idx = e.parent, e.parentIdx
	}
	if assign[0] != p.Src {
		return cells, nil, fmt.Errorf("core: tradeoff: reconstruction did not reach source")
	}
	return cells, model.NewMapping(assign), nil
}

// refInsertPareto is the reference insertPareto: it scans every entry for
// one that dominates e, filters out the entries e dominates, and inserts e
// after every entry with an equal or smaller bottleneck, capped at beam.
func refInsertPareto(list []tradeEntry, e tradeEntry, beam int) []tradeEntry {
	dominates := func(a, b tradeEntry) bool {
		return (a.val < b.val && a.delay <= b.delay) || (a.val <= b.val && a.delay < b.delay)
	}
	for _, x := range list {
		if dominates(x, e) {
			return list
		}
	}
	out := list[:0]
	for _, x := range list {
		if !dominates(e, x) {
			out = append(out, x)
		}
	}
	list = out
	pos := len(list)
	for i, x := range list {
		if e.val < x.val {
			pos = i
			break
		}
	}
	list = append(list, tradeEntry{})
	copy(list[pos+1:], list[pos:])
	list[pos] = e
	if len(list) > beam {
		list = list[:beam]
	}
	return list
}
