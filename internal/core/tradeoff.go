package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"elpc/internal/graph"
	"elpc/internal/model"
)

// TradeoffOptions tunes the bicriteria (frame rate, end-to-end delay) DP.
type TradeoffOptions struct {
	// Beam bounds the number of Pareto-nondominated (bottleneck, delay)
	// partial paths retained per cell; <= 0 means DefaultBeam.
	Beam int
	// DelayBudgetMs prunes partial paths whose accumulated end-to-end
	// delay (Eq. 1 with the problem's cost options) exceeds the budget.
	// +Inf (or 0/negative, normalized to +Inf) disables the constraint.
	DelayBudgetMs float64
}

// maxTradeoffBeam bounds the bicriteria beam so parentIdx fits in int16.
const maxTradeoffBeam = 1<<15 - 1

// tradeEntry is a bicriteria DP cell entry: bottleneck so far, accumulated
// delay, predecessor, consumed node set.
type tradeEntry struct {
	val       float64 // bottleneck period
	delay     float64 // accumulated Eq. 1 delay
	parent    int32
	parentIdx int16
	used      graph.Bitset
}

// MaxFrameRateWithBudget solves the streaming mapping problem under an
// additional interactivity constraint using a pooled SolveContext. See
// SolveContext.MaxFrameRateWithBudget.
func MaxFrameRateWithBudget(p *model.Problem, opt TradeoffOptions) (*model.Mapping, error) {
	sc := acquireCtx()
	defer releaseCtx(sc)
	return sc.MaxFrameRateWithBudget(p, opt)
}

// MaxFrameRateWithBudget solves the streaming mapping problem of Section
// 3.1.2 under an additional interactivity constraint: among no-reuse simple-
// path mappings whose end-to-end delay stays within the budget, (greedily)
// minimize the bottleneck period. This models streaming applications that
// must also bound per-frame latency — a natural bicriteria extension of the
// paper's two separate objectives.
//
// Cells retain Pareto-nondominated (bottleneck, delay) pairs, capped at
// Beam entries (kept in ascending bottleneck order), so the algorithm is a
// heuristic like the paper's single-criterion DP. The candidate loop skips
// the in-edges and parent entries whose every candidate the budget or the
// cell would refuse, by the label-dominance bounds of multicriteria
// label-setting (Martins 1984). The skips are exact: every cell ends with
// the entries, in the order, that evaluating every candidate leaves.
func (sc *SolveContext) MaxFrameRateWithBudget(p *model.Problem, opt TradeoffOptions) (*model.Mapping, error) {
	t0 := time.Now()
	defer tradeoffSeconds.ObserveSince(t0)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	beam := opt.Beam
	if beam <= 0 {
		beam = DefaultBeam
	}
	if beam > maxTradeoffBeam {
		return nil, fmt.Errorf("core: tradeoff: beam %d exceeds %d", beam, maxTradeoffBeam)
	}
	budget := opt.DelayBudgetMs
	if budget <= 0 {
		budget = math.Inf(1)
	}
	n := p.Pipe.N()
	k := p.Net.N()
	if n > k {
		return nil, fmt.Errorf("core: tradeoff: %d modules exceed %d nodes without reuse: %w", n, k, model.ErrInfeasible)
	}
	if p.Src == p.Dst {
		return nil, fmt.Errorf("core: tradeoff: source equals destination without reuse: %w", model.ErrInfeasible)
	}
	topo := p.Net.Topology()
	toDst := topo.HopsTo(int(p.Dst))

	sc.resetArena()
	cells := sc.trGrid(n, k, beam)
	srcUsed := sc.newBitset(k)
	srcUsed.Set(int(p.Src))
	cells[0][p.Src] = append(cells[0][p.Src], tradeEntry{val: 0, delay: 0, parent: -1, parentIdx: -1, used: srcUsed})

	for j := 1; j < n; j++ {
		inBytes := p.Pipe.Modules[j].InBytes
		remaining := n - 1 - j
		prev := cells[j-1]
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
				pes := prev[u]
				if len(pes) == 0 {
					continue
				}
				link := &p.Net.Links[eid]
				busy := inBytes / link.BytesPerMs()
				transferDelay := busy
				if p.Cost.IncludeMLDInDelay {
					transferDelay += link.MLDms
				}
				// The edge's corner pairs the least bottleneck of its parents
				// (the first) with the least delay (the last), summed as a
				// candidate's delay is: every candidate is no better in
				// either, so when the budget or the cell refuses the corner
				// it refuses them all.
				cornerDelay := pes[len(pes)-1].delay + compute + transferDelay
				if cornerDelay > budget || refuses(entries, bottleneck(pes[0].val, compute, busy), cornerDelay, beam) {
					continue
				}
				for idx := range pes {
					pe := &pes[idx]
					// Parents ascend by bottleneck: once a full cell refuses
					// this one's, it refuses every later one's.
					if len(entries) == beam && pe.val > entries[beam-1].val {
						break
					}
					if pe.used.Has(v) {
						continue
					}
					delay := pe.delay + compute + transferDelay
					if delay > budget {
						continue
					}
					entries = insertPareto(entries, tradeEntry{
						val: bottleneck(pe.val, compute, busy), delay: delay, parent: int32(u), parentIdx: int16(idx),
					}, beam)
				}
			}
			for i := range entries {
				e := &entries[i]
				e.used = sc.cloneBitset(prev[e.parent][e.parentIdx].used)
				e.used.Set(v)
			}
			cells[j][v] = entries
		}
	}

	final := cells[n-1][p.Dst]
	if len(final) == 0 {
		return nil, fmt.Errorf("core: tradeoff: no simple path within delay budget %.3g ms: %w", budget, model.ErrInfeasible)
	}
	// Best bottleneck is first (entries kept sorted by val).
	assign := make([]model.NodeID, n)
	assign[n-1] = p.Dst
	node, idx := int32(p.Dst), int16(0)
	for j := n - 1; j >= 1; j-- {
		e := cells[j][node][idx]
		assign[j-1] = model.NodeID(e.parent)
		node, idx = e.parent, e.parentIdx
	}
	if assign[0] != p.Src {
		return nil, fmt.Errorf("core: tradeoff: reconstruction did not reach source")
	}
	return model.NewMapping(assign), nil
}

// bottleneck is a candidate's Eq. 2 period: the largest of its parent's,
// its module's compute time and its hop's transfer time.
func bottleneck(parent, compute, busy float64) float64 {
	val := parent
	if compute > val {
		val = compute
	}
	if busy > val {
		val = busy
	}
	return val
}

// A cell's list holds only (val, delay)-nondominated entries in ascending
// val order. Dominance is strict (better in one criterion, no worse in the
// other): entries with identical costs are kept as separate candidates
// because they may consume different node sets, and that path diversity is
// what protects the DP from dead ends. So delays descend along the list,
// strictly between distinct vals, and entries with equal vals hold equal
// delays. The functions below lean on that invariant; none of it holds for
// a NaN cost, which no problem of finite non-negative inputs produces.

// paretoPos returns where a candidate (val, delay) goes in list, after
// every entry whose val is no greater, and whether an entry dominates it.
// The entry just before pos has the least delay among the entries that
// could, so it alone is tested.
func paretoPos(list []tradeEntry, val, delay float64) (pos int, dominated bool) {
	pos = len(list)
	for i := range list {
		if val < list[i].val {
			pos = i
			break
		}
	}
	if pos > 0 {
		y := &list[pos-1]
		dominated = y.delay < delay || (y.val < val && y.delay <= delay)
	}
	return pos, dominated
}

// refuses reports whether insertPareto would leave list as it is for a
// candidate (val, delay): it is dominated, or it goes past the end of a
// full list without dominating the last entry. Both are upward closed, so
// list refuses every candidate no better in either criterion too.
func refuses(list []tradeEntry, val, delay float64, beam int) bool {
	pos, dominated := paretoPos(list, val, delay)
	if dominated {
		return true
	}
	if pos < beam {
		return false
	}
	last := &list[pos-1]
	return val > last.val || delay >= last.delay
}

// insertPareto inserts e into list, dropping the entries e dominates, and
// caps the list at beam. The dominated entries are contiguous: the equal-val
// entries just before e's position when e has less delay, and the entries
// from that position on whose delay is no less than e's. The list may
// momentarily hold beam+1 entries before truncation, which slab-backed
// cells size for so the append never reallocates.
func insertPareto(list []tradeEntry, e tradeEntry, beam int) []tradeEntry {
	pos, dominated := paretoPos(list, e.val, e.delay)
	if dominated {
		return list
	}
	lo := pos
	for lo > 0 && list[lo-1].val == e.val && e.delay < list[lo-1].delay {
		lo--
	}
	hi := pos
	for hi < len(list) && e.delay <= list[hi].delay {
		hi++
	}
	if lo < hi {
		list[lo] = e
		return list[:lo+1+copy(list[lo+1:], list[hi:])]
	}
	if pos == beam {
		return list // past the end of a full list
	}
	list = append(list, tradeEntry{})
	copy(list[pos+1:], list[pos:])
	list[pos] = e
	if len(list) > beam {
		list = list[:beam]
	}
	return list
}

// TradeoffPoint is one (delay, rate) point on the rate–delay frontier,
// with the mapping achieving it.
type TradeoffPoint struct {
	DelayMs float64
	RateFPS float64
	Mapping *model.Mapping
}

// FrontBudgets computes the delay-budget ladder a Pareto sweep solves: an
// evenly spaced ramp from the (reuse-allowed) minimum delay — a lower bound
// for any no-reuse mapping — up to the delay of the unconstrained best-rate
// mapping. It is the shared first phase of the sequential ParetoFront and
// internal/engine's parallel sweep, so both solve byte-identical budget
// lists.
//
// points must be >= 1; points == 1 yields a single unconstrained budget
// (+Inf), making the one-point front the unconstrained best-rate mapping by
// definition. beam <= 0 selects DefaultBeam.
func FrontBudgets(p *model.Problem, points, beam int) ([]float64, error) {
	sc := acquireCtx()
	defer releaseCtx(sc)
	return sc.frontBudgets(p, points, beam)
}

// frontBudgets is FrontBudgets on this context.
func (sc *SolveContext) frontBudgets(p *model.Problem, points, beam int) ([]float64, error) {
	if points < 1 {
		return nil, fmt.Errorf("core: ParetoFront needs >= 1 point, got %d", points)
	}
	if points == 1 {
		// The single-point sweep never reaches the solver's own argument
		// checks through a failed budget (FrontPointAt deliberately folds
		// solve errors into "infeasible"), so validate here: a bad problem
		// or beam must surface as the input error it is.
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if beam > maxTradeoffBeam {
			return nil, fmt.Errorf("core: tradeoff: beam %d exceeds %d", beam, maxTradeoffBeam)
		}
		return []float64{math.Inf(1)}, nil
	}
	unconstrained, err := sc.MaxFrameRateWithBudget(p, TradeoffOptions{Beam: beam})
	if err != nil {
		return nil, err
	}
	hiDelay := model.TotalDelay(p.Net, p.Pipe, unconstrained, p.Cost)
	loDelay := sc.MinDelayValue(p) // reuse-allowed optimum: valid lower bound
	if math.IsInf(loDelay, 1) {
		loDelay = 0
	}
	budgets := make([]float64, points)
	for i := range budgets {
		budgets[i] = loDelay + (hiDelay-loDelay)*float64(i)/float64(points-1)
	}
	return budgets, nil
}

// FrontPointAt solves one sweep budget and scores the mapping; ok is false
// when the budget is infeasible (which the sweep simply skips).
func (sc *SolveContext) FrontPointAt(p *model.Problem, budget float64, beam int) (TradeoffPoint, bool) {
	opt := TradeoffOptions{Beam: beam}
	if !math.IsInf(budget, 1) {
		opt.DelayBudgetMs = budget
	}
	m, err := sc.MaxFrameRateWithBudget(p, opt)
	if err != nil {
		return TradeoffPoint{}, false
	}
	return TradeoffPoint{
		DelayMs: model.TotalDelay(p.Net, p.Pipe, m, p.Cost),
		RateFPS: model.FrameRate(model.Bottleneck(p.Net, p.Pipe, m)),
		Mapping: m,
	}, true
}

// FrontFilter reduces raw sweep points to the nondominated (delay, rate)
// set, sorted by ascending delay: lower delay and higher rate both win. It
// is deterministic in the raw order, which the sequential and parallel
// sweeps both produce in budget order.
func FrontFilter(raw []TradeoffPoint) []TradeoffPoint {
	sort.Slice(raw, func(a, b int) bool {
		if raw[a].DelayMs != raw[b].DelayMs {
			return raw[a].DelayMs < raw[b].DelayMs
		}
		return raw[a].RateFPS > raw[b].RateFPS
	})
	var front []TradeoffPoint
	bestRate := math.Inf(-1)
	for _, pt := range raw {
		if pt.RateFPS > bestRate+1e-12 {
			front = append(front, pt)
			bestRate = pt.RateFPS
		}
	}
	return front
}

// ParetoFront sweeps delay budgets between the (reuse-allowed) minimum
// delay and the delay of the unconstrained best-rate mapping, returning the
// nondominated (delay, rate) points discovered, using a pooled
// SolveContext. See SolveContext.ParetoFront.
func ParetoFront(p *model.Problem, points, beam int) ([]TradeoffPoint, error) {
	sc := acquireCtx()
	defer releaseCtx(sc)
	return sc.ParetoFront(p, points, beam)
}

// ParetoFront sweeps delay budgets between the (reuse-allowed) minimum
// delay — a lower bound for any no-reuse mapping — and the delay of the
// unconstrained best-rate mapping, returning the nondominated (delay, rate)
// points discovered. points controls the sweep resolution: points == 1
// degenerates to the single unconstrained best-rate point, points < 1 is an
// error. beam <= 0 selects DefaultBeam.
//
// internal/engine.ParetoFront fans the same sweep out over a worker pool
// and returns byte-identical results.
func (sc *SolveContext) ParetoFront(p *model.Problem, points, beam int) ([]TradeoffPoint, error) {
	t0 := time.Now()
	defer frontSeconds.ObserveSince(t0)
	budgets, err := sc.frontBudgets(p, points, beam)
	if err != nil {
		return nil, err
	}
	raw := make([]TradeoffPoint, 0, len(budgets))
	for _, budget := range budgets {
		if pt, ok := sc.FrontPointAt(p, budget, beam); ok {
			raw = append(raw, pt)
		}
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("core: ParetoFront: every budget infeasible: %w", model.ErrInfeasible)
	}
	return FrontFilter(raw), nil
}
