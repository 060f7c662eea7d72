package core

import (
	"fmt"
	"math"
	"time"

	"elpc/internal/graph"
	"elpc/internal/model"
)

// This file implements warm-start incremental solving: a WarmState retains
// the full DP grids of the previous solve of one logical problem (same
// pipeline, endpoints, and cost options) and, when the next solve differs
// only by node/link capacity values, recomputes just the invalidated cells.
//
// The contract is byte-identical results: a warm solve returns exactly the
// mapping (and error) a cold solve of the same problem would. It holds
// because invalidation is input-driven — a cell is recomputed iff its node's
// power changed, an incoming link changed, or a previous-column dependency
// cell changed — and recomputed cells run the very same float expressions in
// the same order as the cold solvers, so every untouched cell is
// bit-identical by induction. The differential equivalence suite
// (internal/harness) and the FuzzWarmInvalidation target enforce this
// invariant.

// WarmOutcome classifies how a warm-start solve was served.
type WarmOutcome uint8

const (
	// WarmRebuild: no reusable grids (first solve, signature change,
	// structural network change) — full DP, grids retained for next time.
	WarmRebuild WarmOutcome = iota
	// WarmPartial: a capacity delta invalidated a subset of cells; only
	// those were recomputed.
	WarmPartial
	// WarmHit: the inputs are bit-identical to the previous solve; the
	// retained grids were used as-is.
	WarmHit
	// WarmBypass: the problem exceeds the retention size caps; the solve
	// was delegated to the cold path and nothing was retained.
	WarmBypass
)

// String returns the outcome's telemetry label.
func (o WarmOutcome) String() string {
	switch o {
	case WarmRebuild:
		return "rebuild"
	case WarmPartial:
		return "partial"
	case WarmHit:
		return "hit"
	case WarmBypass:
		return "bypass"
	}
	return "unknown"
}

// WarmStats describes the last solve performed through a WarmState.
type WarmStats struct {
	Outcome WarmOutcome
	// Cells is the number of computed DP cells (columns 1..n-1 by nodes).
	Cells int
	// Recomputed is how many of them this solve actually recomputed.
	Recomputed int
}

// Retention size caps: a WarmState pins its grids (and the previous
// snapshot) between solves, so unlike the pooled SolveContext scratch this
// memory is held per live deployment. Oversized problems fall back to the
// cold path.
const (
	// warmMaxCells caps n*k for the min-delay grid (~768 KiB at the cap).
	warmMaxCells = 1 << 16
	// warmMaxEntries caps n*k*beam for the frame-rate grid.
	warmMaxEntries = 1 << 18
)

// WarmState retains DP grids across solves of one logical problem. It is
// not safe for concurrent use; internal/fleet keys one per deployment and
// solves with it one solve at a time, under the fleet lock.
type WarmState struct {
	// Problem signature the grids belong to. The pipeline is compared by
	// pointer: fleet requests carry stable *Pipeline values, and a new
	// pipeline object simply costs one rebuild.
	pipe   *model.Pipeline
	src    model.NodeID
	dst    model.NodeID
	cost   model.CostOptions
	hasSig bool

	// Diff and dirty-propagation scratch, reused across solves.
	nodeScratch []model.NodeID
	linkScratch []int
	staticMark  []bool
	staticList  []int32
	mark        []bool
	listA       []int32
	listB       []int32

	last WarmStats

	// snapBufs are up to two snapshot buffers cycled through
	// SnapshotScratch/TrackSnapshot: the grids always retain (at most) one
	// previous snapshot, so two buffers let the owner materialize each new
	// residual snapshot in place instead of allocating per solve.
	snapBufs [2]*model.Network

	md warmMinDelay
	fr warmFrameRate
}

// NewWarmState returns an empty warm state; grids grow on first solve.
func NewWarmState() *WarmState { return &WarmState{} }

// Last returns the stats of the most recent solve through this state.
func (ws *WarmState) Last() WarmStats { return ws.last }

// Reset drops the retained problem association (and pinned snapshots) while
// keeping the grown slabs, so a pooled WarmState can be handed to a new
// deployment without carrying the previous tenant's inputs.
func (ws *WarmState) Reset() {
	ws.hasSig = false
	ws.pipe = nil
	ws.md.net = nil
	ws.fr.net = nil
	ws.fr.topo = nil
	ws.fr.toDst = nil
	ws.last = WarmStats{}
}

// SnapshotScratch returns a snapshot buffer the retained grids do not
// reference — safe to overwrite for the next solve — or nil when none is
// free yet. Pass it to model.ResidualNetwork.SnapshotInto (or
// RegionSnapshotInto) and register the result with TrackSnapshot.
func (ws *WarmState) SnapshotScratch() *model.Network {
	for _, b := range ws.snapBufs {
		if b != nil && b != ws.md.net && b != ws.fr.net {
			return b
		}
	}
	return nil
}

// TrackSnapshot registers a freshly materialized snapshot so
// SnapshotScratch can hand it back once the grids stop referencing it.
func (ws *WarmState) TrackSnapshot(n *model.Network) {
	for _, b := range ws.snapBufs {
		if b == n {
			return
		}
	}
	for i, b := range ws.snapBufs {
		if b == nil || (b != ws.md.net && b != ws.fr.net) {
			ws.snapBufs[i] = n
			return
		}
	}
}

// ensureSig reports whether the problem matches the retained signature,
// storing the new signature (and invalidating both grids) when it does not.
func (ws *WarmState) ensureSig(p *model.Problem) bool {
	if ws.hasSig && ws.pipe == p.Pipe && ws.src == p.Src && ws.dst == p.Dst && ws.cost == p.Cost {
		return true
	}
	ws.pipe, ws.src, ws.dst, ws.cost = p.Pipe, p.Src, p.Dst, p.Cost
	ws.hasSig = true
	ws.md.net = nil
	ws.fr.net = nil
	// The cached hop distances are keyed on (topology, dst); a signature
	// change may move dst.
	ws.fr.toDst = nil
	return false
}

// note records per-solve stats and bumps the warm telemetry counters.
func (ws *WarmState) note(o WarmOutcome, cells, recomputed int) {
	ws.last = WarmStats{Outcome: o, Cells: cells, Recomputed: recomputed}
	switch o {
	case WarmRebuild:
		warmRebuildTotal.Inc()
	case WarmPartial:
		warmPartialTotal.Inc()
	case WarmHit:
		warmHitTotal.Inc()
	case WarmBypass:
		warmBypassTotal.Inc()
	}
	warmCellsRecomputed.Add(uint64(recomputed))
	if cells > recomputed {
		warmCellsReused.Add(uint64(cells - recomputed))
	}
}

// growMarks sizes the dirty-propagation mark arrays for k nodes. Both
// arrays are all-false between uses.
func (ws *WarmState) growMarks(k int) {
	if len(ws.staticMark) < k {
		ws.staticMark = make([]bool, k)
		ws.mark = make([]bool, k)
	}
}

// staticDirty collects the nodes whose cells are invalid in every column:
// those whose power changed plus the heads of links whose attributes
// changed. The returned list aliases ws.staticList; ws.staticMark[v] stays
// true for its members until clearStatic.
func (ws *WarmState) staticDirty(p *model.Problem, delta model.NetworkDelta) []int32 {
	ws.growMarks(p.Net.N())
	static := ws.staticList[:0]
	for _, v := range delta.Nodes {
		if !ws.staticMark[v] {
			ws.staticMark[v] = true
			static = append(static, int32(v))
		}
	}
	for _, id := range delta.Links {
		to := p.Net.Links[id].To
		if !ws.staticMark[to] {
			ws.staticMark[to] = true
			static = append(static, int32(to))
		}
	}
	ws.staticList = static
	return static
}

func (ws *WarmState) clearStatic(static []int32) {
	for _, v := range static {
		ws.staticMark[v] = false
	}
}

// diff compares the retained snapshot with the current one. full=true means
// no delta applies (nothing retained, or a structural change).
func (ws *WarmState) diff(prev *model.Network, p *model.Problem) (delta model.NetworkDelta, full bool) {
	if prev == nil {
		return model.NetworkDelta{}, true
	}
	d, ok := model.DiffNetworks(prev, p.Net, ws.nodeScratch, ws.linkScratch)
	if !ok {
		return model.NetworkDelta{}, true
	}
	// Keep the (possibly grown) scratch backing for the next diff.
	ws.nodeScratch, ws.linkScratch = d.Nodes, d.Links
	return d, false
}

// ---------------------------------------------------------------------------
// Min-delay warm solver

type warmMinDelay struct {
	// net is the snapshot the grids were computed against (nil = invalid).
	net  *model.Network
	n, k int
	val  []float64 // n*k values, row j = column of module j
	par  []int32   // n*k back-pointers
}

// grow sizes the grids for an n×k problem, reporting whether the layout
// changed (which invalidates any retained content).
func (md *warmMinDelay) grow(n, k int) (fresh bool) {
	if md.n == n && md.k == k {
		return false
	}
	md.n, md.k = n, k
	if cap(md.val) < n*k {
		md.val = make([]float64, n*k)
		md.par = make([]int32, n*k)
	}
	md.val = md.val[:n*k]
	md.par = md.par[:n*k]
	md.net = nil
	return true
}

// MinDelay is SolveContext.MinDelay with grid retention: identical results,
// but consecutive solves of the same logical problem only recompute the DP
// cells a capacity delta invalidates.
func (ws *WarmState) MinDelay(p *model.Problem) (*model.Mapping, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Pipe.N()
	k := p.Net.N()
	if n*k > warmMaxCells {
		ws.md.net = nil
		ws.note(WarmBypass, 0, 0)
		return MinDelay(p)
	}
	t0 := time.Now()
	defer minDelaySeconds.ObserveSince(t0)

	full := !ws.ensureSig(p)
	full = ws.md.grow(n, k) || full
	var delta model.NetworkDelta
	if !full {
		delta, full = ws.diff(ws.md.net, p)
	}

	cells := (n - 1) * k
	var recomputed int
	switch {
	case full:
		recomputed = ws.minDelayFull(p)
		ws.note(WarmRebuild, cells, recomputed)
	case delta.Empty():
		ws.note(WarmHit, cells, 0)
	default:
		recomputed = ws.minDelayPartial(p, delta)
		ws.note(WarmPartial, cells, recomputed)
	}
	ws.md.net = p.Net

	if math.IsInf(ws.md.val[(n-1)*k+int(p.Dst)], 1) {
		return nil, fmt.Errorf("core: MinDelay: destination %d unreachable from %d within %d modules: %w",
			p.Dst, p.Src, n, model.ErrInfeasible)
	}
	assign := make([]model.NodeID, n)
	assign[n-1] = p.Dst
	for j := n - 1; j >= 1; j-- {
		u := ws.md.par[j*k+int(assign[j])]
		if u < 0 {
			return nil, fmt.Errorf("core: MinDelay: broken back-pointer at module %d", j)
		}
		assign[j-1] = model.NodeID(u)
	}
	if assign[0] != p.Src {
		return nil, fmt.Errorf("core: MinDelay: reconstruction did not reach source (got %d)", assign[0])
	}
	return model.NewMapping(assign), nil
}

// minDelayCell computes one DP cell exactly like the cold solver's inner
// loop — same expressions, same order, so identical inputs give bit-identical
// outputs.
func minDelayCell(p *model.Problem, topo *graph.Graph, prow []float64, j, v int, inBytes float64) (float64, int32) {
	power := p.Net.Power(model.NodeID(v))
	compute := p.Pipe.ComputeTime(j, power)
	best := prow[v] + compute
	bestPar := int32(v)
	if math.IsInf(prow[v], 1) {
		best = math.Inf(1)
		bestPar = -1
	}
	for _, eid := range topo.InEdges(v) {
		u := topo.Edge(int(eid)).From
		if math.IsInf(prow[u], 1) {
			continue
		}
		link := p.Net.Links[eid]
		cand := prow[u] + compute + link.TransferTime(inBytes, p.Cost.IncludeMLDInDelay)
		if cand < best {
			best = cand
			bestPar = int32(u)
		}
	}
	return best, bestPar
}

// minDelayFull rebuilds the whole grid (the retained-state equivalent of a
// cold solve).
func (ws *WarmState) minDelayFull(p *model.Problem) int {
	n, k := p.Pipe.N(), p.Net.N()
	topo := p.Net.Topology()
	val, par := ws.md.val, ws.md.par
	row0 := val[:k]
	for v := range row0 {
		row0[v] = math.Inf(1)
	}
	row0[p.Src] = 0
	for j := 1; j < n; j++ {
		inBytes := p.Pipe.Modules[j].InBytes
		prow := val[(j-1)*k : j*k]
		row := val[j*k : (j+1)*k]
		parRow := par[j*k : (j+1)*k]
		for v := 0; v < k; v++ {
			row[v], parRow[v] = minDelayCell(p, topo, prow, j, v, inBytes)
		}
	}
	return (n - 1) * k
}

// minDelayPartial recomputes only the cells the delta invalidates: nodes in
// the static dirty set in every column, plus — per column — the propagation
// frontier (any node whose previous-column value changed, and its
// out-neighbors). A recomputed cell whose value is bit-equal to the retained
// one stops the propagation through it.
func (ws *WarmState) minDelayPartial(p *model.Problem, delta model.NetworkDelta) int {
	n, k := p.Pipe.N(), p.Net.N()
	topo := p.Net.Topology()
	val, par := ws.md.val, ws.md.par
	static := ws.staticDirty(p, delta)
	mark := ws.mark

	changedPrev := ws.listA[:0]
	curBuf := ws.listB
	recomputed := 0
	for j := 1; j < n; j++ {
		cur := curBuf[:0]
		for _, v := range static {
			if !mark[v] {
				mark[v] = true
				cur = append(cur, v)
			}
		}
		for _, u := range changedPrev {
			if !mark[u] {
				mark[u] = true
				cur = append(cur, u)
			}
			for _, eid := range topo.OutEdges(int(u)) {
				w := int32(topo.Edge(int(eid)).To)
				if !mark[w] {
					mark[w] = true
					cur = append(cur, w)
				}
			}
		}

		inBytes := p.Pipe.Modules[j].InBytes
		prow := val[(j-1)*k : j*k]
		row := val[j*k : (j+1)*k]
		parRow := par[j*k : (j+1)*k]
		changed := changedPrev[:0]
		for _, v32 := range cur {
			v := int(v32)
			mark[v] = false
			recomputed++
			best, bestPar := minDelayCell(p, topo, prow, j, v, inBytes)
			// Bit-equality, with +Inf == +Inf; NaN cannot occur (all terms
			// are sums/products of finite positive inputs).
			if best != row[v] {
				changed = append(changed, v32)
			}
			row[v] = best
			parRow[v] = bestPar
		}
		curBuf = cur
		changedPrev = changed
		if len(changedPrev) == 0 && len(static) == 0 {
			break
		}
	}
	ws.clearStatic(static)
	ws.listA, ws.listB = changedPrev, curBuf
	return recomputed
}

// ---------------------------------------------------------------------------
// Max-frame-rate warm solver

type warmFrameRate struct {
	// net is the snapshot the grids were computed against (nil = invalid).
	net        *model.Network
	n, k, beam int
	slab       []frEntry
	cells      [][]frEntry // n*k cells, each slab-backed with cap beam
	scratch    []frEntry   // previous-entry copy for change detection

	// Bitset arena for the consumed-node sets. Unlike the SolveContext
	// arena it cannot be recycled per solve — retained entries keep
	// pointing into it — so it only resets on full rebuilds, and
	// allocWords tracks growth since the last reset to bound drift.
	arena      []uint64
	arenaOff   int
	allocWords int

	// Cached hop distances to dst (pure function of the shared topology).
	topo  *graph.Graph
	toDst []int
}

func (fr *warmFrameRate) grow(n, k, beam int) (fresh bool) {
	if fr.n == n && fr.k == k && fr.beam == beam {
		return false
	}
	fr.n, fr.k, fr.beam = n, k, beam
	need := n * k * beam
	if cap(fr.slab) < need {
		fr.slab = make([]frEntry, need)
	}
	fr.slab = fr.slab[:need]
	if cap(fr.cells) < n*k {
		fr.cells = make([][]frEntry, n*k)
	}
	fr.cells = fr.cells[:n*k]
	fr.net = nil
	return true
}

// resetCells empties every cell (keeping its slab backing) and recycles the
// bitset arena; only valid at the start of a full rebuild, which never reads
// retained entries.
func (fr *warmFrameRate) resetCells() {
	beam := fr.beam
	for i := range fr.cells {
		off := i * beam
		fr.cells[i] = fr.slab[off : off : off+beam]
	}
	fr.arenaOff = 0
	fr.allocWords = 0
}

// allocBits bump-allocates w words from the warm arena. When the arena is
// exhausted a fresh backing array is grown; retained bitsets keep pointing
// into the old one, which stays alive for as long as they do.
func (fr *warmFrameRate) allocBits(w int) graph.Bitset {
	if fr.arenaOff+w > len(fr.arena) {
		size := 2 * len(fr.arena)
		if size < 1024 {
			size = 1024
		}
		if size < w {
			size = w
		}
		fr.arena = make([]uint64, size)
		fr.arenaOff = 0
	}
	b := fr.arena[fr.arenaOff : fr.arenaOff+w]
	fr.arenaOff += w
	fr.allocWords += w
	return graph.Bitset(b)
}

func (fr *warmFrameRate) newBitset(k int) graph.Bitset {
	b := fr.allocBits((k + 63) / 64)
	for i := range b {
		b[i] = 0
	}
	return b
}

func (fr *warmFrameRate) cloneBitset(b graph.Bitset) graph.Bitset {
	c := fr.allocBits(len(b))
	copy(c, b)
	return c
}

// frEntriesEqual reports whether two cell entry lists are bit-identical,
// including the consumed-node sets: two entries with equal back-pointers can
// still carry different paths after an upstream change, and downstream
// pruning reads the sets, so propagation may only stop on full equality.
func frEntriesEqual(a, b []frEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].val != b[i].val || a[i].parent != b[i].parent || a[i].parentIdx != b[i].parentIdx {
			return false
		}
		au, bu := a[i].used, b[i].used
		if len(au) != len(bu) {
			return false
		}
		for w := range au {
			if au[w] != bu[w] {
				return false
			}
		}
	}
	return true
}

// MaxFrameRate is SolveContext.MaxFrameRate with grid retention: identical
// results, with only delta-invalidated cells recomputed on consecutive
// solves of the same logical problem.
func (ws *WarmState) MaxFrameRate(p *model.Problem, opt FrameRateOptions) (*model.Mapping, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	beam := opt.Beam
	if beam <= 0 {
		beam = DefaultBeam
	}
	if beam > 127 {
		return nil, fmt.Errorf("core: MaxFrameRate: beam %d exceeds 127", beam)
	}
	n := p.Pipe.N()
	k := p.Net.N()
	if n > k {
		return nil, fmt.Errorf("core: MaxFrameRate: %d modules exceed %d nodes without reuse: %w",
			n, k, model.ErrInfeasible)
	}
	if p.Src == p.Dst {
		return nil, fmt.Errorf("core: MaxFrameRate: source equals destination but reuse is disabled: %w",
			model.ErrInfeasible)
	}
	if n*k*beam > warmMaxEntries {
		ws.fr.net = nil
		ws.note(WarmBypass, 0, 0)
		return MaxFrameRateOpt(p, opt)
	}
	t0 := time.Now()
	defer frameRateSeconds.ObserveSince(t0)
	topo := p.Net.Topology()
	fr := &ws.fr

	full := !ws.ensureSig(p)
	full = fr.grow(n, k, beam) || full
	// Bound arena drift: after enough partial updates, fold the garbage by
	// rebuilding (which recycles the arena wholesale).
	if !full && fr.allocWords > 4*n*k*beam*((k+63)/64) {
		full = true
	}
	var delta model.NetworkDelta
	if !full {
		delta, full = ws.diff(fr.net, p)
	}
	if fr.topo != topo || fr.toDst == nil {
		fr.topo = topo
		fr.toDst = topo.HopsTo(int(p.Dst))
	}

	cells := (n - 1) * k
	var recomputed int
	switch {
	case full:
		recomputed = ws.frameRateFull(p, beam)
		ws.note(WarmRebuild, cells, recomputed)
	case delta.Empty():
		ws.note(WarmHit, cells, 0)
	default:
		recomputed = ws.frameRatePartial(p, delta, beam)
		ws.note(WarmPartial, cells, recomputed)
	}
	fr.net = p.Net

	final := fr.cells[(n-1)*k+int(p.Dst)]
	if len(final) == 0 {
		return nil, fmt.Errorf("core: MaxFrameRate: no simple %d-node path from %d to %d found (beam %d): %w",
			n, p.Src, p.Dst, beam, model.ErrInfeasible)
	}
	assign := make([]model.NodeID, n)
	assign[n-1] = p.Dst
	node, idx := int32(p.Dst), int8(0)
	for j := n - 1; j >= 1; j-- {
		e := fr.cells[j*k+int(node)][idx]
		if e.parent < 0 {
			return nil, fmt.Errorf("core: MaxFrameRate: broken back-pointer at module %d", j)
		}
		assign[j-1] = model.NodeID(e.parent)
		node, idx = e.parent, e.parentIdx
	}
	if assign[0] != p.Src {
		return nil, fmt.Errorf("core: MaxFrameRate: reconstruction did not reach source (got %d)", assign[0])
	}
	return model.NewMapping(assign), nil
}

// frameRateCell recomputes one beam-DP cell exactly like the cold solver's
// inner loop, reading the current column j-1 entries. The caller has already
// applied the (topology-only, hence solve-invariant) pruning checks.
func (ws *WarmState) frameRateCell(p *model.Problem, topo *graph.Graph, j, v, beam int, inBytes float64) []frEntry {
	fr := &ws.fr
	k := fr.k
	compute := p.Pipe.ComputeTime(j, p.Net.Power(model.NodeID(v)))
	entries := fr.cells[j*k+v][:0]
	for _, eid := range topo.InEdges(v) {
		u := topo.Edge(int(eid)).From
		transfer := p.Net.Links[eid].TransferTime(inBytes, false)
		for idx, pe := range fr.cells[(j-1)*k+u] {
			if pe.used.Has(v) {
				continue
			}
			cand := pe.val
			if compute > cand {
				cand = compute
			}
			if transfer > cand {
				cand = transfer
			}
			entries = insertEntry(entries, frEntry{
				val:       cand,
				parent:    int32(u),
				parentIdx: int8(idx),
			}, beam)
		}
	}
	for i := range entries {
		e := &entries[i]
		parentUsed := fr.cells[(j-1)*k+int(e.parent)][e.parentIdx].used
		e.used = fr.cloneBitset(parentUsed)
		e.used.Set(v)
	}
	fr.cells[j*k+v] = entries
	return entries
}

// frameRateFull rebuilds the whole beam grid.
func (ws *WarmState) frameRateFull(p *model.Problem, beam int) int {
	n, k := p.Pipe.N(), p.Net.N()
	topo := p.Net.Topology()
	fr := &ws.fr
	fr.resetCells()
	toDst := fr.toDst

	srcUsed := fr.newBitset(k)
	srcUsed.Set(int(p.Src))
	fr.cells[int(p.Src)] = append(fr.cells[int(p.Src)], frEntry{val: 0, parent: -1, parentIdx: -1, used: srcUsed})

	recomputed := 0
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
			recomputed++
			ws.frameRateCell(p, topo, j, v, beam, inBytes)
		}
	}
	return recomputed
}

// frameRatePartial recomputes only the delta-invalidated cells. The
// propagation frontier of a changed cell (j-1, u) is u's out-neighbors (the
// beam DP has no same-node transition), and propagation stops at cells whose
// recomputed entries — including their consumed-node sets — are bit-equal to
// the retained ones.
func (ws *WarmState) frameRatePartial(p *model.Problem, delta model.NetworkDelta, beam int) int {
	n, k := p.Pipe.N(), p.Net.N()
	topo := p.Net.Topology()
	fr := &ws.fr
	toDst := fr.toDst
	static := ws.staticDirty(p, delta)
	mark := ws.mark

	changedPrev := ws.listA[:0]
	curBuf := ws.listB
	recomputed := 0
	for j := 1; j < n; j++ {
		cur := curBuf[:0]
		for _, v := range static {
			if !mark[v] {
				mark[v] = true
				cur = append(cur, v)
			}
		}
		for _, u := range changedPrev {
			for _, eid := range topo.OutEdges(int(u)) {
				w := int32(topo.Edge(int(eid)).To)
				if !mark[w] {
					mark[w] = true
					cur = append(cur, w)
				}
			}
		}

		inBytes := p.Pipe.Modules[j].InBytes
		remaining := n - 1 - j
		changed := changedPrev[:0]
		for _, v32 := range cur {
			v := int(v32)
			mark[v] = false
			// The pruning conditions are pure topology: a cell they skip
			// cold is one the retained grid already holds empty.
			if toDst[v] == graph.Unreachable || toDst[v] > remaining {
				continue
			}
			if (remaining == 0) != (v == int(p.Dst)) {
				continue
			}
			recomputed++
			old := append(fr.scratch[:0], fr.cells[j*k+v]...)
			fr.scratch = old
			entries := ws.frameRateCell(p, topo, j, v, beam, inBytes)
			if !frEntriesEqual(old, entries) {
				changed = append(changed, v32)
			}
		}
		curBuf = cur
		changedPrev = changed
		if len(changedPrev) == 0 && len(static) == 0 {
			break
		}
	}
	ws.clearStatic(static)
	ws.listA, ws.listB = changedPrev, curBuf
	return recomputed
}
