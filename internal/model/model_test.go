package model

import (
	"math"
	"strings"
	"testing"
)

// fixtureNetwork builds the small deterministic network used across model
// tests:
//
//	v0 --L0--> v1 --L1--> v2
//	 \                    ^
//	  +-------L2----------+
//	plus reverse link v1->v0 (L3).
func fixtureNetwork(t *testing.T) *Network {
	t.Helper()
	nodes := []Node{
		{ID: 0, Power: 1000},
		{ID: 1, Power: 2000},
		{ID: 2, Power: 500},
	}
	links := []Link{
		{ID: 0, From: 0, To: 1, BWMbps: 8, MLDms: 1},   // 1000 B/ms
		{ID: 1, From: 1, To: 2, BWMbps: 80, MLDms: 2},  // 10000 B/ms
		{ID: 2, From: 0, To: 2, BWMbps: 0.8, MLDms: 5}, // 100 B/ms
		{ID: 3, From: 1, To: 0, BWMbps: 8, MLDms: 1},
	}
	n, err := NewNetwork(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fixturePipeline: M0 source (out 1000B), M1 (c=2, in 1000, out 500),
// M2 sink (c=4, in 500, out 0).
func fixturePipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline([]Module{
		{ID: 0, Complexity: 0, InBytes: 0, OutBytes: 1000},
		{ID: 1, Complexity: 2, InBytes: 1000, OutBytes: 500},
		{ID: 2, Complexity: 4, InBytes: 500, OutBytes: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewNetworkValidation(t *testing.T) {
	good := []Node{{ID: 0, Power: 1}, {ID: 1, Power: 1}}
	cases := []struct {
		name  string
		nodes []Node
		links []Link
	}{
		{"bad node id", []Node{{ID: 5, Power: 1}}, nil},
		{"zero power", []Node{{ID: 0, Power: 0}}, nil},
		{"bad link id", good, []Link{{ID: 3, From: 0, To: 1, BWMbps: 1}}},
		{"zero bw", good, []Link{{ID: 0, From: 0, To: 1, BWMbps: 0}}},
		{"negative mld", good, []Link{{ID: 0, From: 0, To: 1, BWMbps: 1, MLDms: -1}}},
		{"self loop", good, []Link{{ID: 0, From: 0, To: 0, BWMbps: 1}}},
		{"dup link", good, []Link{{ID: 0, From: 0, To: 1, BWMbps: 1}, {ID: 1, From: 0, To: 1, BWMbps: 2}}},
		{"out of range", good, []Link{{ID: 0, From: 0, To: 9, BWMbps: 1}}},
	}
	for _, c := range cases {
		if _, err := NewNetwork(c.nodes, c.links); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestNetworkAccessors(t *testing.T) {
	n := fixtureNetwork(t)
	if n.N() != 3 || n.M() != 4 {
		t.Fatalf("N=%d M=%d", n.N(), n.M())
	}
	if n.Power(1) != 2000 {
		t.Errorf("Power(1) = %v", n.Power(1))
	}
	l, ok := n.LinkBetween(0, 1)
	if !ok || l.ID != 0 {
		t.Errorf("LinkBetween(0,1) = %+v, %v", l, ok)
	}
	if _, ok := n.LinkBetween(2, 0); ok {
		t.Error("LinkBetween(2,0) should not exist")
	}
	if !n.ValidNode(0) || n.ValidNode(3) || n.ValidNode(-1) {
		t.Error("ValidNode wrong")
	}
	if n.Topology().M() != 4 {
		t.Error("topology edge count mismatch")
	}
}

func TestNetworkClone(t *testing.T) {
	n := fixtureNetwork(t)
	c := n.Clone()
	c.Nodes[0].Power = 9999
	c.Links[0].BWMbps = 9999
	if n.Nodes[0].Power == 9999 || n.Links[0].BWMbps == 9999 {
		t.Error("Clone should deep-copy")
	}
	if c.Topology() == n.Topology() {
		t.Error("Clone should rebuild topology")
	}
}

func TestLinkConversions(t *testing.T) {
	l := Link{BWMbps: 8, MLDms: 3}
	if got := l.BytesPerMs(); got != 1000 {
		t.Errorf("BytesPerMs = %v, want 1000 (8 Mbps)", got)
	}
	if got := l.TransferTime(2000, false); got != 2 {
		t.Errorf("TransferTime without MLD = %v, want 2", got)
	}
	if got := l.TransferTime(2000, true); got != 5 {
		t.Errorf("TransferTime with MLD = %v, want 5", got)
	}
}

func TestNewPipelineValidation(t *testing.T) {
	cases := []struct {
		name    string
		modules []Module
	}{
		{"too short", []Module{{ID: 0}}},
		{"bad id", []Module{{ID: 0, OutBytes: 1}, {ID: 5, Complexity: 1, InBytes: 1}}},
		{"source has complexity", []Module{{ID: 0, Complexity: 1, OutBytes: 1}, {ID: 1, Complexity: 1, InBytes: 1}}},
		{"flow mismatch", []Module{{ID: 0, OutBytes: 10}, {ID: 1, Complexity: 1, InBytes: 5}}},
		{"zero complexity interior", []Module{{ID: 0, OutBytes: 10}, {ID: 1, Complexity: 0, InBytes: 10}}},
		{"negative size", []Module{{ID: 0, OutBytes: -1}, {ID: 1, Complexity: 1, InBytes: -1}}},
	}
	for _, c := range cases {
		if _, err := NewPipeline(c.modules); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// nonFinite are the values no model field may hold. -Inf already fails the
// sign checks; NaN and +Inf pass every comparison those make.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// checkNonFiniteErr fails unless err names the element, and, for NaN and
// +Inf, the field as non-finite.
func checkNonFiniteErr(t *testing.T, err error, element, field string, x float64) {
	t.Helper()
	if err == nil {
		t.Errorf("%s %s = %v: accepted", element, field, x)
		return
	}
	if !strings.Contains(err.Error(), element+" ") ||
		(!math.IsInf(x, -1) && !strings.Contains(err.Error(), "non-finite "+field)) {
		t.Errorf("%s %s = %v: error %q does not name it", element, field, x, err)
	}
}

func TestNewNetworkRejectsNonFinite(t *testing.T) {
	fields := []struct {
		element, field string
		set            func(n []Node, l []Link, x float64)
	}{
		{"node 1", "power", func(n []Node, _ []Link, x float64) { n[1].Power = x }},
		{"link 2", "bandwidth", func(_ []Node, l []Link, x float64) { l[2].BWMbps = x }},
		{"link 2", "MLD", func(_ []Node, l []Link, x float64) { l[2].MLDms = x }},
	}
	base := fixtureNetwork(t)
	for _, f := range fields {
		for _, x := range nonFinite {
			nodes := append([]Node(nil), base.Nodes...)
			links := append([]Link(nil), base.Links...)
			f.set(nodes, links, x)
			_, err := NewNetwork(nodes, links)
			checkNonFiniteErr(t, err, f.element, f.field, x)
		}
	}
}

func TestNewPipelineRejectsNonFinite(t *testing.T) {
	fields := []struct {
		element, field string
		set            func(m []Module, x float64)
	}{
		{"module 1", "complexity", func(m []Module, x float64) { m[1].Complexity = x }},
		{"module 2", "complexity", func(m []Module, x float64) { m[2].Complexity = x }},
		{"module 0", "input size", func(m []Module, x float64) { m[0].InBytes = x }},
		// A chain edge keeps the flow consistent, so only the value is wrong.
		{"module 0", "output size", func(m []Module, x float64) { m[0].OutBytes, m[1].InBytes = x, x }},
		{"module 2", "output size", func(m []Module, x float64) { m[2].OutBytes = x }},
	}
	base := fixturePipeline(t)
	for _, f := range fields {
		for _, x := range nonFinite {
			modules := append([]Module(nil), base.Modules...)
			f.set(modules, x)
			_, err := NewPipeline(modules)
			checkNonFiniteErr(t, err, f.element, f.field, x)
		}
	}
}

func TestPipelineCostHelpers(t *testing.T) {
	p := fixturePipeline(t)
	if p.N() != 3 {
		t.Fatalf("N = %d", p.N())
	}
	if got := p.ComputeOps(0); got != 0 {
		t.Errorf("source ops = %v, want 0", got)
	}
	if got := p.ComputeOps(1); got != 2000 {
		t.Errorf("M1 ops = %v, want 2000", got)
	}
	if got := p.ComputeTime(1, 1000); got != 2 {
		t.Errorf("M1 time at p=1000 = %v, want 2", got)
	}
	if got := p.OutBytes(1); got != 500 {
		t.Errorf("OutBytes(1) = %v", got)
	}
	if got := p.TotalOps(); got != 2000+2000 {
		t.Errorf("TotalOps = %v, want 4000", got)
	}
}

func TestMappingGroupsWalkString(t *testing.T) {
	m := NewMapping([]NodeID{0, 0, 1, 2, 2, 1})
	gs := m.Groups()
	want := []Group{
		{Node: 0, First: 0, Last: 1},
		{Node: 1, First: 2, Last: 2},
		{Node: 2, First: 3, Last: 4},
		{Node: 1, First: 5, Last: 5},
	}
	if len(gs) != len(want) {
		t.Fatalf("groups = %v", gs)
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Errorf("group %d = %+v, want %+v", i, gs[i], want[i])
		}
	}
	walk := m.Walk()
	if len(walk) != 4 || walk[0] != 0 || walk[3] != 1 {
		t.Errorf("walk = %v", walk)
	}
	if !m.UsesReuse() {
		t.Error("mapping revisits node 1, UsesReuse should be true")
	}
	if m2 := NewMapping([]NodeID{0, 1, 2}); m2.UsesReuse() {
		t.Error("distinct mapping should not report reuse")
	}
	s := m.String()
	if !strings.Contains(s, "[M0-M1]@v0") || !strings.Contains(s, "->") {
		t.Errorf("String = %q", s)
	}
	if got := (&Mapping{}).Groups(); got != nil {
		t.Error("empty mapping should have nil groups")
	}
}

func TestValidate(t *testing.T) {
	net := fixtureNetwork(t)
	pl := fixturePipeline(t)
	opt := ValidateOptions{Src: 0, Dst: 2}

	if err := NewMapping([]NodeID{0, 1, 2}).Validate(net, pl, opt); err != nil {
		t.Errorf("valid mapping rejected: %v", err)
	}
	// Grouped on source then jump to dst via L2.
	if err := NewMapping([]NodeID{0, 0, 2}).Validate(net, pl, opt); err != nil {
		t.Errorf("grouped mapping rejected: %v", err)
	}
	cases := []struct {
		name   string
		assign []NodeID
		opt    ValidateOptions
	}{
		{"wrong length", []NodeID{0, 2}, opt},
		{"bad node", []NodeID{0, 9, 2}, opt},
		{"wrong src", []NodeID{1, 1, 2}, opt},
		{"wrong dst", []NodeID{0, 1, 1}, opt},
		{"missing link", []NodeID{0, 2, 0}, ValidateOptions{Src: 0, Dst: 0}}, // no link 2->0 in fixture
		{"no reuse violated by grouping", []NodeID{0, 0, 2}, ValidateOptions{Src: 0, Dst: 2, NoReuse: true}},
	}
	for _, c := range cases {
		if err := NewMapping(c.assign).Validate(net, pl, c.opt); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Missing link case explicitly: 2 -> 0 has no link.
	if err := NewMapping([]NodeID{0, 2, 2}).Validate(net, pl, opt); err != nil {
		t.Errorf("0->2 grouped at dst should be valid: %v", err)
	}
	// Reuse of non-adjacent modules without NoReuse is fine (walk 0->1->0...):
	pl4, err := NewPipeline([]Module{
		{ID: 0, OutBytes: 100},
		{ID: 1, Complexity: 1, InBytes: 100, OutBytes: 100},
		{ID: 2, Complexity: 1, InBytes: 100, OutBytes: 100},
		{ID: 3, Complexity: 1, InBytes: 100, OutBytes: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := NewMapping([]NodeID{0, 1, 0, 2}).Validate(net, pl4, ValidateOptions{Src: 0, Dst: 2}); err != nil {
		t.Errorf("loop walk should be valid with reuse: %v", err)
	}
	if err := NewMapping([]NodeID{0, 1, 0, 2}).Validate(net, pl4, ValidateOptions{Src: 0, Dst: 2, NoReuse: true}); err == nil {
		t.Error("loop walk must be invalid without reuse")
	}
}

func TestTotalDelayKnown(t *testing.T) {
	net := fixtureNetwork(t)
	pl := fixturePipeline(t)
	opt := DefaultCostOptions()

	// Mapping 0 -> 1 -> 2:
	//  M1 on v1: 2*1000/2000 = 1 ms; M2 on v2: 4*500/500 = 4 ms
	//  transfer M0 out (1000B) over L0: 1000/1000 + 1 = 2 ms
	//  transfer M1 out (500B) over L1: 500/10000 + 2 = 2.05 ms
	m := NewMapping([]NodeID{0, 1, 2})
	want := 1 + 4 + 2 + 2.05
	if got := TotalDelay(net, pl, m, opt); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalDelay = %v, want %v", got, want)
	}
	// Without MLD: subtract 1+2.
	if got := TotalDelay(net, pl, m, CostOptions{}); math.Abs(got-(want-3)) > 1e-12 {
		t.Errorf("TotalDelay no-MLD = %v, want %v", got, want-3)
	}
	// Grouped mapping 0,0 -> 2: M1 on v0: 2*1000/1000=2; M2 on v2: 4;
	// transfer 500B over L2: 500/100 + 5 = 10.
	m2 := NewMapping([]NodeID{0, 0, 2})
	if got := TotalDelay(net, pl, m2, opt); math.Abs(got-16) > 1e-12 {
		t.Errorf("grouped TotalDelay = %v, want 16", got)
	}
	// Missing link -> +Inf.
	m3 := NewMapping([]NodeID{0, 2, 0})
	if got := TotalDelay(net, pl, m3, opt); !math.IsInf(got, 1) {
		t.Errorf("missing-link delay = %v, want +Inf", got)
	}
}

func TestBottleneckKnown(t *testing.T) {
	net := fixtureNetwork(t)
	pl := fixturePipeline(t)
	// Mapping 0 -> 1 -> 2: stage times: group{M0}@v0 = 0;
	// L0 transfer 1000/1000 = 1; group{M1}@v1 = 1; L1 transfer 500/10000 = 0.05;
	// group{M2}@v2 = 4. Bottleneck = 4.
	m := NewMapping([]NodeID{0, 1, 2})
	if got := Bottleneck(net, pl, m); math.Abs(got-4) > 1e-12 {
		t.Errorf("Bottleneck = %v, want 4", got)
	}
	if got := FrameRate(4); math.Abs(got-250) > 1e-12 {
		t.Errorf("FrameRate(4) = %v, want 250", got)
	}
	if got := Bottleneck(net, pl, NewMapping([]NodeID{0, 2, 0})); !math.IsInf(got, 1) {
		t.Errorf("missing-link bottleneck = %v, want +Inf", got)
	}
}

func TestSharedBottleneck(t *testing.T) {
	net := fixtureNetwork(t)
	pl4, err := NewPipeline([]Module{
		{ID: 0, OutBytes: 1000},
		{ID: 1, Complexity: 1, InBytes: 1000, OutBytes: 1000},
		{ID: 2, Complexity: 1, InBytes: 1000, OutBytes: 1000},
		{ID: 3, Complexity: 1, InBytes: 1000, OutBytes: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Walk 0 -> 1 -> 0 -> 2 revisits node 0: M2 runs on v0 (1000 ops / 1000 =
	// 1 ms) and M0 contributes 0, so v0 busy 1 ms; v1 busy 0.5 ms; v2 busy
	// 2 ms... M3 on v2: 1000/500 = 2 ms. Links: L0 (0->1) 1 ms, L3 (1->0)
	// 1 ms, L2 (0->2) 10 ms. SharedBottleneck = 10.
	m := NewMapping([]NodeID{0, 1, 0, 2})
	if got := SharedBottleneck(net, pl4, m); math.Abs(got-10) > 1e-12 {
		t.Errorf("SharedBottleneck = %v, want 10", got)
	}
	// For a reuse-free mapping it matches Bottleneck.
	m2 := NewMapping([]NodeID{0, 1, 2})
	pl := fixturePipeline(t)
	if a, b := SharedBottleneck(net, pl, m2), Bottleneck(net, pl, m2); math.Abs(a-b) > 1e-12 {
		t.Errorf("SharedBottleneck %v != Bottleneck %v for reuse-free mapping", a, b)
	}
	if got := SharedBottleneck(net, pl, NewMapping([]NodeID{0, 2, 0})); !math.IsInf(got, 1) {
		t.Error("missing link should be +Inf")
	}
}

func TestFrameRateEdgeCases(t *testing.T) {
	if FrameRate(0) != 0 || FrameRate(-1) != 0 || FrameRate(math.Inf(1)) != 0 || FrameRate(math.NaN()) != 0 {
		t.Error("degenerate bottlenecks should give 0 fps")
	}
}

func TestObjectiveString(t *testing.T) {
	if MinDelay.String() != "min-delay" || MaxFrameRate.String() != "max-frame-rate" {
		t.Error("objective strings wrong")
	}
	if Objective(42).String() == "" {
		t.Error("unknown objective should still render")
	}
}

func TestProblemScoreAndValidate(t *testing.T) {
	net := fixtureNetwork(t)
	pl := fixturePipeline(t)
	p := &Problem{Net: net, Pipe: pl, Src: 0, Dst: 2, Cost: DefaultCostOptions()}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := NewMapping([]NodeID{0, 1, 2})
	if got, want := p.Score(m, MinDelay), TotalDelay(net, pl, m, p.Cost); got != want {
		t.Errorf("Score(MinDelay) = %v, want %v", got, want)
	}
	if got, want := p.Score(m, MaxFrameRate), Bottleneck(net, pl, m); got != want {
		t.Errorf("Score(MaxFrameRate) = %v, want %v", got, want)
	}
	if err := p.ValidateMapping(m, MaxFrameRate); err != nil {
		t.Errorf("distinct mapping should pass no-reuse validation: %v", err)
	}
	if err := p.ValidateMapping(NewMapping([]NodeID{0, 0, 2}), MaxFrameRate); err == nil {
		t.Error("reuse mapping must fail MaxFrameRate validation")
	}
	bad := &Problem{Net: net, Pipe: pl, Src: -1, Dst: 2}
	if err := bad.Validate(); err == nil {
		t.Error("invalid src should error")
	}
	bad2 := &Problem{Net: net, Pipe: pl, Src: 0, Dst: 99}
	if err := bad2.Validate(); err == nil {
		t.Error("invalid dst should error")
	}
	if err := (&Problem{}).Validate(); err == nil {
		t.Error("nil net/pipe should error")
	}
}

func TestProblemScoreUnknownObjectivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown objective should panic")
		}
	}()
	net := fixtureNetwork(t)
	pl := fixturePipeline(t)
	p := &Problem{Net: net, Pipe: pl, Src: 0, Dst: 2}
	p.Score(NewMapping([]NodeID{0, 1, 2}), Objective(9))
}
