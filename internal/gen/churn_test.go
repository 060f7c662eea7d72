package gen

import (
	"reflect"
	"testing"

	"elpc/internal/model"
)

func TestChurnDeterministicAndReplayable(t *testing.T) {
	net, err := Network(10, 60, DefaultRanges(), RNG(42))
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultChurnSpec()
	spec.Events = 200

	a, err := Churn(spec, net, RNG(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Churn(spec, net, RNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 200 {
		t.Fatalf("trace has %d events, want 200", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must generate an identical trace")
	}
	c, err := Churn(spec, net, RNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical traces")
	}

	// Timestamps are non-decreasing.
	for i := 1; i < len(a); i++ {
		if a[i].TimeMs < a[i-1].TimeMs {
			t.Fatalf("event %d at %.3f ms before event %d at %.3f ms", i, a[i].TimeMs, i-1, a[i-1].TimeMs)
		}
	}

	// The whole trace must replay cleanly, one event at a time, and never
	// down more than MaxDownFrac of the nodes.
	r := model.NewResidualNetwork(net)
	maxDown := int(spec.MaxDownFrac * float64(net.N()))
	for i, ev := range a {
		if err := r.ApplyChurn([]model.ChurnEvent{ev.Event}); err != nil {
			t.Fatalf("event %d (%s) does not apply: %v", i, ev.Event, err)
		}
		downCount := 0
		for v := 0; v < net.N(); v++ {
			if r.NodeIsDown(model.NodeID(v)) {
				downCount++
			}
		}
		if downCount > maxDown {
			t.Fatalf("after event %d: %d nodes down, cap is %d", i, downCount, maxDown)
		}
	}

	// A mixed trace exercises every event family.
	kinds := map[model.ChurnKind]int{}
	for _, ev := range a {
		kinds[ev.Event.Kind]++
	}
	for _, k := range []model.ChurnKind{model.NodeDown, model.LinkDegrade, model.CapacityDrift} {
		if kinds[k] == 0 {
			t.Errorf("200-event default-spec trace has no %s events: %v", k, kinds)
		}
	}
}

// TestHealUndoesOutages replays traces followed by their Heal events: the
// batch must apply cleanly and leave no node down and no link degraded.
func TestHealUndoesOutages(t *testing.T) {
	net, err := Network(10, 60, DefaultRanges(), RNG(42))
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultChurnSpec()
	spec.Events = 40
	healed := 0
	for seed := uint64(1); seed <= 8; seed++ {
		trace, err := Churn(spec, net, RNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		r := model.NewResidualNetwork(net)
		for _, ev := range trace {
			if err := r.ApplyChurn([]model.ChurnEvent{ev.Event}); err != nil {
				t.Fatal(err)
			}
		}
		heal := Heal(trace)
		healed += len(heal)
		if err := r.ApplyChurn(heal); err != nil {
			t.Fatalf("seed %d: heal events do not apply: %v", seed, err)
		}
		for v := 0; v < net.N(); v++ {
			if r.NodeIsDown(model.NodeID(v)) {
				t.Errorf("seed %d: node %d still down after heal", seed, v)
			}
		}
		for _, ev := range heal {
			if ev.OnLink() && r.LinkCapacity(ev.Link) != 1 {
				t.Errorf("seed %d: link %d not restored", seed, ev.Link)
			}
		}
	}
	if healed == 0 {
		t.Fatal("no trace left an outage to heal")
	}
	if Heal(nil) != nil {
		t.Fatal("an empty trace needs no healing")
	}
}

func TestChurnSpecValidation(t *testing.T) {
	net, err := Network(6, 20, DefaultRanges(), RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	bad := []ChurnSpec{
		{},
		func() ChurnSpec { s := DefaultChurnSpec(); s.Events = 0; return s }(),
		func() ChurnSpec { s := DefaultChurnSpec(); s.MeanIntervalMs = 0; return s }(),
		func() ChurnSpec { s := DefaultChurnSpec(); s.NodeShare = 0.8; s.LinkShare = 0.5; return s }(),
		func() ChurnSpec { s := DefaultChurnSpec(); s.MaxDownFrac = 1.5; return s }(),
		func() ChurnSpec { s := DefaultChurnSpec(); s.DegradeLo = 0; return s }(),
		func() ChurnSpec { s := DefaultChurnSpec(); s.DegradeHi = 1; return s }(),
		func() ChurnSpec { s := DefaultChurnSpec(); s.DriftLo = 0; return s }(),
	}
	for i, s := range bad {
		if _, err := Churn(s, net, RNG(1)); err == nil {
			t.Errorf("spec %d: generated, want validation error", i)
		}
	}
	if _, err := Churn(DefaultChurnSpec(), nil, RNG(1)); err == nil {
		t.Error("nil network: generated, want error")
	}

	// MaxDownFrac = 0 still generates (node events fall through to link
	// degrades).
	s := DefaultChurnSpec()
	s.MaxDownFrac = 0
	trace, err := Churn(s, net, RNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range trace {
		if ev.Event.Kind == model.NodeDown {
			t.Fatal("MaxDownFrac=0 trace contains a node failure")
		}
	}
}
