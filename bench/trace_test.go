package main

import (
	"math"
	"testing"
)

// requestSpans builds request req starting at t: roundtrip t..t+100 µs,
// handler t+10..t+90, and two shadow calls attributed to the handler, the
// solve with a 5 µs hash under it.
func requestSpans(req int, t, decode, solve float64) []span {
	id := 5 * req
	return []span{
		{Req: req, ID: id, Parent: -1, Name: "client.roundtrip", Start: t, End: t + 100},
		{Req: req, ID: id + 1, Parent: id, Name: "service.handler", Start: t + 10, End: t + 90},
		{Req: req, ID: id + 2, Parent: id + 1, Name: "model.decode", Start: t + 200, End: t + 200 + decode},
		{Req: req, ID: id + 3, Parent: id + 1, Name: "service.solve", Start: t + 300, End: t + 300 + solve},
		{Req: req, ID: id + 4, Parent: id + 3, Name: "service.hash", Start: t + 400, End: t + 405},
	}
}

func TestSelfTimeIsParentMinusCoveredChildren(t *testing.T) {
	layers, roots := layerTimes(requestSpans(0, 0, 30, 20))
	if roots != 100 {
		t.Errorf("roots = %v µs, want 100", roots)
	}
	for name, want := range map[string]float64{
		"client.roundtrip": 20, // 100 - 80 handler
		"service.handler":  30, // 80 - 30 decode - 20 solve
		"model.decode":     30,
		"service.solve":    15, // 20 - 5 hash
		"service.hash":     5,
	} {
		if got := layers[name].self(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s self = %v µs, want %v", name, got, want)
		}
	}
	// Children that overrun their parent leave it no self time.
	layers, _ = layerTimes(requestSpans(0, 0, 60, 40))
	if got := layers["service.handler"].self(); got != 0 {
		t.Errorf("overrun handler self = %v, want 0", got)
	}
}

func TestCoverage(t *testing.T) {
	// An exact split, and two requests whose shadow calls run 10 µs long
	// and 10 µs short of their handlers: per-call noise cancels.
	for _, spans := range [][]span{
		requestSpans(0, 0, 30, 20),
		append(requestSpans(0, 0, 40, 50), requestSpans(1, 1000, 30, 40)...),
	} {
		if got := coverage(layerTimes(spans)); math.Abs(got-1) > 1e-9 {
			t.Errorf("coverage = %v, want 1", got)
		}
	}
	// 100 µs of shadow time under an 80 µs handler: 20 µs over a 100 µs root.
	if got := coverage(layerTimes(requestSpans(0, 0, 60, 40))); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("coverage with a 20 µs overrun = %v, want 1.2", got)
	}
}

func TestLayerSharesSumToCoverage(t *testing.T) {
	out := map[string]metric{}
	layerShares(requestSpans(0, 0, 30, 20), out)
	sum := 0.0
	for _, name := range traceLayers {
		label := name
		if l, ok := selfName[name]; ok {
			label = l
		}
		sum += out[label+"_share"].Value
	}
	if math.Abs(sum-out["trace.coverage"].Value) > 1e-9 {
		t.Errorf("shares sum to %v, coverage %v", sum, out["trace.coverage"].Value)
	}
	for name, want := range map[string]float64{
		"net.roundtrip_self_ms":     0.02,  // 100 µs roundtrip - 80 µs handler
		"service.handler_ms":        0.08,  // the whole handler span
		"service.http_self_ms":      0.03,  // 80 µs - 30 µs decode - 20 µs solve
		"service.solve_ms":          0.02,  // the whole solve span
		"service.solver_self_ms":    0.015, // 20 µs - 5 µs hash
		"model.decode_ms":           0.03,
		"core.solve_ms":             0, // no calls
		"service.solver_self_share": 0.15,
	} {
		if got, ok := out[name]; !ok || math.Abs(got.Value-want) > 1e-9 {
			t.Errorf("%s = %v (reported %v), want %v", name, got.Value, ok, want)
		}
	}
}

// Deploy-batch time is reported per deploy, not per request.
func TestBatchTimeIsPerItem(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "client.roundtrip", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "service.handler", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "fleet.batch", Start: 0, End: 800},
	}
	out := map[string]metric{}
	layerShares(spans, out)
	if got, want := out["fleet.batch_item_ms"].Value, 0.8/batchSize; math.Abs(got-want) > 1e-12 {
		t.Errorf("fleet.batch_item_ms = %v, want %v", got, want)
	}
	if got := out["fleet.batch_share"].Value; math.Abs(got-0.8) > 1e-12 {
		t.Errorf("fleet.batch_share = %v, want 0.8", got)
	}
}
