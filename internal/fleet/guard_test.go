package fleet

import (
	"math"
	"reflect"
	"testing"

	"elpc/internal/model"
)

// TestPlacementGuardOrder pins the placement guard's order and wording:
// when several checks fail at once, the first in the order — down host,
// unusable path, delay SLO, reserved rate, fit — is the reason reported,
// and only a failed fit reports an overcommit.
func TestPlacementGuardOrder(t *testing.T) {
	f := newRegion(model.NewResidualNetwork(testNetwork(t)), "")
	if err := f.residual.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeDown, Node: 3}}); err != nil {
		t.Fatal(err)
	}
	pl := testPipeline(t, 3, 1)
	onDown := []model.NodeID{0, 3, 3}
	onLive := []model.NodeID{0, 0, 0}
	slo := SLO{MaxDelayMs: 10}
	inf := math.Inf(1)
	for _, tc := range []struct {
		name             string
		assign           []model.NodeID
		delay, rate, fps float64
		slo              SLO
		reason           string
		overcommit       bool
	}{
		{"down host first", onDown, inf, 0, 1e9, slo, "node v3 hosting a module is down", false},
		{"unusable path before the delay SLO", onLive, inf, 0, 1e9, slo, "mapping traverses an unusable path", false},
		{"delay SLO before the rate", onLive, 20, 1, 1e9, slo, "delay 20.000 ms exceeds SLO 10.000 ms", false},
		{"rate before the fit", onLive, 5, 1, 1e9, slo, "sustainable rate 1.000 fps below reserved 1000000000.000 fps", false},
		{"fit last", onLive, 5, 2e9, 1e9, slo, "reservation at 1000000000.000 fps overcommits the network", true},
		{"no delay SLO bounds no finite delay", onLive, 1e6, 1, 0.01, SLO{}, "", false},
		{"sound placement", onLive, 5, 1, 0.01, slo, "", false},
	} {
		m := model.NewMapping(tc.assign)
		res, reason, overcommit, err := f.judgeLocked(pl, m, tc.delay, tc.rate, tc.slo, tc.fps)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if reason != tc.reason || overcommit != tc.overcommit {
			t.Errorf("%s: reason %q overcommit %t, want %q %t", tc.name, reason, overcommit, tc.reason, tc.overcommit)
		}
		if want, _ := model.MappingReservation(f.base, pl, m, tc.fps); tc.reason == "" && !reflect.DeepEqual(res, want) {
			t.Errorf("%s: passed reservation %+v, want the mapping's %+v", tc.name, res, want)
		}
		// The keep check and the SLO report judge without reserving: the
		// same reasons in the same order, the fit aside.
		if got := keepReason(f.residual, tc.assign, tc.delay, tc.rate, tc.slo, tc.fps); !tc.overcommit && got != tc.reason {
			t.Errorf("%s: downHost/shortfall report %q, want %q", tc.name, got, tc.reason)
		}
	}
}

// keepReason is the reason the judge-only checks (downHost, then
// shortfall) report.
func keepReason(rn *model.ResidualNetwork, assign []model.NodeID, delay, rate float64, slo SLO, fps float64) string {
	if r := downHost(rn, assign); r != "" {
		return r
	}
	return shortfall(delay, rate, slo, fps)
}
