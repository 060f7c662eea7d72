package service

import (
	"fmt"
	"net/http"
	"testing"

	"elpc/internal/churn"
	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/service/wire"
)

// TestEventsEndToEnd drives the churn surface over HTTP: install a
// network, deploy, fail a node (watching the repair record), double-down
// (409), name an unknown node (404), restore, and read back the log and
// stats.
func TestEventsEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	t.Cleanup(srv.Close)
	net := fleetTestNetwork(t)
	installFleetNetwork(t, ts.URL, net)

	var d wire.Deployment
	resp := postJSON(t, ts.URL+"/v1/fleet/deploy", wire.FleetDeploy{
		Pipeline:   fleetTestPipeline(t, 5, 3),
		Src:        0,
		Dst:        9,
		Op:         string(OpMaxFrameRate),
		MinRateFPS: 1,
	}, &d)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: status %d", resp.StatusCode)
	}

	// Fail the destination: the deployment has no feasible placement and
	// must be parked.
	var rec churn.Record
	resp = postJSON(t, ts.URL+"/v1/events", wire.Events{
		Events: []model.ChurnEvent{{Kind: model.NodeDown, Node: 9}},
	}, &rec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if rec.Seq != 1 || rec.Affected != 1 || rec.Parked != 1 {
		t.Fatalf("record = %+v, want seq 1 with 1 affected, 1 parked", rec)
	}

	// Double-down conflicts: 409, and nothing is logged for it.
	resp = postJSON(t, ts.URL+"/v1/events", wire.Events{
		Events: []model.ChurnEvent{{Kind: model.NodeDown, Node: 9}},
	}, &wire.ErrorEnvelope{})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double-down: status %d, want 409", resp.StatusCode)
	}
	// Unknown node: 404.
	resp = postJSON(t, ts.URL+"/v1/events", wire.Events{
		Events: []model.ChurnEvent{{Kind: model.NodeDown, Node: 99}},
	}, &wire.ErrorEnvelope{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown node: status %d, want 404", resp.StatusCode)
	}
	// Bad factor: 400.
	resp = postJSON(t, ts.URL+"/v1/events", wire.Events{
		Events: []model.ChurnEvent{{Kind: model.LinkDegrade, Link: 0, Factor: 2}},
	}, &wire.ErrorEnvelope{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad factor: status %d, want 400", resp.StatusCode)
	}
	// Empty batch: 400.
	resp = postJSON(t, ts.URL+"/v1/events", wire.Events{}, &wire.ErrorEnvelope{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}

	// Restore: the parked deployment is requeued in the same cycle.
	resp = postJSON(t, ts.URL+"/v1/events", wire.Events{
		Events: []model.ChurnEvent{{Kind: model.NodeUp, Node: 9}},
	}, &rec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d", resp.StatusCode)
	}
	if rec.Seq != 2 || rec.Requeued != 1 {
		t.Errorf("restore record = %+v, want seq 2 with 1 requeued", rec)
	}

	// The log retains both applied batches (failed ones excluded).
	var log wire.EventsLog
	resp = postGet(t, ts.URL+"/v1/events/log", &log)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events/log: status %d", resp.StatusCode)
	}
	if len(log.Records) != 2 || log.Records[0].Seq != 1 || log.Records[1].Seq != 2 {
		t.Errorf("log records = %+v, want seqs [1 2]", log.Records)
	}
	if len(log.Parked) != 0 {
		t.Errorf("parked queue = %+v, want empty after requeue", log.Parked)
	}
	if log.Stats.Batches != 2 || log.Stats.EventsApplied != 2 {
		t.Errorf("log stats = %+v", log.Stats)
	}
	if resp := postGet(t, ts.URL+"/v1/events/log?limit=1", &log); resp.StatusCode != http.StatusOK {
		t.Fatalf("events/log?limit=1: status %d", resp.StatusCode)
	} else if len(log.Records) != 1 || log.Records[0].Seq != 2 {
		t.Errorf("limited log = %+v, want just seq 2", log.Records)
	}

	// /v1/stats carries the churn gauges.
	var stats statsResponse
	if resp := postGet(t, ts.URL+"/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if stats.Churn == nil || stats.Churn.Batches != 2 {
		t.Errorf("stats.Churn = %+v, want 2 batches", stats.Churn)
	}

	// The deployment survived the round trip.
	var list wire.FleetList
	if resp := postGet(t, ts.URL+"/v1/fleet", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet list: status %d", resp.StatusCode)
	}
	if len(list.Deployments) != 1 {
		t.Errorf("fleet has %d deployments, want the requeued one", len(list.Deployments))
	}
}

// TestEventsWithoutFleet verifies both churn endpoints refuse cleanly when
// no fleet network is installed.
func TestEventsWithoutFleet(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	t.Cleanup(srv.Close)
	resp := postJSON(t, ts.URL+"/v1/events", wire.Events{
		Events: []model.ChurnEvent{{Kind: model.NodeDown, Node: 0}},
	}, &wire.ErrorEnvelope{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("events without fleet: status %d, want 400", resp.StatusCode)
	}
	var log wire.EventsLog
	resp = postGet(t, ts.URL+"/v1/events/log", &log)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("events/log without fleet: status %d, want 400", resp.StatusCode)
	}
}

// TestRepairSolvesOnlyBroken holds elpcd's churn repair to "one solve per
// re-solved candidate": on a server built as elpcd builds one (an engine
// pool of two workers), every event batch may solve once per deployment its
// repair pass re-solved plus once per requeue attempt, and never for a
// candidate the pass keeps. The background requeue loop is stopped so no
// requeue lands between the counter reads.
func TestRepairSolvesOnlyBroken(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	t.Cleanup(srv.Close)
	spec := gen.Suite20()[7] // case 8: 50 nodes, 1000 links
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	installFleetNetwork(t, ts.URL, net)
	srv.fleet.rec.Stop()

	rng := gen.RNG(7)
	admitted := 0
	for i := 0; i < 300; i++ {
		pl, err := gen.Pipeline(4+rng.IntN(5), gen.DefaultRanges(), rng)
		if err != nil {
			t.Fatal(err)
		}
		src := model.NodeID(rng.IntN(net.N()))
		dst := model.NodeID(rng.IntN(net.N() - 1))
		if dst >= src {
			dst++
		}
		resp := postJSON(t, ts.URL+"/v1/fleet/deploy", wire.FleetDeploy{
			Tenant:     fmt.Sprintf("t%d", i),
			Pipeline:   pl,
			Src:        src,
			Dst:        dst,
			Op:         string(OpMaxFrameRate),
			MinRateFPS: 2 + 6*rng.Float64(),
		}, nil)
		if resp.StatusCode == http.StatusOK {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("no deploy admitted; churn has nothing to repair")
	}

	cs := gen.DefaultChurnSpec()
	cs.Events, cs.NodeShare, cs.LinkShare = 400, 0.5, 0.4
	trace, err := gen.Churn(cs, net, gen.RNG(8))
	if err != nil {
		t.Fatal(err)
	}
	f, rec := srv.fleet.f, srv.fleet.rec
	resolved := 0
	for i, ev := range trace {
		solves, attempts := f.SolveCount(), rec.Stats().RequeueAttempts
		var r churn.Record
		resp := postJSON(t, ts.URL+"/v1/events", wire.Events{Events: []model.ChurnEvent{ev.Event}}, &r)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("event %d (%s): status %d", i, ev.Event, resp.StatusCode)
		}
		resolved += r.Resolved
		attempts = rec.Stats().RequeueAttempts - attempts
		if got, want := f.SolveCount()-solves, uint64(r.Resolved)+attempts; got != want {
			t.Errorf("event %d (%s): %d solves for %d re-solved of %d affected plus %d requeue attempts",
				i, ev.Event, got, r.Resolved, r.Affected, attempts)
		}
	}
	if resolved == 0 {
		t.Fatal("no batch re-solved a candidate; the trace never broke a placement")
	}
}
