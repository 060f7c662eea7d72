package service

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"testing"

	"elpc/internal/churn"
	"elpc/internal/fleet"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/service/wire"
	"elpc/internal/wal"
)

// This file tests the observability surface end to end over httptest: the
// journal tailing endpoint, per-deployment timelines across a full
// deployed -> displaced -> repaired -> rebalanced life, the /v1/health
// verdict transitions, the /v1/stats journal+slo blocks, and the debug dump.

// diamondNetwork builds a fixed four-node diamond:
//
//	    v1 (fast, power 100)
//	   /  \
//	v0     v3
//	   \  /
//	    v2 (slow, power 10)
//
// Directed links v0->v1->v3 and v0->v2->v3, identical bandwidth and
// latency, so placement choices are decided purely by compute power: the
// min-delay solve lands the pipeline on v1, and failing v1 forces a
// migration through v2.
func diamondNetwork(t *testing.T) *model.Network {
	t.Helper()
	nodes := []model.Node{
		{ID: 0, Power: 50},
		{ID: 1, Power: 100},
		{ID: 2, Power: 10},
		{ID: 3, Power: 50},
	}
	links := []model.Link{
		{ID: 0, From: 0, To: 1, BWMbps: 100, MLDms: 1},
		{ID: 1, From: 1, To: 3, BWMbps: 100, MLDms: 1},
		{ID: 2, From: 0, To: 2, BWMbps: 100, MLDms: 1},
		{ID: 3, From: 2, To: 3, BWMbps: 100, MLDms: 1},
	}
	net, err := model.NewNetwork(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// diamondPipeline is sized so the slow path is worse but still feasible at
// the default interactive reservation: module 1 costs 50ms on v1 and 500ms
// on v2 (2 fps, above the 1 fps reservation).
func diamondPipeline(t *testing.T) *model.Pipeline {
	t.Helper()
	pl, err := model.NewPipeline([]model.Module{
		{ID: 0, Complexity: 0, OutBytes: 1000},
		{ID: 1, Complexity: 5, InBytes: 1000, OutBytes: 1000},
		{ID: 2, Complexity: 1, InBytes: 1000, OutBytes: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// deployDiamond admits the diamond pipeline for the given tenant.
func deployDiamond(t *testing.T, url, tenant string) wire.Deployment {
	t.Helper()
	var d wire.Deployment
	resp := postJSON(t, url+"/v1/fleet/deploy", wire.FleetDeploy{
		Tenant: tenant, Pipeline: diamondPipeline(t), Src: 0, Dst: 3,
	}, &d)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: status %d", resp.StatusCode)
	}
	return d
}

// postEvents applies one churn batch and returns the reconciliation record.
func postEvents(t *testing.T, url string, events ...model.ChurnEvent) churn.Record {
	t.Helper()
	var rec churn.Record
	resp := postJSON(t, url+"/v1/events", wire.Events{Events: events}, &rec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/events: status %d", resp.StatusCode)
	}
	return rec
}

func getHealth(t *testing.T, url string) healthResponse {
	t.Helper()
	var h healthResponse
	if resp := postGet(t, url+"/v1/health", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/health: status %d", resp.StatusCode)
	}
	return h
}

func healthReasonCodes(h healthResponse) []string {
	codes := make([]string, len(h.Reasons))
	for i, r := range h.Reasons {
		codes[i] = r.Code
	}
	return codes
}

func hasNode(assignment []model.NodeID, v model.NodeID) bool {
	for _, n := range assignment {
		if n == v {
			return true
		}
	}
	return false
}

// TestTimelineEndToEnd drives one tenant through the full displacement
// cycle — deployed, displaced by a node failure, repaired onto the slow
// path, moved back by rebalancing — and checks the timeline endpoint
// replays exactly that causal history.
func TestTimelineEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	installFleetNetwork(t, ts.URL, diamondNetwork(t))
	d := deployDiamond(t, ts.URL, "cam-7")
	if !hasNode(d.Assignment, 1) || hasNode(d.Assignment, 2) {
		t.Fatalf("min-delay admission should use the fast path through v1: %v", d.Assignment)
	}

	// Fail the fast node: the repair cycle must migrate the tenant.
	rec := postEvents(t, ts.URL, model.ChurnEvent{Kind: model.NodeDown, Node: 1})
	if rec.Migrated != 1 || rec.Parked != 0 {
		t.Fatalf("node_down v1 record = %+v, want exactly one migration", rec)
	}
	var moved wire.Deployment
	postGet(t, ts.URL+"/v1/fleet/"+d.ID, &moved)
	if hasNode(moved.Assignment, 1) || !hasNode(moved.Assignment, 2) {
		t.Fatalf("repair left assignment %v, want the v2 path", moved.Assignment)
	}

	// Restore the node (no deployment touches it, so nothing is repaired),
	// then rebalance: the delay gain from moving back to v1 is large.
	if rec := postEvents(t, ts.URL, model.ChurnEvent{Kind: model.NodeUp, Node: 1}); rec.Affected != 0 {
		t.Fatalf("node_up v1 affected %d deployments, want 0", rec.Affected)
	}
	var rb fleet.Report
	if resp := postJSON(t, ts.URL+"/v1/fleet/rebalance", fleet.RebalanceOptions{MaxMoves: 4, MinGain: 0.05}, &rb); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance: status %d", resp.StatusCode)
	}
	if rb.Applied != 1 {
		t.Fatalf("rebalance report = %+v, want one move back to v1", rb)
	}

	var tl wire.Timeline
	if resp := postGet(t, ts.URL+"/v1/fleet/"+d.ID+"/timeline", &tl); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET timeline: status %d", resp.StatusCode)
	}
	if tl.ID != d.ID || !tl.Live {
		t.Fatalf("timeline header = %+v, want live %s", tl, d.ID)
	}
	var kinds []wal.Kind
	for _, ev := range tl.Events {
		kinds = append(kinds, ev.Kind)
		if ev.Deployment != d.ID || ev.Tenant != "cam-7" {
			t.Errorf("timeline event misattributed: %+v", ev)
		}
		if i := len(kinds) - 1; i > 0 && ev.Seq <= tl.Events[i-1].Seq {
			t.Errorf("timeline out of order at %d: %+v", i, ev)
		}
	}
	want := []wal.Kind{wal.DeployAdmitted, wal.RepairMigrated, wal.RebalanceMove}
	if len(kinds) != len(want) {
		t.Fatalf("timeline kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("timeline kinds = %v, want %v", kinds, want)
		}
	}

	// Unknown deployments with no retained history are 404.
	if resp := postGet(t, ts.URL+"/v1/fleet/no-such-dep/timeline", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("timeline for unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestTimelineCausality checks the timeline is a faithful replay: the last
// mapping-bearing event must describe the deployment's current placement
// exactly — same mapping, same delivered delay and rate.
func TestTimelineCausality(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	installFleetNetwork(t, ts.URL, diamondNetwork(t))
	d := deployDiamond(t, ts.URL, "replay")

	// Push the deployment through a displacement and a rebalance so the
	// timeline has several mapping-bearing events.
	postEvents(t, ts.URL, model.ChurnEvent{Kind: model.NodeDown, Node: 1})
	postEvents(t, ts.URL, model.ChurnEvent{Kind: model.NodeUp, Node: 1})
	postJSON(t, ts.URL+"/v1/fleet/rebalance", fleet.RebalanceOptions{MaxMoves: 4, MinGain: 0.05}, nil)

	var cur wire.Deployment
	if resp := postGet(t, ts.URL+"/v1/fleet/"+d.ID, &cur); resp.StatusCode != http.StatusOK {
		t.Fatalf("describe: status %d", resp.StatusCode)
	}
	var tl wire.Timeline
	postGet(t, ts.URL+"/v1/fleet/"+d.ID+"/timeline", &tl)

	var last *journal.Event
	for i := range tl.Events {
		if tl.Events[i].Mapping != "" {
			last = &tl.Events[i]
		}
	}
	if last == nil {
		t.Fatalf("timeline has no mapping-bearing events: %+v", tl.Events)
	}
	if last.Mapping != cur.Mapping {
		t.Errorf("timeline replays to %q, fleet says %q", last.Mapping, cur.Mapping)
	}
	if last.DelayMs != cur.DelayMs || last.RateFPS != cur.RateFPS {
		t.Errorf("timeline tail scores (%.3f ms, %.3f fps), fleet says (%.3f ms, %.3f fps)",
			last.DelayMs, last.RateFPS, cur.DelayMs, cur.RateFPS)
	}
}

// TestHealthTransitions drives /v1/health green -> degraded -> green: a
// churn burst that fails both diamond arms leaves the tenant parked
// (degraded, parked_tenants), and restoring the nodes requeues it.
func TestHealthTransitions(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Before a fleet network is installed: green, no SLO block.
	if h := getHealth(t, ts.URL); h.Status != HealthGreen || h.SLO != nil {
		t.Fatalf("pre-install health = %+v, want plain green", h)
	}

	installFleetNetwork(t, ts.URL, diamondNetwork(t))
	d := deployDiamond(t, ts.URL, "fragile")

	h := getHealth(t, ts.URL)
	if h.Status != HealthGreen || len(h.Reasons) != 0 {
		t.Fatalf("health after admission = %+v, want green", h)
	}
	if h.SLO == nil || h.SLO.Evaluated != 1 || h.SLO.Compliant != 1 {
		t.Fatalf("health SLO block = %+v, want 1/1 compliant", h.SLO)
	}

	// Fail both arms in one batch: no v0->v3 path remains, so the repair
	// cycle can only park the tenant.
	rec := postEvents(t, ts.URL,
		model.ChurnEvent{Kind: model.NodeDown, Node: 1},
		model.ChurnEvent{Kind: model.NodeDown, Node: 2})
	if rec.Parked != 1 {
		t.Fatalf("double failure record = %+v, want the tenant parked", rec)
	}
	h = getHealth(t, ts.URL)
	if h.Status != HealthDegraded || h.Parked != 1 {
		t.Fatalf("health after double failure = %+v, want degraded with one parked", h)
	}
	codes := healthReasonCodes(h)
	if len(codes) != 1 || codes[0] != "parked_tenants" {
		t.Fatalf("degraded reasons = %v, want [parked_tenants]", codes)
	}

	// Restore both arms: the same batch's requeue pass re-admits the
	// tenant (under a fresh ID) and health returns to green.
	rec = postEvents(t, ts.URL,
		model.ChurnEvent{Kind: model.NodeUp, Node: 1},
		model.ChurnEvent{Kind: model.NodeUp, Node: 2})
	if rec.Requeued != 1 {
		t.Fatalf("restore record = %+v, want the parked tenant requeued", rec)
	}
	h = getHealth(t, ts.URL)
	if h.Status != HealthGreen || h.Parked != 0 || len(h.Reasons) != 0 {
		t.Fatalf("health after restore = %+v, want green", h)
	}
	if h.SLO.Evaluated != 1 || h.SLO.Compliant != 1 {
		t.Fatalf("health SLO block after requeue = %+v, want 1/1 compliant", h.SLO)
	}

	// The requeued deployment's timeline must link back to the parked one.
	var list wire.FleetList
	postGet(t, ts.URL+"/v1/fleet", &list)
	if len(list.Deployments) != 1 {
		t.Fatalf("fleet has %d deployments after requeue, want 1", len(list.Deployments))
	}
	requeued := list.Deployments[0]
	if requeued.ID == d.ID {
		t.Fatalf("requeued deployment kept the old ID %s", d.ID)
	}
	var tl wire.Timeline
	postGet(t, ts.URL+"/v1/fleet/"+requeued.ID+"/timeline", &tl)
	found := false
	for _, ev := range tl.Events {
		if ev.Kind == wal.Requeued {
			found = true
		}
	}
	if !found {
		t.Fatalf("requeued timeline lacks a %q event: %+v", wal.Requeued, tl.Events)
	}
}

// TestHealthRedOnUnrepairedViolations bypasses the reconciler — applying
// churn directly to the fleet's capacity view without the repair cycle —
// and checks /v1/health escalates to red when the violating fraction
// crosses the threshold, then recovers once Repair runs.
func TestHealthRedOnUnrepairedViolations(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	installFleetNetwork(t, ts.URL, diamondNetwork(t))
	deployDiamond(t, ts.URL, "victim")

	batch := []model.ChurnEvent{{Kind: model.NodeDown, Node: 1}}
	if err := srv.fleet.withFleet(func(f fleet.Manager) error {
		return f.ApplyChurn(batch)
	}); err != nil {
		t.Fatal(err)
	}
	h := getHealth(t, ts.URL)
	if h.Status != HealthRed || h.SLO.Violating != 1 {
		t.Fatalf("health with 1/1 violating = %+v, want red", h)
	}
	codes := healthReasonCodes(h)
	if len(codes) == 0 || codes[0] != "slo_violations" {
		t.Fatalf("red reasons = %v, want slo_violations first", codes)
	}
	if len(h.SLO.ViolatingTenants) != 1 || h.SLO.ViolatingTenants[0] != "victim" {
		t.Fatalf("violating tenants = %v, want [victim]", h.SLO.ViolatingTenants)
	}

	// Repairing the frontier migrates the tenant and clears the verdict.
	_ = srv.fleet.withFleet(func(f fleet.Manager) error {
		f.Repair(f.Affected(batch))
		return nil
	})
	if h := getHealth(t, ts.URL); h.Status != HealthGreen || h.SLO.Violating != 0 {
		t.Fatalf("health after repair = %+v, want green", h)
	}
}

// TestJournalTailing exercises GET /v1/journal incremental polling: a
// client that passes the last sequence number it saw receives only newer
// events, and the stats block accounts for the full appended history.
func TestJournalTailing(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// An empty journal serves an empty window, not an error.
	var w wire.Journal
	if resp := postGet(t, ts.URL+"/v1/journal", &w); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/journal: status %d", resp.StatusCode)
	}
	if len(w.Events) != 0 || w.Stats.LastSeq != 0 {
		t.Fatalf("empty journal wire = %+v", w)
	}

	installFleetNetwork(t, ts.URL, diamondNetwork(t))
	deployDiamond(t, ts.URL, "tail-a")
	postGet(t, ts.URL+"/v1/journal", &w)
	if len(w.Events) == 0 || w.Events[0].Kind != wal.ShardReconfig {
		t.Fatalf("journal should open with the install event: %+v", w.Events)
	}
	mark := w.Stats.LastSeq

	deployDiamond(t, ts.URL, "tail-b")
	var tail wire.Journal
	postGet(t, ts.URL+"/v1/journal?since="+itoa(mark), &tail)
	if len(tail.Events) == 0 {
		t.Fatal("no events after the mark")
	}
	for _, ev := range tail.Events {
		if ev.Seq <= mark {
			t.Fatalf("since=%d returned event %+v", mark, ev)
		}
	}
	if tail.Events[len(tail.Events)-1].Kind != wal.DeployAdmitted {
		t.Fatalf("tail should end with the second admission: %+v", tail.Events)
	}

	// limit truncates from the oldest end of the selection.
	var limited wire.Journal
	postGet(t, ts.URL+"/v1/journal?limit=1", &limited)
	if len(limited.Events) != 1 {
		t.Fatalf("limit=1 returned %d events", len(limited.Events))
	}

	// Malformed parameters are 400s.
	if resp := postGet(t, ts.URL+"/v1/journal?since=-3", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("since=-3: status %d, want 400", resp.StatusCode)
	}
	if resp := postGet(t, ts.URL+"/v1/journal?limit=x", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=x: status %d, want 400", resp.StatusCode)
	}
}

func itoa(n uint64) string {
	return strconv.FormatUint(n, 10)
}

// TestStatsJournalAndSLOBlocks checks the /v1/stats additions: the journal
// depth/dropped gauges are always present, and the slo block appears once a
// fleet network is installed.
func TestStatsJournalAndSLOBlocks(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	var st statsResponse
	postGet(t, ts.URL+"/v1/stats", &st)
	if st.Journal.Capacity == 0 || st.Journal.Depth != 0 {
		t.Fatalf("pre-install journal stats = %+v", st.Journal)
	}
	if st.SLO != nil {
		t.Fatalf("slo block before fleet install: %+v", st.SLO)
	}

	installFleetNetwork(t, ts.URL, diamondNetwork(t))
	deployDiamond(t, ts.URL, "stats")
	postGet(t, ts.URL+"/v1/stats", &st)
	if st.Journal.Depth == 0 || st.Journal.LastSeq == 0 {
		t.Fatalf("journal stats after traffic = %+v", st.Journal)
	}
	if st.Journal.Dropped != 0 {
		t.Fatalf("journal dropped %d events under capacity", st.Journal.Dropped)
	}
	if st.SLO == nil || st.SLO.Evaluated != 1 || st.SLO.Violating != 0 {
		t.Fatalf("slo block = %+v, want 1 evaluated, 0 violating", st.SLO)
	}
}

// TestDebugDump checks the one-shot snapshot round-trips through JSON with
// every section populated.
func TestDebugDump(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	installFleetNetwork(t, ts.URL, diamondNetwork(t))
	d := deployDiamond(t, ts.URL, "dumped")

	var dump DebugDumpPayload
	if resp := postGet(t, ts.URL+"/v1/debug/dump", &dump); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/dump: status %d", resp.StatusCode)
	}
	if dump.Service != "elpcd" || dump.UptimeMs < 0 {
		t.Fatalf("dump header = service %q, uptime %.1f", dump.Service, dump.UptimeMs)
	}
	if len(dump.Fleet) != 1 || dump.Fleet[0].ID != d.ID {
		t.Fatalf("dump fleet = %+v, want the one deployment", dump.Fleet)
	}
	if len(dump.Journal.Events) == 0 || dump.Journal.Stats.LastSeq == 0 {
		t.Fatalf("dump journal window empty: %+v", dump.Journal.Stats)
	}
	if dump.SLO == nil || dump.SLO.Evaluated != 1 {
		t.Fatalf("dump slo = %+v, want a live evaluation", dump.SLO)
	}
	if len(dump.Metrics) == 0 {
		t.Fatal("dump has no metric summaries")
	}

	// writeDump serializes the same payload to disk (the SIGQUIT path).
	dir := t.TempDir()
	path, err := srv.writeDump(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk DebugDumpPayload
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatalf("dump file is not valid JSON: %v", err)
	}
	if onDisk.Service != "elpcd" || len(onDisk.Fleet) != 1 {
		t.Fatalf("on-disk dump = service %q, %d deployments", onDisk.Service, len(onDisk.Fleet))
	}
}
