package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/service/wire"
)

// transcriptGolden is the committed /v1/journal and timeline transcript of
// TestJournalGoldenTranscript. Delete it and rerun the test to regenerate it;
// review the diff before committing.
const transcriptGolden = "testdata/journal_transcript.golden"

// TestJournalGoldenTranscript drives every journal kind that can be produced
// deterministically over HTTP — everything but the two-phase retry and abort
// notes, which need a concurrent admission between the phases — and compares
// the served journal and every deployment's timeline, with wall-clock
// fields zeroed, against a committed transcript. A change to the wire shape,
// the order, an actor or shard label, or a detail line shows up as a diff.
func TestJournalGoldenTranscript(t *testing.T) {
	var out bytes.Buffer

	// One shard on the diamond: admit, reject, preempt, churn (kept, parked,
	// migrated), requeue, rebalance, release, and a batch. Nothing parked can
	// fit again except through the node_up batch, so the background requeue
	// loop never admits anything.
	_, ts := newTestServer(t, Options{})
	installFleetNetwork(t, ts.URL, diamondNetwork(t))
	transcriptDeploy(t, ts.URL, wire.FleetDeploy{Tenant: "cam"}, http.StatusOK)
	transcriptDeploy(t, ts.URL, wire.FleetDeploy{Tenant: "tight", MaxDelayMs: 1}, http.StatusConflict)
	transcriptDeploy(t, ts.URL, wire.FleetDeploy{Tenant: "be", MinRateFPS: 8, Class: "best_effort"}, http.StatusOK)
	transcriptDeploy(t, ts.URL, wire.FleetDeploy{Tenant: "gold", MinRateFPS: 14, Class: "guaranteed"}, http.StatusOK)
	postEvents(t, ts.URL, model.ChurnEvent{Kind: model.CapacityDrift, Node: 0, Factor: 0.9})
	postEvents(t, ts.URL, model.ChurnEvent{Kind: model.NodeDown, Node: 1})
	// Restoring v1 requeues both parked tenants; the guaranteed one
	// preempts the best-effort one again.
	if rec := postEvents(t, ts.URL, model.ChurnEvent{Kind: model.NodeUp, Node: 1}); rec.Requeued != 2 {
		t.Fatalf("node_up record = %+v, want both parked tenants requeued", rec)
	}
	var rb fleet.Report
	postJSON(t, ts.URL+"/v1/fleet/rebalance", fleet.RebalanceOptions{MaxMoves: 4, MinGain: 0.05}, &rb)
	if rb.Applied != 1 {
		t.Fatalf("rebalance report = %+v, want one move", rb)
	}
	if resp := postJSON(t, ts.URL+"/v1/fleet/release", wire.FleetRelease{ID: "d-000001"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("release: status %d", resp.StatusCode)
	}
	var batch wire.DeployBatchResponse
	postJSON(t, ts.URL+"/v1/fleet/deploy-batch", wire.DeployBatch{Requests: []wire.FleetDeploy{
		{Tenant: "b1", Pipeline: diamondPipeline(t), Src: 0, Dst: 3},
		{Tenant: "b2", Pipeline: diamondPipeline(t), Src: 0, Dst: 3, MaxDelayMs: 1},
	}}, &batch)
	if batch.Admitted != 1 || batch.Rejected != 1 {
		t.Fatalf("batch response = %+v, want one admitted and one rejected", batch)
	}
	writeTranscript(t, &out, "one shard", ts.URL)

	// A negative intake bound sheds every best-effort request.
	_, shedTS := newTestServer(t, Options{IntakeBound: -1})
	installFleetNetwork(t, shedTS.URL, diamondNetwork(t))
	transcriptDeploy(t, shedTS.URL, wire.FleetDeploy{Tenant: "shed-me", Class: "best_effort"}, http.StatusTooManyRequests)
	writeTranscript(t, &out, "shedding", shedTS.URL)

	// Three shards: one regional admission and one two-phase cross-region
	// admission through the coordinator.
	_, kts := newTestServer(t, Options{})
	net, err := gen.ClusteredNetwork(gen.ClusterSpec{Clusters: 3, Nodes: 4, Links: 12, InterLinks: 6}, gen.DefaultRanges(), gen.RNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, kts.URL+"/v1/fleet/network", wire.FleetNetwork{Network: net, Shards: 3}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded install: status %d", resp.StatusCode)
	}
	for _, q := range []wire.FleetDeploy{
		{Tenant: "local", Pipeline: fleetTestPipeline(t, 4, 11), Src: 0, Dst: 3},
		{Tenant: "x-region", Pipeline: fleetTestPipeline(t, 4, 12), Src: 0, Dst: 11},
	} {
		transcriptDeploy(t, kts.URL, q, http.StatusOK)
	}
	writeTranscript(t, &out, "three shards", kts.URL)

	want, err := os.ReadFile(transcriptGolden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(transcriptGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transcriptGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this run — review and commit it", transcriptGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("transcript differs from %s at line %d:\n got: %s\nwant: %s", transcriptGolden, i+1, g, w)
			}
		}
	}
}

// transcriptDeploy posts one deploy of the diamond pipeline (v0 -> v3 unless
// the body names its own pipeline) and checks the status.
func transcriptDeploy(t *testing.T, url string, q wire.FleetDeploy, status int) {
	t.Helper()
	if q.Pipeline == nil {
		q.Pipeline, q.Src, q.Dst = diamondPipeline(t), 0, 3
	}
	if resp := postJSON(t, url+"/v1/fleet/deploy", q, nil); resp.StatusCode != status {
		t.Fatalf("deploy %s: status %d, want %d", q.Tenant, resp.StatusCode, status)
	}
}

// writeTranscript appends one server's journal and the timeline of every
// deployment it names, one event per line, with t_ms and the churn
// payload's repair_ms (wall-clock) zeroed.
func writeTranscript(t *testing.T, out *bytes.Buffer, title, url string) {
	t.Helper()
	var j wire.Journal
	if resp := postGet(t, url+"/v1/journal?limit=0", &j); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/journal: status %d", resp.StatusCode)
	}
	fmt.Fprintf(out, "## %s: journal\n", title)
	ids := map[string]bool{}
	for _, ev := range j.Events {
		writeTranscriptEvent(t, out, ev)
		if ev.Deployment != "" {
			ids[ev.Deployment] = true
		}
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		var tl wire.Timeline
		if resp := postGet(t, url+"/v1/fleet/"+id+"/timeline", &tl); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET timeline %s: status %d", id, resp.StatusCode)
		}
		fmt.Fprintf(out, "## %s: timeline %s live=%v\n", title, tl.ID, tl.Live)
		for _, ev := range tl.Events {
			writeTranscriptEvent(t, out, ev)
		}
	}
}

func writeTranscriptEvent(t *testing.T, out *bytes.Buffer, ev journal.Event) {
	t.Helper()
	ev.TimeMs = 0
	if p, ok := ev.Payload.(map[string]any); ok {
		p["repair_ms"] = 0
	}
	line, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	out.Write(line)
	out.WriteByte('\n')
}
