package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"elpc/internal/fleet"
	"elpc/internal/model"
	"elpc/internal/service/wire"
)

// decodeEnvelope asserts a response carries the structured error envelope
// and returns it.
func decodeEnvelope(t *testing.T, resp *http.Response, raw json.RawMessage) wire.ErrorEnvelope {
	t.Helper()
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("response is not an error envelope (status %d): %s", resp.StatusCode, raw)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message (status %d): %s", resp.StatusCode, raw)
	}
	if want := wire.StatusOf(env.Error.Code); resp.StatusCode != want {
		t.Fatalf("status %d does not match code %q (want %d)", resp.StatusCode, env.Error.Code, want)
	}
	if env.Error.Retryable != wire.Retryable(env.Error.Code) {
		t.Fatalf("envelope retryable %v inconsistent with code %q", env.Error.Retryable, env.Error.Code)
	}
	return env
}

func batchDeployBody(t *testing.T, n int, class string) wire.DeployBatch {
	t.Helper()
	var body wire.DeployBatch
	for i := 0; i < n; i++ {
		body.Requests = append(body.Requests, wire.FleetDeploy{
			Tenant:     fmt.Sprintf("batch-%d", i),
			Pipeline:   fleetTestPipeline(t, 5, uint64(i+1)),
			Src:        0,
			Dst:        9,
			Op:         string(OpMaxFrameRate),
			MinRateFPS: 2,
			Class:      class,
		})
	}
	return body
}

func TestDeployBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	installFleetNetwork(t, ts.URL, fleetTestNetwork(t))

	body := batchDeployBody(t, 4, "")
	body.Requests[1].Op = "bogus"         // per-item invalid_request
	body.Requests[2].MinRateFPS = 1e9     // per-item rejection (conflict)
	body.Requests[3].Class = "guaranteed" // rides along fine
	var out wire.DeployBatchResponse
	resp := postJSON(t, ts.URL+"/v1/fleet/deploy-batch", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy-batch: status %d", resp.StatusCode)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	if out.Admitted != 2 || out.Rejected != 2 || out.Shed != 0 {
		t.Fatalf("tallies admitted=%d rejected=%d shed=%d, want 2/2/0", out.Admitted, out.Rejected, out.Shed)
	}
	for i, item := range out.Results {
		if item.Index != i {
			t.Fatalf("result %d has index %d", i, item.Index)
		}
	}
	if out.Results[0].Deployment == nil || out.Results[3].Deployment == nil {
		t.Fatalf("valid requests not admitted: %+v", out.Results)
	}
	if got := out.Results[3].Deployment.SLO.Class; got != fleet.ClassGuaranteed {
		t.Fatalf("class not threaded through: %q", got)
	}
	if e := out.Results[1].Error; e == nil || e.Code != wire.CodeInvalidRequest {
		t.Fatalf("bogus op: %+v", out.Results[1].Error)
	}
	if e := out.Results[2].Error; e == nil || e.Code != wire.CodeConflict {
		t.Fatalf("unsatisfiable demand: %+v", out.Results[2].Error)
	}

	// An empty batch is a request-level 400 with the envelope.
	var raw json.RawMessage
	resp = postJSON(t, ts.URL+"/v1/fleet/deploy-batch", wire.DeployBatch{}, &raw)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	decodeEnvelope(t, resp, raw)
}

// TestBestEffortShed pins the 429 contract: with a negative intake bound
// (brownout drill mode) every best-effort deploy is shed with the envelope's
// shed code and a Retry-After hint, while standard traffic still admits.
func TestBestEffortShed(t *testing.T) {
	_, ts := newTestServer(t, Options{IntakeBound: -1})
	installFleetNetwork(t, ts.URL, fleetTestNetwork(t))

	var raw json.RawMessage
	resp := postJSON(t, ts.URL+"/v1/fleet/deploy", wire.FleetDeploy{
		Tenant: "be", Pipeline: fleetTestPipeline(t, 5, 1), Src: 0, Dst: 9,
		Class: string(fleet.ClassBestEffort),
	}, &raw)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("best-effort deploy under brownout: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	env := decodeEnvelope(t, resp, raw)
	if env.Error.Code != wire.CodeShed || !env.Error.Retryable {
		t.Fatalf("shed envelope: %+v", env.Error)
	}

	// Standard traffic is never shed at intake.
	resp = postJSON(t, ts.URL+"/v1/fleet/deploy", wire.FleetDeploy{
		Tenant: "std", Pipeline: fleetTestPipeline(t, 5, 1), Src: 0, Dst: 9,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("standard deploy under brownout: status %d, want 200", resp.StatusCode)
	}

	// In a batch, best-effort items shed individually; the rest proceed.
	body := batchDeployBody(t, 3, "")
	body.Requests[1].Class = string(fleet.ClassBestEffort)
	var out wire.DeployBatchResponse
	resp = postJSON(t, ts.URL+"/v1/fleet/deploy-batch", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch: status %d", resp.StatusCode)
	}
	if out.Admitted != 2 || out.Shed != 1 {
		t.Fatalf("mixed batch tallies: %+v", out)
	}
	if e := out.Results[1].Error; e == nil || e.Code != wire.CodeShed || !e.Retryable {
		t.Fatalf("shed batch item: %+v", out.Results[1].Error)
	}

	// The admission counters and gauges are exported.
	sresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	data, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(data)
	for _, want := range []string{"elpc_admission_shed_total", "elpc_admission_queued_total", "elpc_admission_queue_depth", "elpc_admission_intake_bound"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestQueryParamValidation pins the 400-envelope contract on bad query
// params across the GET endpoints.
func TestQueryParamValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	installFleetNetwork(t, ts.URL, fleetTestNetwork(t))

	for _, url := range []string{
		ts.URL + "/v1/fleet?limit=bogus",
		ts.URL + "/v1/fleet?limit=-3",
		ts.URL + "/v1/journal?limit=bogus",
		ts.URL + "/v1/events/log?limit=bogus",
	} {
		var raw json.RawMessage
		resp := postGet(t, url, &raw)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", url, resp.StatusCode)
		}
		env := decodeEnvelope(t, resp, raw)
		if env.Error.Code != wire.CodeInvalidRequest {
			t.Fatalf("%s: code %q", url, env.Error.Code)
		}
	}

	// Valid limits keep working.
	var list wire.FleetList
	if resp := postGet(t, ts.URL+"/v1/fleet?limit=1", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid limit: status %d", resp.StatusCode)
	}
}

// TestUnknownFieldsRejected pins strict body validation on POST handlers.
func TestUnknownFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	installFleetNetwork(t, ts.URL, fleetTestNetwork(t))

	for _, tc := range []struct{ url, body string }{
		{"/v1/fleet/deploy", `{"tenant":"x","bogus_field":1}`},
		{"/v1/fleet/deploy-batch", `{"requests":[],"bogus_field":1}`},
		{"/v1/fleet/release", `{"id":"d-1","bogus_field":1}`},
		// Rebalance has one mode; the field that selected a parallel one
		// is gone.
		{"/v1/fleet/rebalance", `{"max_moves":2,"workers":2}`},
	} {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var raw json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with unknown field: status %d, want 400", tc.url, resp.StatusCode)
		}
		env := decodeEnvelope(t, resp, raw)
		if env.Error.Code != wire.CodeInvalidRequest {
			t.Fatalf("%s: code %q", tc.url, env.Error.Code)
		}
	}
}

// TestAdmissionStress mixes deploy-batch bursts, single deploys (including
// guaranteed ones that preempt), churn events, and releases across
// goroutines; run with -race it pins the admission pipeline's concurrency
// safety end to end.
func TestAdmissionStress(t *testing.T) {
	_, ts := newTestServer(t, Options{IntakeBound: 4})
	installFleetNetwork(t, ts.URL, fleetTestNetwork(t))

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch i % 3 {
				case 0:
					// Mixed-class burst through deploy-batch.
					body := batchDeployBody(t, 4, "")
					body.Requests[0].Class = string(fleet.ClassGuaranteed)
					body.Requests[1].Class = string(fleet.ClassBestEffort)
					body.Requests[2].Class = string(fleet.ClassBestEffort)
					var out wire.DeployBatchResponse
					resp := postJSON(t, ts.URL+"/v1/fleet/deploy-batch", body, &out)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("batch: status %d", resp.StatusCode)
					}
				case 1:
					// Guaranteed single deploy: may preempt best-effort tenants.
					resp := postJSON(t, ts.URL+"/v1/fleet/deploy", wire.FleetDeploy{
						Tenant: fmt.Sprintf("vip-%d-%d", w, i), Pipeline: fleetTestPipeline(t, 5, uint64(w*10+i)),
						Src: 0, Dst: 9, Op: string(OpMaxFrameRate), MinRateFPS: 10,
						Class: string(fleet.ClassGuaranteed),
					}, nil)
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
						t.Errorf("guaranteed deploy: status %d", resp.StatusCode)
					}
				case 2:
					// Churn event against the live fleet.
					resp := postJSON(t, ts.URL+"/v1/events", wire.Events{
						Events: []model.ChurnEvent{{Kind: model.CapacityDrift, Node: model.NodeID((w + i) % 10), Factor: 0.9}},
					}, nil)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("churn event: status %d", resp.StatusCode)
					}
				}
				// Periodically release everything to keep admission flowing.
				var list wire.FleetList
				if resp := postGet(t, ts.URL+"/v1/fleet?limit=2", &list); resp.StatusCode == http.StatusOK {
					for _, d := range list.Deployments {
						postJSON(t, ts.URL+"/v1/fleet/release", wire.FleetRelease{ID: d.ID}, nil)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
