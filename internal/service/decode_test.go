package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/plainjson"
	"elpc/internal/service/wire"
)

// TestNestedUnknownFieldsRejected pins strict validation inside the
// network, pipeline, nodes, links and modules of every route that carries
// them: a misspelled nested field is a 400, not a silently zeroed value.
func TestNestedUnknownFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	net := fleetTestNetwork(t)
	installFleetNetwork(t, ts.URL, net)
	netJSON, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	pipeJSON, err := json.Marshal(fleetTestPipeline(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	replaceFirst := func(doc []byte, old, new string) string {
		if !bytes.Contains(doc, []byte(old)) {
			t.Fatalf("%q not found in %s", old, doc)
		}
		return strings.Replace(string(doc), old, new, 1)
	}
	// "mld" is a typo of "mld_ms": the link's MLD would silently become 0.
	mldTypo := replaceFirst(netJSON, `"mld_ms":`, `"mld":`)
	bogusNode := replaceFirst(netJSON, `"power":`, `"bogus":1,"power":`)
	complexityTypo := replaceFirst(pipeJSON, `{"id":0,`, `{"id":0,"complexty":9,`)
	plan := func(network, pipeline string) string {
		return `{"network":` + network + `,"pipeline":` + pipeline + `,"src":0,"dst":9}`
	}
	for _, tc := range []struct{ name, url, body, field string }{
		{"mindelay link", "/v1/mindelay", plan(mldTypo, string(pipeJSON)), "mld"},
		{"mindelay node", "/v1/mindelay", plan(bogusNode, string(pipeJSON)), "bogus"},
		{"mindelay module", "/v1/mindelay", plan(string(netJSON), complexityTypo), "complexty"},
		{"simulate link", "/v1/simulate", plan(mldTypo, string(pipeJSON)), "mld"},
		{"batch node", "/v1/batch", `{"requests":[` + plan(bogusNode, string(pipeJSON)) + `]}`, "bogus"},
		{"fleet network link", "/v1/fleet/network", `{"network":` + mldTypo + `}`, "mld"},
		{"fleet deploy module", "/v1/fleet/deploy", `{"tenant":"t","pipeline":` + complexityTypo + `,"src":0,"dst":9}`, "complexty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var raw json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
			}
			env := decodeEnvelope(t, resp, raw)
			if env.Error.Code != wire.CodeInvalidRequest || !strings.Contains(env.Error.Message, `unknown field "`+tc.field+`"`) {
				t.Fatalf("envelope %+v, want invalid_request naming field %q", env.Error, tc.field)
			}
		})
	}
}

// TestGeneratedRequestsTakeOnePass is the fast-path property: json.Marshal
// of any request built from generated problems — every Suite20 case and a
// clustered network, with every optional field set — is in the plain form,
// and the one-pass reader decodes it to what encoding/json decodes.
func TestGeneratedRequestsTakeOnePass(t *testing.T) {
	var problems []*model.Problem
	for i := range gen.Suite20() {
		problems = append(problems, buildSuiteProblem(t, i))
	}
	spec := gen.ClusterSpec{Clusters: 3, Nodes: 8, Links: 30, InterLinks: 10}
	net, err := gen.ClusteredNetwork(spec, gen.DefaultRanges(), gen.RNG(5))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := gen.Pipeline(6, gen.DefaultRanges(), gen.RNG(6))
	if err != nil {
		t.Fatal(err)
	}
	problems = append(problems, &model.Problem{Net: net, Pipe: pipe, Src: 0, Dst: model.NodeID(spec.N() - 1)})

	rng := rand.New(rand.NewPCG(1, 2))
	for i, p := range problems {
		cost := model.CostOptions{IncludeMLDInDelay: i%2 == 0}
		body, err := json.Marshal(wireRequest{
			Network: p.Net, Pipeline: p.Pipe, Src: p.Src, Dst: p.Dst, Cost: &cost,
			Op: OpFront, DelayBudgetMs: rng.Float64() * 1e4, Points: 1 + rng.IntN(16),
			AllowSimilar: true, Frames: rng.IntN(500), PaceMs: rng.ExpFloat64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var got wireRequest
		if err := readPlainRequest(plainjson.NewReader(body), &got); err != nil {
			t.Fatalf("problem %d: one-pass read failed: %v", i, err)
		}
		var want wireRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("problem %d: one-pass decode differs from encoding/json", i)
		}
	}
}

// TestDecodeBodyCutShort pins the read-error contract: a body cut short by
// the size limit decodes exactly as a streaming decoder reading through
// the same limit would — the value if it ended in time, the read error
// otherwise.
func TestDecodeBodyCutShort(t *testing.T) {
	body, err := json.Marshal(wireFor(buildSuiteProblem(t, 0)))
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, strings.Repeat(" ", 64)...)
	for _, limit := range []int64{0, 10, int64(len(body)) / 2, int64(len(body)) - 65, int64(len(body)) - 64, int64(len(body)) - 1} {
		limited := func() io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)
		}
		read, readErr := io.ReadAll(limited())
		if readErr == nil {
			t.Fatalf("limit %d: body not cut", limit)
		}
		got, gotErr := decodeBody(read, readErr, readPlainRequest)

		dec := json.NewDecoder(limited())
		dec.DisallowUnknownFields()
		var want wireRequest
		wantErr := dec.Decode(&want)
		switch {
		case wantErr != nil:
			var tooLarge *http.MaxBytesError
			if gotErr == nil || !errors.As(gotErr, &tooLarge) || gotErr.Error() != "decoding request: "+wantErr.Error() {
				t.Fatalf("limit %d: got %v, want decoding request: %v", limit, gotErr, wantErr)
			}
		case gotErr != nil || !reflect.DeepEqual(*got, want):
			t.Fatalf("limit %d: got %v, want the decoded request", limit, gotErr)
		}
	}
}
