package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/service"
)

// The reference decoder planning bodies are held to: encoding/json with
// unknown fields rejected at every level, followed by the model
// constructors. Its types mirror the service's and the model's wire types
// under the same names, so that encoding/json's type errors name the same
// structs (mirrorNames maps the package qualifiers); the network and
// pipeline are decoded by encoding/json alone.

type wireRequest struct {
	Network       *network           `json:"network"`
	Pipeline      *pipeline          `json:"pipeline"`
	Src           model.NodeID       `json:"src"`
	Dst           model.NodeID       `json:"dst"`
	Cost          *model.CostOptions `json:"cost,omitempty"`
	Op            service.Op         `json:"op,omitempty"`
	DelayBudgetMs float64            `json:"delay_budget_ms,omitempty"`
	Points        int                `json:"points,omitempty"`
	AllowSimilar  bool               `json:"allow_similar,omitempty"`
	Frames        int                `json:"frames,omitempty"`
	PaceMs        float64            `json:"pace_ms,omitempty"`
}

type batchWire struct {
	Requests []wireRequest `json:"requests"`
}

type networkJSON struct {
	Nodes []model.Node `json:"nodes"`
	Links []model.Link `json:"links"`
}

type pipelineJSON struct {
	Modules []model.Module `json:"modules"`
}

// mirrorNames rewrites the reference's type names in an error message to
// the names of the types they stand in for.
var mirrorNames = strings.NewReplacer(
	"service_test.networkJSON", "model.networkJSON",
	"service_test.pipelineJSON", "model.pipelineJSON",
	"service_test.", "service.",
)

// network and pipeline stand in for *model.Network and *model.Pipeline,
// whose UnmarshalJSON methods are under test; encoding/json hands them
// every non-null value, as it does the model types.
type network struct{ net *model.Network }

func (n *network) UnmarshalJSON(data []byte) error {
	var w networkJSON
	if err := decodeStrict(data, &w); err != nil {
		return err
	}
	built, err := model.NewNetwork(w.Nodes, w.Links)
	if err != nil {
		return err
	}
	n.net = built
	return nil
}

type pipeline struct{ pipe *model.Pipeline }

func (p *pipeline) UnmarshalJSON(data []byte) error {
	var w pipelineJSON
	if err := decodeStrict(data, &w); err != nil {
		return err
	}
	built, err := model.NewPipeline(w.Modules)
	if err != nil {
		return err
	}
	p.pipe = built
	return nil
}

func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// served converts the reference's decoded request into the service's type.
func (m wireRequest) served() service.WireRequest {
	w := service.WireRequest{
		Src: m.Src, Dst: m.Dst, Cost: m.Cost, Op: m.Op,
		DelayBudgetMs: m.DelayBudgetMs, Points: m.Points, AllowSimilar: m.AllowSimilar,
		Frames: m.Frames, PaceMs: m.PaceMs,
	}
	if m.Network != nil {
		w.Network = m.Network.net
	}
	if m.Pipeline != nil {
		w.Pipeline = m.Pipeline.pipe
	}
	return w
}

func referencePlan(body []byte) (*service.WireRequest, error) {
	var m wireRequest
	if err := decodeStrict(body, &m); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	w := m.served()
	return &w, nil
}

func referenceBatch(body []byte) (*service.BatchWire, error) {
	var m batchWire
	if err := decodeStrict(body, &m); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	var b service.BatchWire
	if m.Requests != nil {
		b.Requests = make([]service.WireRequest, len(m.Requests))
		for i, r := range m.Requests {
			b.Requests[i] = r.served()
		}
	}
	return &b, nil
}

// checkSameDecode fails unless both decodes failed with the same wire code
// and message, or both succeeded with deeply equal values.
func checkSameDecode[T any](t *testing.T, body []byte, got *T, gotErr error, want *T, wantErr error) {
	t.Helper()
	if len(body) > 300 {
		body = append(body[:300:300], "..."...)
	}
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != mirrorNames.Replace(wantErr.Error()) ||
			service.CodeOf(gotErr) != service.CodeOf(wantErr) {
			t.Fatalf("body %q:\n got error %v\nwant error %v", body, gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("body %q: decoded values differ:\n got %+v\nwant %+v", body, got, want)
	}
}

// benchShapedBodies marshals small generated problems the way the
// end-to-end benchmark builds its planning bodies: the network, then the
// pipeline, endpoints and the optional budget or sweep resolution.
func benchShapedBodies(t testing.TB) [][]byte {
	var out [][]byte
	for seed := uint64(1); seed <= 3; seed++ {
		p, err := gen.Problem(gen.CaseSpec{Modules: 4, Nodes: 6, Links: 14}, gen.DefaultRanges(), gen.RNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(struct {
			Network  *model.Network  `json:"network"`
			Pipeline *model.Pipeline `json:"pipeline"`
			Src      model.NodeID    `json:"src"`
			Dst      model.NodeID    `json:"dst"`
			Budget   float64         `json:"delay_budget_ms,omitempty"`
			Points   int             `json:"points,omitempty"`
		}{p.Net, p.Pipe, p.Src, p.Dst, float64(seed-1) * 1000, int(seed-1) * 4})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// FuzzDecodePlanRequest checks the planning-request decoder against the
// reference on any body: the one-pass reader must either decode a body
// exactly as encoding/json would or hand it to encoding/json. The committed
// corpus (testdata/fuzz/FuzzDecodePlanRequest) covers the plain form and
// each way out of it: escapes, case-folded and unknown keys, null,
// duplicate keys (which encoding/json merges), number edge cases, bytes
// after the object, a BOM, truncation, and invalid networks and pipelines
// ahead of later errors.
func FuzzDecodePlanRequest(f *testing.F) {
	for _, body := range benchShapedBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := service.DecodePlanBody(body)
		want, wantErr := referencePlan(body)
		checkSameDecode(t, body, got, gotErr, want, wantErr)
	})
}

// TestDecodeBatchMatchesReference holds /v1/batch bodies to the same
// reference: every item takes the one-pass reader, and an item outside the
// plain form, or an invalid network or pipeline in any item, sends the
// whole body to encoding/json.
func TestDecodeBatchMatchesReference(t *testing.T) {
	items := benchShapedBodies(t)
	invalid := bytes.Replace(items[1], []byte(`"power":`), []byte(`"power":-`), 1)
	batch := func(reqs ...[]byte) []byte {
		return []byte(`{"requests":[` + string(bytes.Join(reqs, []byte(","))) + `]}`)
	}
	bodies := map[string][]byte{
		"plain":                 batch(items...),
		"empty":                 []byte(`{"requests":[]}`),
		"no-requests":           []byte(`{}`),
		"null-requests":         []byte(`{"requests":null}`),
		"invalid-item":          batch(items[0], invalid, items[2]),
		"invalid-then-unknown":  batch(invalid, []byte(`{"bogus":1}`)),
		"invalid-then-syntax":   []byte(strings.TrimSuffix(string(batch(invalid, items[0])), "]}")),
		"unknown-nested":        batch(items[0], bytes.Replace(items[2], []byte(`"mld_ms"`), []byte(`"mld"`), 1)),
		"type-in-second":        batch(items[0], []byte(`{"src":"x"}`)),
		"duplicate-requests":    []byte(`{"requests":[],"requests":[{}]}`),
		"case-folded-requests":  []byte(`{"Requests":[{}]}`),
		"trailing-bytes":        append(batch(items[0]), " tail"...),
		"top-level-unknown":     []byte(`{"requests":[],"op":"front"}`),
		"item-not-an-object":    batch([]byte(`[]`)),
		"item-escaped-op-field": batch([]byte(`{"op":"fr\u006fnt"}`)),
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			got, gotErr := service.DecodeBatchBody(body)
			want, wantErr := referenceBatch(body)
			checkSameDecode(t, body, got, gotErr, want, wantErr)
		})
	}
}
