package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"elpc/internal/fleet"
	"elpc/internal/service/wire"
)

// FuzzFleetNetworkBody sends each body to POST /v1/fleet/network on a fresh
// server. Every answer must be a 200 or a 4xx error envelope — never a 500
// or a panic. On a 200 the echoed and the installed shard counts must both
// be max(shards, 1), the installed fleet must hold no load and nominal
// capacity on every node and link, and GET /v1/stats must answer 200. The
// committed corpus (testdata/fuzz/FuzzFleetNetworkBody) holds a 4-node
// network at shards 0, 1, 3 and 4 (its node count), at shards 5 and -1, a
// body with no network, malformed JSON, a nested unknown field and a link
// to an unknown node.
func FuzzFleetNetworkBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := NewServer(Options{Workers: 1})
		defer srv.Close()
		h := srv.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/network", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusOK:
		case code >= 400 && code < 500:
			var env wire.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("status %d without an error envelope: %s", code, rec.Body.Bytes())
			}
			return
		default:
			t.Fatalf("status %d: %s", code, rec.Body.Bytes())
		}

		var req wire.FleetNetwork
		if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
			t.Fatalf("200 for a body the decoder refuses: %v", err)
		}
		want := max(req.Shards, 1)
		var echo struct {
			Shards int `json:"shards"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &echo); err != nil || echo.Shards != want {
			t.Fatalf("echoed %s (%v), want shards %d", rec.Body.Bytes(), err, want)
		}
		if err := srv.fleet.withFleet(func(m fleet.Manager) error {
			if got := m.Shards(); got != want {
				t.Fatalf("installed %d shards, want %d", got, want)
			}
			sf := m.(*fleet.ShardedFleet)
			node, link := sf.Utilization()
			for _, u := range append(node, link...) {
				if u != 0 {
					t.Fatalf("fresh install holds load: nodes %v links %v", node, link)
				}
			}
			node, link = sf.Capacity()
			for _, c := range append(node, link...) {
				if c != 1 {
					t.Fatalf("fresh install is not at nominal capacity: nodes %v links %v", node, link)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("no fleet after a 200: %v", err)
		}
		stats := httptest.NewRecorder()
		h.ServeHTTP(stats, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		if stats.Code != http.StatusOK {
			t.Fatalf("GET /v1/stats after install: status %d: %s", stats.Code, stats.Body.Bytes())
		}
	})
}
