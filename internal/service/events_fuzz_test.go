package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/service/wire"
)

// eventsFuzzServer is one fleet server of FuzzEventsBody, driven through
// its handler with no listener.
type eventsFuzzServer struct {
	srv *Server
	h   http.Handler
}

// newEventsFuzzServer installs net at the given shard count and deploys the
// same two pipelines on every server: one inside the first cluster and one
// across both, so churn has placements to repair.
func newEventsFuzzServer(t *testing.T, net *model.Network, shards int) *eventsFuzzServer {
	t.Helper()
	srv := NewServer(Options{Workers: 1})
	t.Cleanup(srv.Close)
	s := &eventsFuzzServer{srv: srv, h: srv.Handler()}
	if code, body := s.post(t, "/v1/fleet/network", wire.FleetNetwork{Network: net, Shards: shards}); code != http.StatusOK {
		t.Fatalf("install at %d shards: status %d: %s", shards, code, body)
	}
	for i, ends := range [][2]model.NodeID{{0, 5}, {2, 7}} {
		if code, body := s.post(t, "/v1/fleet/deploy", wire.FleetDeploy{
			Pipeline: fleetTestPipeline(t, 4, uint64(i)+5),
			Src:      ends[0], Dst: ends[1],
		}); code != http.StatusOK {
			t.Fatalf("deploy %d->%d at %d shards: status %d: %s", ends[0], ends[1], shards, code, body)
		}
	}
	return s
}

// post sends body (raw bytes, or any other value as JSON) and returns the
// status and response body.
func (s *eventsFuzzServer) post(t *testing.T, path string, body any) (int, []byte) {
	t.Helper()
	raw, ok := body.([]byte)
	if !ok {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	return rec.Code, rec.Body.Bytes()
}

// capacity reads the fleet's churn capacity factors.
func (s *eventsFuzzServer) capacity(t *testing.T) (node, link []float64) {
	t.Helper()
	if err := s.srv.fleet.withFleet(func(m fleet.Manager) error {
		node, link = m.(*fleet.ShardedFleet).Capacity()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return node, link
}

// FuzzEventsBody sends each body to POST /v1/events on a one-shard and a
// 3-shard server over the same 12-node, two-cluster network. Every answer
// must be a 200 or a 4xx error envelope — never a 500 or a panic — and both
// servers must answer with the same status and error text; a refused batch
// must leave the capacity factors unchanged, and both servers must hold
// equal factors afterwards. The committed corpus
// (testdata/fuzz/FuzzEventsBody) holds a valid batch, two batches that mix
// events on nodes of different regions with an invalid one, a bad factor, a
// boundary-link degrade, an empty list and malformed JSON.
func FuzzEventsBody(f *testing.F) {
	net, err := gen.ClusteredNetwork(gen.ClusterSpec{Clusters: 2, Nodes: 6, Links: 16, InterLinks: 6}, gen.DefaultRanges(), gen.RNG(13))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		shards := []int{1, 3}
		var codes [2]int
		var msgs [2]string
		servers := make([]*eventsFuzzServer, len(shards))
		for i, k := range shards {
			s := newEventsFuzzServer(t, net, k)
			servers[i] = s
			preNode, preLink := s.capacity(t)
			code, resp := s.post(t, "/v1/events", body)
			codes[i] = code
			switch {
			case code == http.StatusOK:
			case code >= 400 && code < 500:
				var env wire.ErrorEnvelope
				if err := json.Unmarshal(resp, &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
					t.Fatalf("shards %d: status %d without an error envelope: %s", shards[i], code, resp)
				}
				msgs[i] = env.Error.Message
				if node, link := s.capacity(t); !reflect.DeepEqual(node, preNode) || !reflect.DeepEqual(link, preLink) {
					t.Fatalf("shards %d: refused batch (%d %s) changed the capacity factors", shards[i], code, msgs[i])
				}
			default:
				t.Fatalf("shards %d: status %d: %s", shards[i], code, resp)
			}
		}
		if codes[0] != codes[1] || msgs[0] != msgs[1] {
			t.Fatalf("shards 1 answered %d %q, shards 3 %d %q", codes[0], msgs[0], codes[1], msgs[1])
		}
		n1, l1 := servers[0].capacity(t)
		n3, l3 := servers[1].capacity(t)
		if !reflect.DeepEqual(n1, n3) || !reflect.DeepEqual(l1, l3) {
			t.Fatalf("capacity factors differ between shards 1 and 3 after status %d", codes[0])
		}
	})
}
