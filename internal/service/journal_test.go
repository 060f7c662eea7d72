package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"elpc/internal/fleet"
	"elpc/internal/gen"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/service/wire"
	"elpc/internal/wal"
)

// This file checks that /v1/journal is a view of the transition log: in
// causal order, tailable to the end of the cursor range, and equal to the
// projection of the records the write-ahead log holds.

// TestJournalCausalOrder runs the churn cycle of a parked tenant — one
// deploy, a batch failing both diamond arms, a batch restoring them — and
// checks each batch's events bracket what the batch caused: its
// churn_applied events come before every repair, admission and requeue its
// repair or requeue pass produced, and its churn_batch summary after them.
func TestJournalCausalOrder(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	installFleetNetwork(t, ts.URL, diamondNetwork(t))
	deployDiamond(t, ts.URL, "fragile")
	if rec := postEvents(t, ts.URL,
		model.ChurnEvent{Kind: model.NodeDown, Node: 1},
		model.ChurnEvent{Kind: model.NodeDown, Node: 2}); rec.Parked != 1 {
		t.Fatalf("double failure record = %+v, want the tenant parked", rec)
	}
	if rec := postEvents(t, ts.URL,
		model.ChurnEvent{Kind: model.NodeUp, Node: 1},
		model.ChurnEvent{Kind: model.NodeUp, Node: 2}); rec.Requeued != 1 {
		t.Fatalf("restore record = %+v, want the tenant requeued", rec)
	}

	var j wire.Journal
	postGet(t, ts.URL+"/v1/journal?limit=0", &j)
	applied, caused, batches := 0, 0, 0
	open := false // inside a batch: its churn_applied seen, its churn_batch not yet
	for _, ev := range j.Events {
		switch ev.Kind {
		case wal.ChurnApplied:
			open = true
			applied++
		case wal.ChurnBatch:
			if !open {
				t.Errorf("churn_batch seq %d closes no batch", ev.Seq)
			}
			open = false
			batches++
		case wal.RepairKept, wal.RepairMigrated, wal.RepairParked, wal.Requeued:
			if !open {
				t.Errorf("%s seq %d lies outside its batch's churn_applied .. churn_batch window", ev.Kind, ev.Seq)
			}
			caused++
		case wal.DeployAdmitted:
			if open {
				caused++
			} else if batches > 0 {
				t.Errorf("deploy_admitted seq %d after the churn batches lies outside their windows", ev.Seq)
			}
		}
	}
	// Four churn_applied events, two summaries, and three caused events: the
	// park, then the requeue's admission and its requeued event.
	if applied != 4 || batches != 2 || caused != 3 {
		t.Fatalf("journal has %d churn_applied, %d churn_batch, %d caused events, want 4, 2, 3: %+v",
			applied, batches, caused, j.Events)
	}
}

// TestJournalSinceMaxCursor checks a cursor at the top of the uint64 range
// selects nothing (seq+1 wraps to 0 there).
func TestJournalSinceMaxCursor(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	installFleetNetwork(t, ts.URL, diamondNetwork(t))
	deployDiamond(t, ts.URL, "tail")
	var w wire.Journal
	if resp := postGet(t, ts.URL+"/v1/journal?since=18446744073709551615", &w); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/journal: status %d", resp.StatusCode)
	}
	if len(w.Events) != 0 || w.Stats.LastSeq == 0 {
		t.Fatalf("since=MaxUint64 returned %d events (last seq %d), want none", len(w.Events), w.Stats.LastSeq)
	}
}

// TestJournalProjectsWAL drives a durable server through a seeded mixed
// workload — deploys (cross-region ones at K=3), batches, releases, churn
// with parks and requeues, and rebalances — and checks that /v1/journal
// equals, in order and value, the projection of the records decoded from
// its data directory. Shed requests are the one exception: they never reach
// the fleet, so their record goes to the journal only.
func TestJournalProjectsWAL(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("K%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			srv, ts := newDurableTestServer(t, dir, Options{})
			defer ts.Close()
			defer srv.Close()
			net, err := gen.ClusteredNetwork(gen.ClusterSpec{Clusters: 3, Nodes: 5, Links: 16, InterLinks: 6}, gen.DefaultRanges(), gen.RNG(7))
			if err != nil {
				t.Fatal(err)
			}
			if resp := postJSON(t, ts.URL+"/v1/fleet/network", wire.FleetNetwork{Network: net, Shards: shards}, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("install: status %d", resp.StatusCode)
			}
			driveMixedWorkload(t, ts.URL, net, rand.New(rand.NewSource(int64(41+shards))))
			srv.fleet.close() // stop the background requeue loop: no record after the reads below

			var live wire.Journal
			postGet(t, ts.URL+"/v1/journal?limit=0", &live)
			if live.Stats.Dropped != 0 {
				t.Fatalf("journal dropped %d events", live.Stats.Dropped)
			}
			kinds := map[wal.Kind]int{}
			var got []journal.Event
			for _, ev := range live.Events {
				kinds[ev.Kind]++
				if ev.Kind != wal.AdmissionShed {
					ev.Seq, ev.TimeMs = 0, 0
					got = append(got, ev)
				}
			}
			for _, k := range []wal.Kind{wal.ShardReconfig, wal.DeployAdmitted, wal.DeployRejected, wal.ReleaseDone,
				wal.ChurnApplied, wal.ChurnBatch, wal.RepairParked, wal.Requeued} {
				if kinds[k] == 0 {
					t.Errorf("workload produced no %s event: %v", k, kinds)
				}
			}
			if shards > 1 && kinds[wal.TwoPhaseCommit] == 0 {
				t.Errorf("workload produced no cross-region admission: %v", kinds)
			}

			want := projectDataDir(t, dir)
			if len(got) != len(want) {
				t.Fatalf("journal has %d events, the log projects to %d", len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("event %d: journal %+v, log %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// projectDataDir decodes every record in dir's log segments and projects
// them onto a fresh journal, returning the events in their wire form with
// seq and t_ms zeroed.
func projectDataDir(t *testing.T, dir string) []journal.Event {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	j := journal.New(1 << 16)
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := wal.DecodeFrames(data)
		if err != nil {
			t.Fatalf("decode %s: %v", seg, err)
		}
		for i := range recs {
			j.Append(&recs[i], nil)
		}
	}
	raw, err := json.Marshal(j.Since(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var evs []journal.Event
	if err := json.Unmarshal(raw, &evs); err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		evs[i].Seq, evs[i].TimeMs = 0, 0
	}
	return evs
}

// driveMixedWorkload issues a seeded sequence of fleet requests, one at a
// time: deploys across random endpoints and classes, batches, releases,
// node failures and restores, and rebalances.
func driveMixedWorkload(t *testing.T, url string, net *model.Network, rng *rand.Rand) {
	t.Helper()
	classes := []string{"", "guaranteed", "best_effort"}
	request := func(i int) wire.FleetDeploy {
		src := model.NodeID(rng.Intn(net.N()))
		dst := model.NodeID(rng.Intn(net.N()))
		for dst == src {
			dst = model.NodeID(rng.Intn(net.N()))
		}
		return wire.FleetDeploy{
			Tenant:     fmt.Sprintf("t%d", i),
			Pipeline:   fleetTestPipeline(t, 3+rng.Intn(3), uint64(i+1)),
			Src:        src,
			Dst:        dst,
			MinRateFPS: float64(rng.Intn(4)),
			Class:      classes[rng.Intn(len(classes))],
		}
	}
	down := map[model.NodeID]bool{}
	for i := 0; i < 90; i++ {
		switch p := rng.Intn(100); {
		case p < 35:
			postJSON(t, url+"/v1/fleet/deploy", request(i), nil)
		case p < 45:
			batch := wire.DeployBatch{}
			for k := 0; k < 2+rng.Intn(3); k++ {
				batch.Requests = append(batch.Requests, request(100*i+k))
			}
			postJSON(t, url+"/v1/fleet/deploy-batch", batch, nil)
		case p < 58:
			var list wire.FleetList
			postGet(t, url+"/v1/fleet", &list)
			if len(list.Deployments) > 0 {
				id := list.Deployments[rng.Intn(len(list.Deployments))].ID
				postJSON(t, url+"/v1/fleet/release", wire.FleetRelease{ID: id}, nil)
			}
		case p < 90:
			v := model.NodeID(rng.Intn(net.N()))
			ev := model.ChurnEvent{Kind: model.NodeDown, Node: v}
			if down[v] {
				ev.Kind = model.NodeUp
			} else if len(down) >= 3 {
				continue
			}
			if resp := postJSON(t, url+"/v1/events", wire.Events{Events: []model.ChurnEvent{ev}}, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("churn %s: status %d", ev, resp.StatusCode)
			}
			down[v] = ev.Kind == model.NodeDown
			if !down[v] {
				delete(down, v)
			}
		default:
			postJSON(t, url+"/v1/fleet/rebalance", fleet.RebalanceOptions{MaxMoves: 2, MinGain: 0.02}, nil)
		}
	}
}
