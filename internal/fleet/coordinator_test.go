package fleet

import (
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// crossFleet builds a 2-shard fleet over the two-cluster test topology,
// partitioned the way recovery rebuilds it, so cluster 0 (nodes 0..5) and
// cluster 1 (nodes 6..11) are the two regions.
func crossFleet(t *testing.T) (*ShardedFleet, *model.Network) {
	t.Helper()
	net, err := gen.ClusteredNetwork(testClusterSpec(), gen.DefaultRanges(), gen.RNG(7))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewSharded(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Partition().SameRegion(0, 11) {
		t.Fatal("partition does not separate the two clusters")
	}
	return sf, net
}

// crossRequest is a cross-region request from node 0 to node 11.
func crossRequest(t *testing.T, tenant string, class Class, seed uint64) Request {
	t.Helper()
	return Request{
		Tenant:    tenant,
		Pipeline:  testPipeline(t, 3, seed),
		Src:       0,
		Dst:       11,
		Objective: model.MinDelay,
		SLO:       SLO{Class: class},
	}
}

// TestCoordinatorRequeueRecovers parks a cross-region deployment, re-admits
// it through the coordinator with RequeueOf set (as the reconciler's
// requeue loop does), and reopens the log: recovery must drain the parked
// entry, or a restarted reconciler admits the tenant a second time.
func TestCoordinatorRequeueRecovers(t *testing.T) {
	sf, net := crossFleet(t)
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendInstall(l, net, 2); err != nil {
		t.Fatal(err)
	}
	sf.UseWAL(l)

	d, err := sf.Deploy(crossRequest(t, "cam", ClassStandard, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "x-d-000001" {
		t.Fatalf("cross-region deployment got ID %q, want x-d-000001", d.ID)
	}
	down := []model.ChurnEvent{{Kind: model.NodeDown, Node: 0}}
	if err := sf.ApplyChurn(down); err != nil {
		t.Fatal(err)
	}
	rep := sf.Repair(sf.Affected(down), RepairOptions{})
	if len(rep.Parked) != 1 || rep.Parked[0].ID != d.ID {
		t.Fatalf("repair parked %+v, want %s", rep.Parked, d.ID)
	}
	if err := sf.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeUp, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	req := rep.Parked[0].Req
	req.RequeueOf = rep.Parked[0].ID
	back, err := sf.Deploy(req)
	if err != nil {
		t.Fatalf("requeue: %v", err)
	}
	if back.ID != "x-d-000002" {
		t.Fatalf("requeued deployment got ID %q, want x-d-000002", back.ID)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, _ := recoverDir(t, dir)
	if got := len(r.Manager.List()); got != 1 {
		t.Errorf("recovered %d deployments, want 1", got)
	}
	if len(r.Parked) != 0 {
		t.Errorf("recovered parked pool %+v, want empty: the requeue drained it", r.Parked)
	}
}

// TestCoordinatorRepairClassOrder checks cross-region repair honors the
// RepairReport contract (outcomes in SLO class rank order): a guaranteed
// deployment re-fits before a best-effort one admitted earlier, as
// regional repair does.
func TestCoordinatorRepairClassOrder(t *testing.T) {
	sf, _ := crossFleet(t)
	be, err := sf.Deploy(crossRequest(t, "be", ClassBestEffort, 2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sf.Deploy(crossRequest(t, "g", ClassGuaranteed, 3))
	if err != nil {
		t.Fatal(err)
	}
	if be.ID != "x-d-000001" || g.ID != "x-d-000002" {
		t.Fatalf("cross-region IDs %q, %q; want x-d-000001, x-d-000002", be.ID, g.ID)
	}
	down := []model.ChurnEvent{{Kind: model.NodeDown, Node: 0}}
	if err := sf.ApplyChurn(down); err != nil {
		t.Fatal(err)
	}
	rep := sf.Repair(sf.Affected(down), RepairOptions{})
	if len(rep.Outcomes) != 2 {
		t.Fatalf("repair outcomes %+v, want 2", rep.Outcomes)
	}
	if rep.Outcomes[0].ID != g.ID || rep.Outcomes[1].ID != be.ID {
		t.Fatalf("repair order %s, %s; want the guaranteed %s first", rep.Outcomes[0].ID, rep.Outcomes[1].ID, g.ID)
	}
}
