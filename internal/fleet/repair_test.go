package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"elpc/internal/engine"
	"elpc/internal/gen"
	"elpc/internal/model"
)

// deployN admits n streaming deployments with modest demands and returns
// them. Seeds vary per deployment so placements spread over the network.
func deployN(t *testing.T, f *ShardedFleet, n int) []Deployment {
	t.Helper()
	out := make([]Deployment, 0, n)
	for i := 0; i < n; i++ {
		d, err := f.Deploy(Request{
			Tenant:    "t",
			Pipeline:  testPipeline(t, 4+i%3, uint64(10+i)),
			Src:       model.NodeID(i % 10),
			Dst:       model.NodeID((i + 5) % 10),
			Objective: model.MaxFrameRate,
			SLO:       SLO{MinRateFPS: 1},
		})
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		out = append(out, d)
	}
	return out
}

// touching returns the deployments whose reservations touch node v.
func touching(deps []Deployment, f *ShardedFleet, v model.NodeID) map[string]bool {
	out := make(map[string]bool)
	for _, d := range deps {
		for _, nd := range d.Assignment {
			if nd == v {
				out[d.ID] = true
			}
		}
	}
	return out
}

// TestRepairIsIncremental is the acceptance check for incremental repair:
// an event touching k of n deployments re-solves only those k, asserted by
// the fleet's solver-call counter.
func TestRepairIsIncremental(t *testing.T) {
	net := testNetwork(t)
	f, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	deps := deployN(t, f, 8)

	// Pick a node used by some but not all deployments.
	var victim model.NodeID = -1
	for v := 0; v < net.N(); v++ {
		k := len(touching(deps, f, model.NodeID(v)))
		if k > 0 && k < len(deps) {
			victim = model.NodeID(v)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no node splits the fleet; test network too small")
	}
	events := []model.ChurnEvent{{Kind: model.NodeDown, Node: victim}}
	want := touching(deps, f, victim)

	if err := f.ApplyChurn(events); err != nil {
		t.Fatal(err)
	}
	affected := f.Affected(events)
	if len(affected) != len(want) {
		t.Fatalf("affected = %v, want the %d deployments touching v%d", affected, len(want), victim)
	}
	for _, id := range affected {
		if !want[id] {
			t.Errorf("affected includes %s, which does not touch v%d", id, victim)
		}
	}

	before := f.SolveCount()
	rep := f.Repair(affected, RepairOptions{})
	solves := f.SolveCount() - before

	// Every affected placement is broken (its node lost all capacity), so
	// repair must re-solve each exactly once — and nothing else.
	if rep.Checked != len(affected) || rep.Resolved != len(affected) {
		t.Errorf("checked=%d resolved=%d, want both %d", rep.Checked, rep.Resolved, len(affected))
	}
	if int(solves) != len(affected) {
		t.Errorf("repair cost %d solves for %d affected deployments; repair must be incremental", solves, len(affected))
	}
	if rep.Migrated+len(rep.Parked) != len(affected) {
		t.Errorf("migrated %d + parked %d != affected %d", rep.Migrated, len(rep.Parked), len(affected))
	}

	// No surviving deployment may hold capacity on the downed node.
	for _, d := range f.List() {
		for _, nd := range d.Assignment {
			if nd == victim {
				t.Errorf("deployment %s still mapped onto downed node v%d", d.ID, victim)
			}
		}
	}
	// Untouched deployments must be exactly as they were.
	for _, d := range deps {
		if want[d.ID] {
			continue
		}
		got, ok := f.Describe(d.ID)
		if !ok {
			t.Errorf("untouched deployment %s disappeared", d.ID)
			continue
		}
		if got.Mapping != d.Mapping {
			t.Errorf("untouched deployment %s moved: %s -> %s", d.ID, d.Mapping, got.Mapping)
		}
	}
}

// TestRepairKeepsValidPlacements verifies that a mild degradation of a
// barely-loaded link does not displace deployments whose placements still
// hold, and that kept placements cost no solver calls.
func TestRepairKeepsValidPlacements(t *testing.T) {
	net := testNetwork(t)
	f, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Deploy(Request{
		Pipeline:  testPipeline(t, 4, 3),
		Src:       0,
		Dst:       9,
		Objective: model.MaxFrameRate,
		SLO:       SLO{MinRateFPS: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Degrade a link the deployment holds capacity on, but only slightly:
	// the placement keeps fitting, so repair must keep it.
	_, linkU := f.Utilization()
	link := -1
	for l, u := range linkU {
		if u > 0 {
			link = l
			break
		}
	}
	if link < 0 {
		t.Skip("deployment reserved no link capacity (single-node mapping)")
	}
	events := []model.ChurnEvent{{Kind: model.LinkDegrade, Link: link, Factor: 0.99}}
	if err := f.ApplyChurn(events); err != nil {
		t.Fatal(err)
	}
	affected := f.Affected(events)
	if len(affected) != 1 || affected[0] != d.ID {
		t.Fatalf("affected = %v, want [%s]", affected, d.ID)
	}
	before := f.SolveCount()
	rep := f.Repair(affected, RepairOptions{})
	if f.SolveCount() != before {
		t.Errorf("still-valid placement re-solved (%d calls); validity check must be solve-free", f.SolveCount()-before)
	}
	if rep.Kept != 1 || rep.Migrated != 0 || len(rep.Parked) != 0 {
		t.Errorf("report = %+v, want 1 kept", rep)
	}
}

// TestRepairParksWhenInfeasible verifies the parked-not-lost path: with the
// destination node down, no feasible placement exists; the deployment is
// evicted, returned as parked with a re-usable request, and its capacity is
// fully released.
func TestRepairParksWhenInfeasible(t *testing.T) {
	net := testNetwork(t)
	f, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Deploy(Request{
		Tenant:    "cam",
		Pipeline:  testPipeline(t, 4, 3),
		Src:       0,
		Dst:       9,
		Objective: model.MaxFrameRate,
		SLO:       SLO{MinRateFPS: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every mapping must place the sink at the destination; downing it
	// leaves no feasible placement.
	events := []model.ChurnEvent{{Kind: model.NodeDown, Node: 9}}
	if err := f.ApplyChurn(events); err != nil {
		t.Fatal(err)
	}
	rep := f.Repair(f.Affected(events), RepairOptions{})
	if len(rep.Parked) != 1 || rep.Migrated != 0 {
		t.Fatalf("report = %+v, want exactly one parked", rep)
	}
	p := rep.Parked[0]
	if p.ID != d.ID || p.Tenant != "cam" || p.Req.Pipeline == nil || p.Req.Dst != 9 {
		t.Errorf("parked deployment incomplete: %+v", p)
	}
	if _, ok := f.Describe(d.ID); ok {
		t.Error("parked deployment still listed")
	}
	nodeU, linkU := f.Utilization()
	for v, u := range nodeU {
		if u != 0 {
			t.Errorf("node %d load %v after park; capacity must be fully released", v, u)
		}
	}
	for l, u := range linkU {
		if u != 0 {
			t.Errorf("link %d load %v after park", l, u)
		}
	}

	// Capacity returns; the parked request must admit again.
	if err := f.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeUp, Node: 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(p.Req); err != nil {
		t.Errorf("re-queueing the parked request after capacity returned: %v", err)
	}
}

// TestDeployRejectsDownNode is the admission-side twin of the repair
// down-node guard: with the source node down, the solver still pins the
// zero-cost source module there (it reserves nothing, so capacity checks
// alone would pass), but admission must reject the hostless mapping —
// otherwise the requeue loop could oscillate a parked deployment back
// onto the failed node.
func TestDeployRejectsDownNode(t *testing.T) {
	net := testNetwork(t)
	f, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeDown, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	_, err = f.Deploy(Request{
		Pipeline:  testPipeline(t, 4, 3),
		Src:       0, // down: module 0 has no host
		Dst:       9,
		Objective: model.MaxFrameRate,
		SLO:       SLO{MinRateFPS: 1},
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("deploy with down src: err = %v, want ErrRejected", err)
	}
	// After the node recovers, the same request must admit.
	if err := f.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeUp, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(Request{
		Pipeline:  testPipeline(t, 4, 3),
		Src:       0,
		Dst:       9,
		Objective: model.MaxFrameRate,
		SLO:       SLO{MinRateFPS: 1},
	}); err != nil {
		t.Fatalf("deploy after recovery: %v", err)
	}
}

// overloadedNode is the node TestDeployAdmitsBesideOverloadedNode and
// TestRepairMigratesBesideOverloadedNode down under load: deployN's eight
// deployments hold capacity on it, so downing it leaves it over capacity
// until every deployment on it is repaired.
const overloadedNode = model.NodeID(2)

// downLoadedNode deploys deployN's eight deployments, downs overloadedNode
// under their load, and returns the event.
func downLoadedNode(t *testing.T, f *ShardedFleet) []model.ChurnEvent {
	t.Helper()
	deployN(t, f, 8)
	if node, _ := f.Utilization(); node[overloadedNode] == 0 {
		t.Fatalf("node v%d carries no load", overloadedNode)
	}
	events := []model.ChurnEvent{{Kind: model.NodeDown, Node: overloadedNode}}
	if err := f.ApplyChurn(events); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestDeployAdmitsBesideOverloadedNode checks that an element churn left
// over capacity blocks only the admissions that would load it: before any
// repair, deployments elsewhere in the network still admit.
func TestDeployAdmitsBesideOverloadedNode(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	downLoadedNode(t, f)
	for i := 0; i < 8; i++ {
		src, dst := model.NodeID(3+i%7), model.NodeID(3+(i+3)%7)
		d, err := f.Deploy(Request{
			Pipeline:  testPipeline(t, 4+i%3, uint64(100+i)),
			Src:       src,
			Dst:       dst,
			Objective: model.MaxFrameRate,
			SLO:       SLO{MinRateFPS: 1},
		})
		if err != nil {
			t.Errorf("deploy %d -> %d beside down v%d: %v", src, dst, overloadedNode, err)
			continue
		}
		for _, v := range d.Assignment {
			if v == overloadedNode {
				t.Errorf("%s placed a module on down v%d: %v", d.ID, overloadedNode, d.Assignment)
			}
		}
	}
}

// TestRepairMigratesBesideOverloadedNode checks that repairing the
// deployments on a node downed under load migrates each one whose endpoints
// avoid it, although the node stays over capacity until the last of them
// leaves; only the ones with an endpoint pinned there park.
func TestRepairMigratesBesideOverloadedNode(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	events := downLoadedNode(t, f)
	ids := f.Affected(events)
	movable := 0
	for _, id := range ids {
		if d, _ := f.Describe(id); d.src != overloadedNode && d.dst != overloadedNode {
			movable++
		}
	}
	rep := f.Repair(ids, RepairOptions{})
	if rep.Migrated != movable || movable == 0 {
		t.Errorf("migrated %d of %d affected, want the %d whose endpoints avoid v%d (outcomes %+v)",
			rep.Migrated, len(ids), movable, overloadedNode, rep.Outcomes)
	}
	for _, p := range rep.Parked {
		if p.Req.Src != overloadedNode && p.Req.Dst != overloadedNode {
			t.Errorf("%s parked with endpoints %d -> %d: %s", p.ID, p.Req.Src, p.Req.Dst, p.Reason)
		}
	}
	for _, d := range f.List() {
		for _, v := range d.Assignment {
			if v == overloadedNode {
				t.Errorf("%s still runs on down v%d: %v", d.ID, overloadedNode, d.Assignment)
			}
		}
	}
}

// TestRepairParallelInvariants runs the same broken fleet through a
// sequential and a parallel repair pass. Both must leave the fleet
// consistent — full accounting of the affected set, no survivor on a down
// node, every surviving reservation within the degraded capacity — and
// the parallel pass must reach the same kept/migrated/parked outcomes and
// surviving mappings as the sequential one (parallel proposals see the
// churned capacity factors via CloneEmpty; resetting them to nominal
// would make Workers>1 park migratable deployments and fail this test).
func TestRepairParallelInvariants(t *testing.T) {
	type outcome struct {
		rep       RepairReport
		survivors []string
	}
	run := func(workers int) outcome {
		net := testNetwork(t)
		f, err := New(net)
		if err != nil {
			t.Fatal(err)
		}
		deployN(t, f, 8)
		events := []model.ChurnEvent{
			{Kind: model.NodeDown, Node: 3},
			{Kind: model.LinkDegrade, Link: 7, Factor: 0.2},
		}
		if err := f.ApplyChurn(events); err != nil {
			t.Fatal(err)
		}
		affected := f.Affected(events)
		rep := f.Repair(affected, RepairOptions{Workers: workers})
		if rep.Checked != len(affected) || rep.Kept+rep.Migrated+len(rep.Parked) != rep.Checked {
			t.Errorf("workers=%d: inconsistent accounting %+v for %d affected", workers, rep, len(affected))
		}
		var survivors []string
		for _, d := range f.List() {
			survivors = append(survivors, d.ID+":"+d.Mapping)
			for _, v := range d.Assignment {
				if v == 3 {
					t.Errorf("workers=%d: survivor %s still on down node", workers, d.ID)
				}
			}
		}
		nodeU, linkU := f.Utilization()
		nodeCap, linkCap := f.Capacity()
		const eps = 1e-9
		for v, u := range nodeU {
			if u > nodeCap[v]+eps {
				t.Errorf("workers=%d: node %d load %v exceeds capacity %v", workers, v, u, nodeCap[v])
			}
		}
		for l, u := range linkU {
			if u > linkCap[l]+eps {
				t.Errorf("workers=%d: link %d load %v exceeds capacity %v", workers, l, u, linkCap[l])
			}
		}
		return outcome{rep: rep, survivors: survivors}
	}

	seq := run(1)
	par := run(4)
	if seq.rep.Kept != par.rep.Kept || seq.rep.Migrated != par.rep.Migrated ||
		len(seq.rep.Parked) != len(par.rep.Parked) {
		t.Errorf("parallel repair diverged: sequential kept/migrated/parked = %d/%d/%d, parallel = %d/%d/%d",
			seq.rep.Kept, seq.rep.Migrated, len(seq.rep.Parked),
			par.rep.Kept, par.rep.Migrated, len(par.rep.Parked))
	}
	if len(seq.survivors) != len(par.survivors) {
		t.Fatalf("survivor sets differ: %v vs %v", seq.survivors, par.survivors)
	}
	for i := range seq.survivors {
		if seq.survivors[i] != par.survivors[i] {
			t.Errorf("survivor %d differs: seq %s, par %s", i, seq.survivors[i], par.survivors[i])
		}
	}
}

// TestShardProposalsSeeOverlay: on a shard, a parallel repair proposal must
// be the mapping the sequential pass would solve on the live view with the
// candidate's reservation freed — which includes the coordinator's
// cross-region overlay. A proposal view missing the overlay solves as if
// cross-region deployments held nothing on the shard, and the live guard
// can then park a deployment the sequential pass would have migrated.
func TestShardProposalsSeeOverlay(t *testing.T) {
	pool := engine.NewPool(2)
	defer pool.Close()
	compared, overlaid := 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		sf, net, _ := testClusteredFleet(t, 2, seed)
		rng := gen.RNG(seed)
		for i, cross := 0, 0; cross < 12; i++ {
			req := randomRequest(t, net, rng, i)
			if sf.part.SameRegion(req.Src, req.Dst) {
				continue
			}
			cross++
			_, _ = sf.Deploy(req) // rejections just thin the population
		}
		for i := 0; i < 28; i++ {
			_, _ = sf.Deploy(randomRequest(t, net, rng, 100+i))
		}
		if len(sf.coord.deps) > 0 {
			overlaid++
		}
		for _, sh := range sf.shards {
			sh.mu.Lock()
			ids := append([]string(nil), sh.order...)
			props := make([]proposal, len(ids))
			sh.proposeLocked(ids, props, 2, pool)
			for i, id := range ids {
				d := sh.deps[id]
				saved := d.reservation
				d.reservation = model.Reservation{}
				sh.recomputeLocked()
				m, _, _, err := sh.solveCounted(sh.residual, requestOf(d), d.cost, nil)
				d.reservation = saved
				sh.recomputeLocked()
				got, want := fmt.Sprint(props[i].err), fmt.Sprint(err)
				if got != want || (err == nil && !reflect.DeepEqual(props[i].m.Assign, m.Assign)) {
					t.Errorf("seed %d %s: proposal %v (err %s), sequential re-solve %v (err %s)",
						seed, id, props[i].m, got, m, want)
				}
				compared++
			}
			sh.mu.Unlock()
		}
	}
	if compared == 0 || overlaid == 0 {
		t.Fatalf("compared %d proposals on %d fleets with a cross-region overlay: nothing exercised", compared, overlaid)
	}
}

// TestRebalanceSeesChurnedCapacity is the rebalance-side regression test
// for the stale-capacity proposal bug: with a node down, a rebalance pass
// may not migrate a deployment onto it.
func TestRebalanceSeesChurnedCapacity(t *testing.T) {
	net := testNetwork(t)
	f, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	deployN(t, f, 8)
	events := []model.ChurnEvent{{Kind: model.NodeDown, Node: 3}}
	if err := f.ApplyChurn(events); err != nil {
		t.Fatal(err)
	}
	f.Repair(f.Affected(events), RepairOptions{})
	// Free capacity so rebalance has migrations to propose.
	for i, d := range f.List() {
		if i%2 == 0 {
			if err := f.Release(d.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Rebalance(RebalanceOptions{MaxMoves: 8})
	for _, d := range f.List() {
		for _, v := range d.Assignment {
			if v == 3 {
				t.Errorf("rebalance moved %s onto down node v3 (%s)", d.ID, d.Mapping)
			}
		}
	}
}
