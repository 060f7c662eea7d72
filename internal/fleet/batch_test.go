package fleet

import (
	"errors"
	"strings"
	"testing"

	"elpc/internal/model"
)

func TestClassValidation(t *testing.T) {
	for _, c := range []Class{"", ClassGuaranteed, ClassStandard, ClassBestEffort} {
		if !c.Valid() {
			t.Errorf("class %q should be valid", c)
		}
	}
	for _, c := range []Class{"gold", "GUARANTEED", "best-effort"} {
		if c.Valid() {
			t.Errorf("class %q should be invalid", c)
		}
	}
	if Class("").Canon() != ClassStandard {
		t.Errorf("empty class should canonicalize to standard")
	}
	if ClassGuaranteed.Rank() <= ClassStandard.Rank() || ClassStandard.Rank() <= ClassBestEffort.Rank() {
		t.Errorf("class ranks out of order: g=%d s=%d b=%d",
			ClassGuaranteed.Rank(), ClassStandard.Rank(), ClassBestEffort.Rank())
	}

	// An unknown class is a structural error, not an admission rejection.
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Deploy(Request{
		Pipeline:  testPipeline(t, 5, 1),
		Src:       0,
		Dst:       9,
		Objective: model.MinDelay,
		SLO:       SLO{Class: "gold"},
	})
	if err == nil || errors.Is(err, ErrRejected) {
		t.Fatalf("unknown class: got %v, want structural error", err)
	}
	if s := f.Stats(); s.Rejected != 0 {
		t.Fatalf("structural error must not count as rejection: %+v", s)
	}
}

// saturate deploys best-effort streaming sessions until admission control
// declines one, returning the admitted deployments with their requests and
// the rejected request.
func saturate(t *testing.T, f *ShardedFleet) ([]Deployment, []Request, Request) {
	t.Helper()
	var live []Deployment
	var admitted []Request
	for i := 0; i < 200; i++ {
		req := Request{
			Tenant:    "be",
			Pipeline:  testPipeline(t, 5, uint64(10+i)),
			Src:       0,
			Dst:       9,
			Objective: model.MaxFrameRate,
			SLO:       SLO{MinRateFPS: 40, Class: ClassBestEffort},
		}
		d, err := f.Deploy(req)
		if err != nil {
			if !errors.Is(err, ErrRejected) {
				t.Fatal(err)
			}
			return live, admitted, req
		}
		live = append(live, d)
		admitted = append(admitted, req)
	}
	t.Fatal("network never saturated")
	return nil, nil, Request{}
}

func TestGuaranteedPreemptsBestEffort(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	live, admitted, _ := saturate(t, f)
	if len(live) == 0 {
		t.Fatal("no best-effort deployments admitted before saturation")
	}

	// A guaranteed twin of the last-admitted best-effort session must go
	// through: plain admission fails (that session holds the capacity its
	// pipeline needs), and preemption removes victims latest-first — the
	// first removal frees exactly the twin's path.
	twin := admitted[len(admitted)-1]
	twin.Tenant = "vip"
	twin.SLO.Class = ClassGuaranteed
	d, err := f.Deploy(twin)
	if err != nil {
		t.Fatalf("guaranteed deploy should preempt: %v", err)
	}
	if d.SLO.Class != ClassGuaranteed {
		t.Fatalf("deployment class = %q", d.SLO.Class)
	}

	parked := f.TakePreempted()
	if len(parked) == 0 || len(parked) > MaxPreemptionVictims {
		t.Fatalf("parked %d victims, want 1..%d", len(parked), MaxPreemptionVictims)
	}
	for _, p := range parked {
		if p.Tenant != "be" || !strings.Contains(p.Reason, d.ID) {
			t.Fatalf("bad parked victim %+v", p)
		}
		if _, ok := f.Describe(p.ID); ok {
			t.Fatalf("victim %s still live after preemption", p.ID)
		}
		if p.Req.Pipeline == nil || p.Req.SLO.Class != ClassBestEffort {
			t.Fatalf("parked victim lost its requeue request: %+v", p.Req)
		}
	}
	if s := f.Stats(); s.Preemptions != uint64(len(parked)) || s.GuaranteedActive != 1 {
		t.Fatalf("stats after preemption: %+v", s)
	}
	if again := f.TakePreempted(); len(again) != 0 {
		t.Fatalf("TakePreempted must drain: %+v", again)
	}
}

func TestPreemptionExhaustionRestoresState(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	live, _, rejected := saturate(t, f)
	before := f.List()

	// A guaranteed demand no amount of preemption can satisfy must reject
	// and leave every best-effort tenant exactly where it was.
	rejected.SLO.Class = ClassGuaranteed
	rejected.SLO.MinRateFPS = 1e9
	if _, err := f.Deploy(rejected); !errors.Is(err, ErrRejected) {
		t.Fatalf("impossible guaranteed demand: got %v, want ErrRejected", err)
	}
	if parked := f.TakePreempted(); len(parked) != 0 {
		t.Fatalf("failed preemption must not park victims: %+v", parked)
	}
	after := f.List()
	if len(after) != len(before) || len(after) != len(live) {
		t.Fatalf("fleet changed: %d -> %d deployments", len(before), len(after))
	}
	for i := range after {
		if after[i].ID != before[i].ID || after[i].Seq != before[i].Seq {
			t.Fatalf("deployment %d changed: %+v -> %+v", i, before[i], after[i])
		}
	}
	if s := f.Stats(); s.Preemptions != 0 {
		t.Fatalf("stats after failed preemption: %+v", s)
	}
}

func TestBatchOrderPriority(t *testing.T) {
	mk := func(class Class, rate, maxDelay float64) Request {
		return Request{SLO: SLO{Class: class, MinRateFPS: rate, MaxDelayMs: maxDelay}}
	}
	reqs := []Request{
		mk(ClassBestEffort, 50, 0), // 0: highest demand but lowest class
		mk(ClassStandard, 5, 100),  // 1: tight delay slack
		mk(ClassGuaranteed, 1, 0),  // 2: guaranteed always first
		mk(ClassStandard, 5, 0),    // 3: same rate as 1, looser slack
		mk("", 20, 0),              // 4: empty class = standard, high demand
	}
	out := make([]BatchOutcome, len(reqs))
	got := batchOrder(reqs, out)
	want := []int{2, 4, 1, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch order = %v, want %v", got, want)
		}
	}

	// Structurally invalid entries are excluded up front.
	out[4].Err = errors.New("bad")
	got = batchOrder(reqs, out)
	want = []int{2, 1, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch order with invalid entry = %v, want %v", got, want)
		}
	}
}

func TestDeployBatchOutcomes(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{
			Tenant:    "a",
			Pipeline:  testPipeline(t, 5, 1),
			Src:       0,
			Dst:       9,
			Objective: model.MinDelay,
		},
		{Tenant: "b"}, // missing pipeline: structural error at its index
		{
			Tenant:    "c",
			Pipeline:  testPipeline(t, 5, 2),
			Src:       0,
			Dst:       9,
			Objective: model.MaxFrameRate,
			SLO:       SLO{MinRateFPS: 1e9}, // unsatisfiable: rejection
		},
	}
	outs := f.DeployBatch(reqs)
	if len(outs) != len(reqs) {
		t.Fatalf("got %d outcomes for %d requests", len(outs), len(reqs))
	}
	for i, o := range outs {
		if o.Index != i {
			t.Fatalf("outcome %d has index %d", i, o.Index)
		}
	}
	if outs[0].Err != nil || outs[0].Deployment.ID == "" {
		t.Fatalf("valid request failed: %+v", outs[0])
	}
	if outs[1].Err == nil || errors.Is(outs[1].Err, ErrRejected) {
		t.Fatalf("missing pipeline: got %v, want structural error", outs[1].Err)
	}
	if !errors.Is(outs[2].Err, ErrRejected) {
		t.Fatalf("unsatisfiable demand: got %v, want ErrRejected", outs[2].Err)
	}
	if s := f.Stats(); s.Admitted != 1 || s.Rejected != 1 {
		t.Fatalf("stats after batch: %+v", s)
	}
}

// TestDeployBatchBeatsSequentialUnderContention pins the property the batch
// endpoint exists for at the fleet level: on a contended burst, placing the
// guaranteed/scarce requests first admits a superset of the high-priority
// traffic that arrival-order trickling admits.
func TestDeployBatchBeatsSequentialUnderContention(t *testing.T) {
	burst := func(t *testing.T) []Request {
		var reqs []Request
		for i := 0; i < 12; i++ {
			class := ClassBestEffort
			switch i % 3 {
			case 1:
				class = ClassStandard
			case 2:
				class = ClassGuaranteed
			}
			reqs = append(reqs, Request{
				Tenant:    "burst",
				Pipeline:  testPipeline(t, 5, uint64(100+i)),
				Src:       0,
				Dst:       9,
				Objective: model.MaxFrameRate,
				SLO:       SLO{MinRateFPS: 25, Class: class},
			})
		}
		return reqs
	}

	seq, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	seqAdmitted := 0
	for _, req := range burst(t) {
		if _, err := seq.Deploy(req); err == nil {
			seqAdmitted++
		} else if !errors.Is(err, ErrRejected) {
			t.Fatal(err)
		}
	}
	seq.TakePreempted()

	bat, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	batAdmitted := 0
	for _, o := range bat.DeployBatch(burst(t)) {
		if o.Err == nil {
			batAdmitted++
		} else if !errors.Is(o.Err, ErrRejected) {
			t.Fatal(o.Err)
		}
	}
	bat.TakePreempted()

	if batAdmitted < seqAdmitted {
		t.Fatalf("batch admitted %d < sequential %d on the same burst", batAdmitted, seqAdmitted)
	}
	bs := bat.Stats()
	if bs.Preemptions != 0 {
		// The class-ordered pass admits guaranteed traffic before any
		// best-effort tenant holds capacity, so no displacement is needed.
		t.Fatalf("batch pass should not need preemption, got %d", bs.Preemptions)
	}
}
