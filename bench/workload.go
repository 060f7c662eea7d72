package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"elpc/internal/core"
	"elpc/internal/engine"
	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/service"
	"elpc/internal/service/wire"
)

// Route classes: every request belongs to exactly one, and latencies are
// reported per class as well as over the whole mix.
const (
	routePlan    = "plan"
	routeDeploy  = "deploy"
	routeBatch   = "batch"
	routeRelease = "release"
	routeEvents  = "events"
	routeRead    = "read"
)

// readKind selects which of the three fleet reads a read op sends.
type readKind int

const (
	readDescribe readKind = iota // GET /v1/fleet/{id}
	readHealth                   // GET /v1/health
	readStats                    // GET /v1/stats
)

// op is one generated request. Release and describe ops name their target
// by pick, a uniform draw resolved against the deployments the generator
// owns when the op is sent, so the stream itself is a pure function of the
// seed and the workload name.
type op struct {
	route   string
	path    string   // request path of ops with a fixed target
	body    [][]byte // body parts, sent back to back; nil for GETs
	plan    int      // plan ops: index into workload.plans
	deploys []int    // deploy and batch ops: indices into workload.deploys
	pick    float64  // release and describe ops: target draw in [0,1)
	read    readKind // read ops
	churn   int      // events ops: position in the churn trace
}

// planKey is one planning problem and operation: its body is
// `{"network":` + workload.nets[net] + tail, so the large network JSON is
// marshaled once per base network instead of once per request.
type planKey struct {
	op     string // "mindelay", "maxframerate" or "front"
	net    int
	tail   []byte
	budget float64 // maxframerate delay budget in ms; 0 = none
	points int     // front sweep points
}

// workload is one fully generated traffic mix: its setup requests and its
// measured stream, plus what verification needs to check the answers.
type workload struct {
	name    string
	rate    float64 // open-loop arrival rate, requests/s
	nets    [][]byte
	plans   []planKey
	net     *model.Network // fleet workloads: the installed network
	shards  int
	durable bool
	deploys []wire.FleetDeploy // every deploy item, setup and stream, by index
	target  int                // fleet workloads: deployments setup admits
	setup   []op
	ops     []op
	sample  map[int]bool // plan-cold: stream positions verified against the reference
	refs    map[int]refAnswer
}

// workloadSpec names a workload and sizes its loops. block is the number of
// requests after which the stream's mix of operations repeats exactly: each
// replica's open loop holds whole blocks, so every replica times the same
// mix whatever the seed. rate, the open loop's
// arrival rate, is a quarter to a third of the closed-loop throughput
// measured at the commit that introduced the benchmark on a 2-core machine:
// queueing stays a small part of the latency, so the latencies follow the
// service times rather than amplify the machine's own speed changes. peak
// is the closed-loop throughput the generated stream lasts for, 2 to 2.5
// times that measurement; a closed loop that sends every request says so in
// the notes.
type workloadSpec struct {
	name  string
	block int
	rate  float64
	peak  float64
	build func(w *workload, seed uint64, n int) error
}

var workloads = []workloadSpec{
	{name: "plan-repeat", block: 20, rate: 50, peak: 500, build: buildPlanRepeat},
	{name: "plan-cold", block: 40, rate: 20, peak: 120, build: buildPlanCold},
	{name: "fleet-churn", block: fleetBlock, rate: 64, peak: 640, build: buildFleetChurn},
	{name: "fleet-sharded-durable", block: fleetBlock, rate: 30, peak: 280, build: buildFleetSharded},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// buildWorkload generates the workload's setup and a measured stream of n
// requests. The same seed always yields byte-identical requests.
func buildWorkload(spec workloadSpec, seed uint64, n int) (*workload, error) {
	w := &workload{name: spec.name, rate: spec.rate}
	if err := spec.build(w, seed, n); err != nil {
		return nil, fmt.Errorf("generating %s: %w", spec.name, err)
	}
	return w, nil
}

// subRNG derives an independent generator per (workload, purpose), so that
// drawing more requests never shifts the problems or the schedule.
func subRNG(seed uint64, name, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name + "/" + purpose))
	return gen.RNG(seed ^ h.Sum64())
}

// distinctPair draws two distinct nodes from [lo, lo+n).
func distinctPair(rng *rand.Rand, lo, n int) (model.NodeID, model.NodeID) {
	src := rng.IntN(n)
	dst := rng.IntN(n - 1)
	if dst >= src {
		dst++
	}
	return model.NodeID(lo + src), model.NodeID(lo + dst)
}

// mixer draws request kinds in shuffled blocks that hold each kind exactly
// counts[kind] times, so every seed sends the same mix and the seed only
// decides the order within each block.
type mixer struct {
	rng    *rand.Rand
	counts []int
	block  []int
}

func (m *mixer) next() int {
	if len(m.block) == 0 {
		for kind, c := range m.counts {
			for i := 0; i < c; i++ {
				m.block = append(m.block, kind)
			}
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	kind := m.block[0]
	m.block = m.block[1:]
	return kind
}

var networkPrefix = []byte(`{"network":`)

func (w *workload) planOp(k int) op {
	key := w.plans[k]
	return op{route: routePlan, path: "/v1/" + key.op, plan: k,
		body: [][]byte{networkPrefix, w.nets[key.net], key.tail}}
}

// addPlan appends a planning request for p on base network net.
func (w *workload) addPlan(p *model.Problem, net int, opName string, budget float64, points int) (int, error) {
	tail, err := json.Marshal(struct {
		Pipeline *model.Pipeline `json:"pipeline"`
		Src      model.NodeID    `json:"src"`
		Dst      model.NodeID    `json:"dst"`
		Budget   float64         `json:"delay_budget_ms,omitempty"`
		Points   int             `json:"points,omitempty"`
	}{p.Pipe, p.Src, p.Dst, budget, points})
	if err != nil {
		return 0, err
	}
	tail[0] = ',' // splice after the network field
	w.plans = append(w.plans, planKey{op: opName, net: net, tail: tail, budget: budget, points: points})
	return len(w.plans) - 1, nil
}

// frontPoints is the sweep resolution of every front request.
const frontPoints = 8

// topDelay returns the delay of p's unconstrained highest-rate simple-path
// mapping. ok is false when p has no simple-path mapping at all: a front or
// a budgeted request on p could only be refused, and errors are not cached,
// so the generators draw another problem instead.
func topDelay(p *model.Problem) (float64, bool, error) {
	m, err := core.MaxFrameRateWithBudget(p, core.TradeoffOptions{})
	if errors.Is(err, model.ErrInfeasible) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return model.TotalDelay(p.Net, p.Pipe, m, p.Cost), true, nil
}

// budgetFractions place a delay budget between the fastest mapping's delay
// (node reuse allowed, so a lower bound for simple paths) and top, the
// delay of the unconstrained highest-rate simple path. The last one lies
// just past top and always admits that path.
var budgetFractions = []float64{0.5, 0.75, 1 + 1e-9}

// feasibleBudget returns the tightest budget in budgetFractions under which
// p still has a simple-path mapping, so budgeted requests trade rate for
// delay whenever the problem allows it.
func feasibleBudget(p *model.Problem, top float64) (float64, bool, error) {
	lo := core.MinDelayValue(p)
	for _, f := range budgetFractions {
		budget := lo + f*(top-lo)
		_, err := core.MaxFrameRateWithBudget(p, core.TradeoffOptions{DelayBudgetMs: budget})
		if err == nil {
			return budget, true, nil
		}
		if !errors.Is(err, model.ErrInfeasible) {
			return 0, false, err
		}
	}
	return 0, false, nil
}

// buildPlanRepeat: 32 problems, 8 seeded networks at each of the Suite20
// case 8-11 sizes, each asked four ways (min delay, max frame rate with and
// without a budget, an 8-point front): 128 cache keys. Setup solves every
// key once, so every measured request is an exact-cache hit. elpcd does not
// cache refusals, so a problem with any infeasible variant is redrawn; the
// reference answers this computes are the ones verification checks against.
func buildPlanRepeat(w *workload, seed uint64, n int) error {
	pool := engine.NewPool(0)
	defer pool.Close()
	rng := subRNG(seed, w.name, "problems")
	for _, size := range gen.Suite20()[7:11] {
		for added := 0; added < 8; {
			size.Seed = rng.Uint64()
			ok, err := w.addProblem(size, pool)
			if err != nil {
				return err
			}
			if ok {
				added++
			}
		}
	}
	for k := range w.plans {
		w.setup = append(w.setup, w.planOp(k))
	}
	// Popularity ranks cycle through the four sizes (rank r is a network of
	// size r%4), so every seed puts about the same traffic on each size and
	// the mix's cost does not hinge on which size the top rank lands on.
	problems := len(w.plans) / 4
	perSize := problems / 4
	rank := make([]int, problems)
	for s := 0; s < 4; s++ {
		for j, p := range rng.Perm(perSize) {
			rank[4*j+s] = s*perSize + p
		}
	}
	rng = subRNG(seed, w.name, "stream")
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(problems-1))
	// 50% min delay, 15% max frame rate, 15% budgeted, 20% front per 20
	// requests: the key variants in planKey order.
	mix := &mixer{rng: rng, counts: []int{10, 3, 3, 4}}
	for i := 0; i < n; i++ {
		w.ops = append(w.ops, w.planOp(4*rank[zipf.Uint64()]+mix.next()))
	}
	return nil
}

// addProblem adds the four plan-repeat keys of the problem size describes,
// with their reference answers, or nothing when any of them is infeasible.
// The references are solved on the problem the request bodies are marshaled
// from; JSON carries every float64 exactly, so elpcd decodes the same one.
func (w *workload) addProblem(size gen.CaseSpec, pool *engine.Pool) (bool, error) {
	p, err := size.Build()
	if err != nil {
		return false, err
	}
	top, ok, err := topDelay(p)
	if !ok || err != nil {
		return false, err
	}
	budget, ok, err := feasibleBudget(p, top)
	if !ok || err != nil {
		return false, err
	}
	keys := []struct {
		op     string
		budget float64
		points int
	}{{"mindelay", 0, 0}, {"maxframerate", 0, 0}, {"maxframerate", budget, 0}, {"front", 0, frontPoints}}
	refs := make([]*service.Result, len(keys))
	for i, k := range keys {
		refs[i], err = referenceSolve(p, k.op, k.budget, k.points, pool)
		if errors.Is(err, model.ErrInfeasible) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
	}
	netJSON, err := json.Marshal(p.Net)
	if err != nil {
		return false, err
	}
	w.nets = append(w.nets, netJSON)
	if w.refs == nil {
		w.refs = map[int]refAnswer{}
	}
	for i, k := range keys {
		key, err := w.addPlan(p, len(w.nets)-1, k.op, k.budget, k.points)
		if err != nil {
			return false, err
		}
		w.refs[key] = refAnswer{res: refs[i]}
	}
	return true, nil
}

// buildPlanCold: 8 seeded base networks at the Suite20 case 10-12 sizes;
// every request brings a fresh 25-35 module pipeline and fresh endpoints,
// so every request misses the cache and inserts a new entry. Setup sends
// 50 warm-up requests drawn from their own stream.
func buildPlanCold(w *workload, seed uint64, n int) error {
	rng := subRNG(seed, w.name, "networks")
	sizes := gen.Suite20()[9:12]
	var nets []*model.Network
	for i := 0; i < 8; i++ {
		size := sizes[i%len(sizes)]
		net, err := gen.Network(size.Nodes, size.Links, gen.DefaultRanges(), rng)
		if err != nil {
			return err
		}
		netJSON, err := json.Marshal(net)
		if err != nil {
			return err
		}
		w.nets = append(w.nets, netJSON)
		nets = append(nets, net)
	}
	// Operations and base networks are each drawn in blocks that hold every
	// one in its share: 50% front, 30% budgeted max frame rate and 20% plain
	// max frame rate per 10 requests, every base once per 8. Request costs
	// differ several-fold between operations and network sizes, so a stretch
	// of the stream that drew more of one would cost more.
	kinds := func(rng *rand.Rand) *mixer { return &mixer{rng: rng, counts: []int{5, 3, 2}} }
	bases := func(rng *rand.Rand) *mixer { return &mixer{rng: rng, counts: []int{1, 1, 1, 1, 1, 1, 1, 1}} }
	draw := func(rng *rand.Rand, kind, b int) (op, error) {
		for {
			pipe, err := gen.Pipeline(25+rng.IntN(11), gen.DefaultRanges(), rng)
			if err != nil {
				return op{}, err
			}
			src, dst := distinctPair(rng, 0, nets[b].N())
			p := &model.Problem{Net: nets[b], Pipe: pipe, Src: src, Dst: dst, Cost: model.DefaultCostOptions()}
			if kind == 2 {
				k, err := w.addPlan(p, b, "maxframerate", 0, 0)
				return w.planOp(k), err
			}
			// Fronts and budgeted requests need a simple-path mapping; a
			// problem without one would be refused, not solved and cached.
			top, ok, err := topDelay(p)
			if err != nil {
				return op{}, err
			}
			if !ok {
				continue
			}
			if kind == 0 {
				k, err := w.addPlan(p, b, "front", 0, frontPoints)
				return w.planOp(k), err
			}
			budget, ok, err := feasibleBudget(p, top)
			if err != nil {
				return op{}, err
			}
			if ok {
				k, err := w.addPlan(p, b, "maxframerate", budget, 0)
				return w.planOp(k), err
			}
		}
	}
	warm := subRNG(seed, w.name, "warmup")
	warmKinds, warmBases := kinds(warm), bases(warm)
	for i := 0; i < 50; i++ {
		o, err := draw(warm, warmKinds.next(), warmBases.next())
		if err != nil {
			return err
		}
		w.setup = append(w.setup, o)
	}
	rng = subRNG(seed, w.name, "stream")
	streamKinds, streamBases := kinds(rng), bases(rng)
	pick := subRNG(seed, w.name, "sample")
	w.sample = map[int]bool{}
	for i := 0; i < n; i++ {
		o, err := draw(rng, streamKinds.next(), streamBases.next())
		if err != nil {
			return err
		}
		w.ops = append(w.ops, o)
		if pick.Float64() < 0.05 {
			w.sample[i] = true
		}
	}
	return nil
}

// fleetShape is what the two fleet workloads differ in.
type fleetShape struct {
	net     *model.Network
	shards  int
	durable bool
	target  int
	// endpoints draws a deploy's source and destination.
	endpoints func(rng *rand.Rand) (model.NodeID, model.NodeID)
}

// buildFleetChurn: the plain in-memory fleet on the Suite20 case 8 network,
// pre-populated with 160 deployments.
func buildFleetChurn(w *workload, seed uint64, n int) error {
	p, err := gen.Suite20()[7].Build()
	if err != nil {
		return err
	}
	nodes := p.Net.N()
	return buildFleet(w, seed, n, fleetShape{
		net: p.Net, target: 160,
		endpoints: func(rng *rand.Rand) (model.NodeID, model.NodeID) { return distinctPair(rng, 0, nodes) },
	})
}

// buildFleetSharded: the same mix on the 8-cluster n504/l4896 network of
// BenchmarkShardedDeploy with 8 shards and a write-ahead log, pre-populated
// with 128 deployments; 15% of deploys cross clusters and take the
// coordinator's two-phase path. Like fleet-churn's, the network is fixed:
// the seed varies the traffic on it.
func buildFleetSharded(w *workload, seed uint64, n int) error {
	spec := gen.DefaultClusterSpec()
	net, err := gen.ClusteredNetwork(spec, gen.DefaultRanges(), gen.RNG(2026))
	if err != nil {
		return err
	}
	return buildFleet(w, seed, n, fleetShape{
		net: net, shards: spec.Clusters, durable: true, target: 128,
		endpoints: func(rng *rand.Rand) (model.NodeID, model.NodeID) {
			a := rng.IntN(spec.Clusters)
			if rng.Float64() >= 0.15 {
				return distinctPair(rng, a*spec.Nodes, spec.Nodes)
			}
			b := (a + 1 + rng.IntN(spec.Clusters-1)) % spec.Clusters
			return model.NodeID(a*spec.Nodes + rng.IntN(spec.Nodes)), model.NodeID(b*spec.Nodes + rng.IntN(spec.Nodes))
		},
	})
}

// batchSize is the number of deploys in one deploy-batch request, in the
// stream and in setup.
const batchSize = 8

// fleetBlock is the length of the fleet workloads' mix.
const fleetBlock = 40

// buildFleet generates a fleet workload: install, pre-population in
// deploy-batches, then the measured mix of 25% deploy, 2.5% deploy-batch,
// 42.5% release, 15% single churn events and 15% reads.
func buildFleet(w *workload, seed uint64, n int, shape fleetShape) error {
	w.net, w.shards, w.durable, w.target = shape.net, shape.shards, shape.durable, shape.target
	install, err := json.Marshal(wire.FleetNetwork{Network: shape.net, Shards: shape.shards})
	if err != nil {
		return err
	}
	w.setup = append(w.setup, op{route: "install", path: "/v1/fleet/network", body: [][]byte{install}})

	newDeploy := func(rng *rand.Rand) (int, error) {
		pipe, err := gen.Pipeline(4+rng.IntN(5), gen.DefaultRanges(), rng)
		if err != nil {
			return 0, err
		}
		d := wire.FleetDeploy{Tenant: fmt.Sprintf("t%d", len(w.deploys)), Pipeline: pipe, Op: "mindelay"}
		d.Src, d.Dst = shape.endpoints(rng)
		if rng.Float64() < 0.5 {
			d.Op = "maxframerate"
		}
		switch u := rng.Float64(); {
		case u < 0.2:
			d.Class = "guaranteed"
		case u < 0.8:
			d.Class = "standard"
		default:
			d.Class = "best_effort"
		}
		d.MinRateFPS = 1 + 5*rng.Float64()
		w.deploys = append(w.deploys, d)
		return len(w.deploys) - 1, nil
	}
	batch := func(rng *rand.Rand) (op, error) {
		o := op{route: routeBatch, path: "/v1/fleet/deploy-batch"}
		var body wire.DeployBatch
		for i := 0; i < batchSize; i++ {
			k, err := newDeploy(rng)
			if err != nil {
				return op{}, err
			}
			o.deploys = append(o.deploys, k)
			body.Requests = append(body.Requests, w.deploys[k])
		}
		b, err := json.Marshal(body)
		o.body = [][]byte{b}
		return o, err
	}

	// Setup sends batches until target deployments are admitted; twice the
	// batches that would take at full admission bounds it.
	pre := subRNG(seed, w.name, "prepopulate")
	for i := 0; i < 2*w.target/batchSize+2; i++ {
		o, err := batch(pre)
		if err != nil {
			return err
		}
		w.setup = append(w.setup, o)
	}

	rng := subRNG(seed, w.name, "stream")
	// Per fleetBlock requests: 10 deploys, 1 deploy-batch, 17 releases, 6
	// churn events and 2 of each read.
	mix := &mixer{rng: rng, counts: []int{10, 1, 17, 6, 2, 2, 2}}
	events := 0
	for i := 0; i < n; i++ {
		var o op
		switch kind := mix.next(); kind {
		case 0:
			k, err := newDeploy(rng)
			if err != nil {
				return err
			}
			b, err := json.Marshal(w.deploys[k])
			if err != nil {
				return err
			}
			o = op{route: routeDeploy, path: "/v1/fleet/deploy", deploys: []int{k}, body: [][]byte{b}}
		case 1:
			if o, err = batch(rng); err != nil {
				return err
			}
		case 2:
			o = op{route: routeRelease, path: "/v1/fleet/release", pick: rng.Float64()}
		case 3:
			o = op{route: routeEvents, path: "/v1/events", churn: events}
			events++
		default:
			o = op{route: routeRead, read: readKind(kind - 4), pick: rng.Float64()}
			switch o.read {
			case readHealth:
				o.path = "/v1/health"
			case readStats:
				o.path = "/v1/stats"
			}
		}
		w.ops = append(w.ops, o)
	}
	if events == 0 {
		return nil
	}
	// Milder than gen.DefaultChurnSpec: at 15% of all requests the default's
	// fifth of the nodes down at once parks and requeues most of the fleet
	// every few seconds, and the run measures that storm rather than the
	// fleet.
	cs := gen.ChurnSpec{Events: events, MeanIntervalMs: 5000, NodeShare: 0, LinkShare: 0.5,
		MaxDownFrac: 0.04, DegradeLo: 0.5, DegradeHi: 0.9, DriftLo: 0.9, DriftHi: 1.1}
	trace, err := gen.Churn(cs, shape.net, subRNG(seed, w.name, "churn"))
	if err != nil {
		return err
	}
	for i := range w.ops {
		if w.ops[i].route != routeEvents {
			continue
		}
		b, err := json.Marshal(wire.Events{Events: []model.ChurnEvent{trace[w.ops[i].churn].Event}})
		if err != nil {
			return err
		}
		w.ops[i].body = [][]byte{b}
	}
	return nil
}
