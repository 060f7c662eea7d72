package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"elpc/internal/core"
	"elpc/internal/engine"
	"elpc/internal/model"
	"elpc/internal/service"
	"elpc/internal/service/wire"
)

// refAnswer is one reference solve, kept for the next replica.
type refAnswer struct {
	res *service.Result
	err error
}

// reference solves plan key k in-process, from the request body elpcd
// received, with the solver elpcd dispatches to. pool fans front points out
// (nil = sequential; the result is identical).
func (w *workload) reference(k int, pool *engine.Pool) (*service.Result, error) {
	if a, ok := w.refs[k]; ok {
		return a.res, a.err
	}
	res, err := w.solveReference(k, pool)
	if w.refs == nil {
		w.refs = map[int]refAnswer{}
	}
	w.refs[k] = refAnswer{res, err}
	return res, err
}

func (w *workload) solveReference(k int, pool *engine.Pool) (*service.Result, error) {
	key := w.plans[k]
	var pw planWire
	if err := json.Unmarshal(bytes.Join([][]byte{networkPrefix, w.nets[key.net], key.tail}, nil), &pw); err != nil {
		return nil, err
	}
	return referenceSolve(pw.request(key.op).Problem, key.op, key.budget, key.points, pool)
}

// referenceSolve runs the core or engine solver for op and evaluates the
// winning mapping the way elpcd reports it. pool fans front points out
// (nil = sequential; the result is identical).
func referenceSolve(p *model.Problem, op string, budget float64, points int, pool *engine.Pool) (*service.Result, error) {
	var m *model.Mapping
	var err error
	switch {
	case op == "front":
		pts, err := engine.ParetoFront(pool, p, points, 0)
		if err != nil {
			return nil, err
		}
		res := &service.Result{}
		for _, pt := range pts {
			res.Front = append(res.Front, service.FrontPoint{DelayMs: pt.DelayMs, RateFPS: pt.RateFPS, Assignment: pt.Mapping.Assign})
		}
		return res, nil
	case op == "mindelay":
		m, err = core.MinDelay(p)
	case budget > 0:
		m, err = core.MaxFrameRateWithBudget(p, core.TradeoffOptions{DelayBudgetMs: budget})
	default:
		m, err = core.MaxFrameRate(p)
	}
	if err != nil {
		return nil, err
	}
	bottleneck := model.Bottleneck(p.Net, p.Pipe, m)
	if m.UsesReuse() {
		bottleneck = model.SharedBottleneck(p.Net, p.Pipe, m)
	}
	return &service.Result{
		Assignment:   m.Assign,
		DelayMs:      model.TotalDelay(p.Net, p.Pipe, m, p.Cost),
		BottleneckMs: bottleneck,
		RateFPS:      model.FrameRate(bottleneck),
	}, nil
}

// checkAnswer compares one elpcd answer for plan key k with the reference:
// same assignment, delay and rate (every front point), or a 422 exactly
// when the reference is infeasible.
func checkAnswer(ref *service.Result, refErr error, a answer) error {
	if refErr != nil {
		if errors.Is(refErr, model.ErrInfeasible) && a.status == http.StatusUnprocessableEntity {
			return nil
		}
		return fmt.Errorf("reference failed (%v) but elpcd answered %d", refErr, a.status)
	}
	if a.status != http.StatusOK {
		return fmt.Errorf("reference is feasible but elpcd answered %d", a.status)
	}
	var got service.Result
	if err := json.Unmarshal(a.body, &got); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if !slices.Equal(got.Assignment, ref.Assignment) || got.DelayMs != ref.DelayMs ||
		got.RateFPS != ref.RateFPS || got.BottleneckMs != ref.BottleneckMs {
		return fmt.Errorf("mapping %v delay %v rate %v, reference %v delay %v rate %v",
			got.Assignment, got.DelayMs, got.RateFPS, ref.Assignment, ref.DelayMs, ref.RateFPS)
	}
	if len(got.Front) != len(ref.Front) {
		return fmt.Errorf("front has %d points, reference %d", len(got.Front), len(ref.Front))
	}
	for i, pt := range got.Front {
		want := ref.Front[i]
		if pt.DelayMs != want.DelayMs || pt.RateFPS != want.RateFPS || !slices.Equal(pt.Assignment, want.Assignment) {
			return fmt.Errorf("front point %d differs from the reference", i)
		}
	}
	return nil
}

// checkPlans verifies plan answers against the reference: on plan-repeat
// every key's setup answer and every distinct measured answer (each key must
// have exactly one, a cache hit); on plan-cold the sampled answers. It
// returns the number of checks made.
func (r *runner) checkPlans() int {
	checks := 0
	check := func(k int, what string, a answer) {
		checks++
		ref, err := r.w.reference(k, nil)
		if e := checkAnswer(ref, err, a); e != nil {
			r.fail("plan key %d (%s %s): %v", k, r.w.plans[k].op, what, e)
		}
	}
	if r.w.sample != nil {
		for pos, a := range r.sampled {
			check(r.w.ops[pos].plan, "request "+strconv.Itoa(pos), a)
		}
		return checks
	}
	for k := range r.w.plans {
		a, ok := r.setupAns[k]
		if !ok {
			checks++
			r.fail("plan key %d: no setup answer", k)
			continue
		}
		check(k, "setup", a)
	}
	for k, seen := range r.answers {
		checks++
		if len(seen) != 1 {
			r.fail("plan key %d: %d distinct answers to identical requests", k, len(seen))
		}
		for _, a := range seen {
			var res service.Result
			if a.status == http.StatusOK && (json.Unmarshal(a.body, &res) != nil || !res.Cached) {
				r.fail("plan key %d: measured answer was not an exact-cache hit", k)
			}
			check(k, "measured", a)
		}
	}
	return checks
}

// validPlacement checks an assignment of deploy k against the installed
// network with model.Mapping.Validate.
func (w *workload) validPlacement(k int, assign []model.NodeID) error {
	d := w.deploys[k]
	m := model.NewMapping(assign)
	return m.Validate(w.net, d.Pipeline, model.ValidateOptions{Src: d.Src, Dst: d.Dst, NoReuse: d.Op == "maxframerate"})
}

// deployOf maps a tenant name back to its deploy index ("t17" -> 17), which
// also identifies deployments the reconciler re-admitted under a new ID.
func (w *workload) deployOf(tenant string) (int, bool) {
	k, err := strconv.Atoi(strings.TrimPrefix(tenant, "t"))
	return k, err == nil && strings.HasPrefix(tenant, "t") && k >= 0 && k < len(w.deploys)
}

// fleetView is the fleet as elpcd lists it, with the parked queue.
type fleetView struct {
	deployments map[string][]model.NodeID
	tenants     map[string]string
	parked      []string
}

// readFleet lists the fleet between two reads of the parked queue, retrying
// until the background requeue loop did not move anything in between.
func (r *runner) readFleet() (*fleetView, error) {
	parked := func() ([]string, error) {
		var log wire.EventsLog
		if err := r.getJSON("/v1/events/log?limit=1", &log); err != nil {
			return nil, err
		}
		ids := make([]string, len(log.Parked))
		for i, p := range log.Parked {
			ids[i] = p.ID
		}
		return ids, nil
	}
	for attempt := 0; attempt < 5; attempt++ {
		before, err := parked()
		if err != nil {
			return nil, err
		}
		var list wire.FleetList
		if err := r.getJSON("/v1/fleet", &list); err != nil {
			return nil, err
		}
		after, err := parked()
		if err != nil {
			return nil, err
		}
		if !slices.Equal(before, after) {
			continue
		}
		v := &fleetView{deployments: map[string][]model.NodeID{}, tenants: map[string]string{}, parked: after}
		for _, d := range list.Deployments {
			v.deployments[d.ID] = d.Assignment
			v.tenants[d.ID] = d.Tenant
		}
		return v, nil
	}
	return nil, errors.New("parked queue kept changing while listing the fleet")
}

func (r *runner) getJSON(path string, v any) error {
	resp := r.c.do(http.MethodGet, path, nil)
	if resp.err != nil {
		return resp.err
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.status)
	}
	return json.Unmarshal(resp.body, v)
}

// checkFleet verifies a fleet workload: every acknowledged admission and
// every listed deployment passes model.Mapping.Validate, and deployments are
// conserved: listed + parked = acknowledged admissions - acknowledged
// releases. It returns the listing and the number of checks made.
func (r *runner) checkFleet() (*fleetView, int) {
	checks := 0
	for _, p := range r.placed {
		checks++
		if err := r.w.validPlacement(p.deploy, p.assignment); err != nil {
			r.fail("admitted %s: %v", p.id, err)
		}
	}
	checks++
	v, err := r.readFleet()
	if err != nil {
		r.fail("listing the fleet: %v", err)
		return nil, checks
	}
	for id, assign := range v.deployments {
		checks++
		k, ok := r.w.deployOf(v.tenants[id])
		if !ok {
			r.fail("listed %s has unknown tenant %q", id, v.tenants[id])
			continue
		}
		if err := r.w.validPlacement(k, assign); err != nil {
			r.fail("listed %s: %v", id, err)
		}
	}
	checks++
	if got, want := len(v.deployments)+len(v.parked), r.admitted-r.released; got != want {
		r.fail("conservation: %d listed + %d parked != %d admitted - %d released",
			len(v.deployments), len(v.parked), r.admitted, r.released)
	}
	return v, checks
}

// checkRecovered verifies that a restarted durable elpcd lists the same
// deployments with the same assignments. Parked deployments the requeue
// loop re-admitted between the two listings may appear under new IDs.
func (r *runner) checkRecovered(before *fleetView) int {
	after, err := r.readFleet()
	if err != nil {
		r.fail("listing the recovered fleet: %v", err)
		return 1
	}
	for id, assign := range before.deployments {
		if got, ok := after.deployments[id]; !ok || !slices.Equal(got, assign) {
			r.fail("deployment %s lost or moved across the restart", id)
		}
	}
	if extra, requeued := len(after.deployments)-len(before.deployments), len(before.parked)-len(after.parked); extra != requeued {
		r.fail("restart changed the fleet: %d more deployments, %d fewer parked", extra, requeued)
	}
	return 1
}
