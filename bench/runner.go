package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"elpc/internal/model"
	"elpc/internal/service/wire"
)

// outcome classifies one response.
type outcome int

const (
	outOK       outcome = iota
	outExpected         // a refusal the request can legitimately get: 404, 409 or 422
	outFailed
)

// sent is what one request did, as the phases tally it.
type sent struct {
	route    string
	out      outcome
	items    int // deploy items attempted
	admitted int // deploy items admitted
}

// answer is one plan response kept for checking against the reference.
type answer struct {
	status int
	body   []byte
}

// placement is one acknowledged admission.
type placement struct {
	deploy     int // index into workload.deploys
	id         string
	assignment []model.NodeID
}

// runner sends a workload's requests to one elpcd and keeps what the
// correctness checks need: the deployments the generator owns, every
// acknowledged admission and release, and the plan answers.
type runner struct {
	w   *workload
	c   *client
	seq *sequencer

	mu       sync.Mutex
	live     []string // acknowledged deployments not yet released, in ack order
	admitted int      // acknowledged admissions
	released int      // acknowledged releases
	placed   []placement
	answers  map[int]map[[32]byte]answer // plan key -> distinct stream answers
	setupAns map[int]answer              // plan key -> setup answer
	sampled  map[int]answer              // stream position -> answer (plan-cold sample)
	failed   int
	notes    []string // the first failures, for the report
}

func newRunner(w *workload, c *client) *runner {
	return &runner{w: w, c: c, seq: newSequencer(),
		answers: map[int]map[[32]byte]answer{}, setupAns: map[int]answer{}, sampled: map[int]answer{}}
}

// fail records a failed request or check.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// take removes and returns the live deployment pick selects; ok is false
// when the generator owns none.
func (r *runner) take(pick float64, remove bool) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.live) == 0 {
		return "", false
	}
	i := int(pick * float64(len(r.live)))
	id := r.live[i]
	if remove {
		r.live = append(r.live[:i], r.live[i+1:]...)
	}
	return id, true
}

// request is an op resolved to what goes on the wire.
type request struct {
	route, method, path string
	body                [][]byte
}

// resolve turns an op into the request to send now: release and describe
// ops take their target from the live deployments (a stats read stands in
// when there is none).
func (r *runner) resolve(o *op) request {
	switch {
	case o.route == routeRelease:
		if id, ok := r.take(o.pick, true); ok {
			b, _ := json.Marshal(wire.FleetRelease{ID: id}) // a struct of one string always marshals
			return request{routeRelease, http.MethodPost, o.path, [][]byte{b}}
		}
		return request{routeRead, http.MethodGet, "/v1/stats", nil}
	case o.route == routeRead && o.read == readDescribe:
		if id, ok := r.take(o.pick, false); ok {
			return request{routeRead, http.MethodGet, "/v1/fleet/" + id, nil}
		}
		return request{routeRead, http.MethodGet, "/v1/stats", nil}
	case o.route == routeRead:
		return request{routeRead, http.MethodGet, o.path, nil}
	}
	return request{o.route, http.MethodPost, o.path, o.body}
}

// send performs op o; pos is its position in the measured stream, or -1
// for a setup request.
func (r *runner) send(o *op, pos int) sent {
	s, _ := r.exchange(o, pos)
	return s
}

// exchange is send, also returning the request as it was resolved.
func (r *runner) exchange(o *op, pos int) (sent, request) {
	if o.route == routeEvents {
		r.seq.wait(o.churn)
		defer r.seq.finish(o.churn)
	}
	q := r.resolve(o)
	resp := r.c.do(q.method, q.path, q.body)
	s := sent{route: q.route, out: outFailed}
	if resp.err != nil {
		r.fail("%s %s: %v", q.method, q.path, resp.err)
		return s, q
	}
	switch {
	case resp.status >= 500 || resp.status == http.StatusTooManyRequests:
	case q.route == routePlan:
		s.out = r.planAnswer(o, pos, resp)
	case q.route == routeDeploy:
		s.items = 1
		s.out = r.deployAnswer(o, resp, &s)
	case q.route == routeBatch:
		s.items = len(o.deploys)
		s.out = r.batchAnswer(o, resp, &s)
	case q.route == routeRelease && resp.status == http.StatusOK:
		r.mu.Lock()
		r.released++
		r.mu.Unlock()
		s.out = outOK
	case (q.route == routeRelease || q.route == routeRead) && resp.status == http.StatusNotFound:
		// The deployment was parked by churn or preempted.
		s.out = outExpected
	case resp.status == http.StatusOK:
		s.out = outOK
	}
	if s.out == outFailed {
		r.fail("%s %s: status %d: %.200s", q.method, q.path, resp.status, resp.body)
	}
	return s, q
}

func (r *runner) planAnswer(o *op, pos int, resp response) outcome {
	out := outOK
	switch resp.status {
	case http.StatusOK:
	case http.StatusUnprocessableEntity:
		out = outExpected // correct only if the reference is infeasible too; checked later
	default:
		return outFailed
	}
	a := answer{status: resp.status, body: resp.body}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case pos < 0:
		r.setupAns[o.plan] = a
	case r.w.sample != nil:
		if r.w.sample[pos] {
			r.sampled[pos] = a
		}
	default:
		// Exact-cache hits of one key must all be byte-identical, so one kept
		// body per distinct answer checks them all.
		seen := r.answers[o.plan]
		if seen == nil {
			seen = map[[32]byte]answer{}
			r.answers[o.plan] = seen
		}
		d := sha256.Sum256(append([]byte{byte(resp.status >> 8), byte(resp.status)}, resp.body...))
		if _, ok := seen[d]; !ok {
			seen[d] = a
		}
	}
	return out
}

// admit records one acknowledged admission.
func (r *runner) admit(deploy int, d *wire.Deployment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.live = append(r.live, d.ID)
	r.admitted++
	r.placed = append(r.placed, placement{deploy: deploy, id: d.ID, assignment: d.Assignment})
}

func (r *runner) deployAnswer(o *op, resp response, s *sent) outcome {
	switch resp.status {
	case http.StatusOK:
		var d wire.Deployment
		if err := json.Unmarshal(resp.body, &d); err != nil || d.ID == "" {
			return outFailed
		}
		r.admit(o.deploys[0], &d)
		s.admitted = 1
		return outOK
	case http.StatusConflict:
		return outExpected // admission rejected
	}
	return outFailed
}

func (r *runner) batchAnswer(o *op, resp response, s *sent) outcome {
	if resp.status != http.StatusOK {
		return outFailed
	}
	var b wire.DeployBatchResponse
	if err := json.Unmarshal(resp.body, &b); err != nil || len(b.Results) != len(o.deploys) {
		return outFailed
	}
	for _, it := range b.Results {
		switch {
		case it.Index < 0 || it.Index >= len(o.deploys):
			return outFailed
		case it.Deployment != nil:
			r.admit(o.deploys[it.Index], it.Deployment)
			s.admitted++
		case it.Error == nil || it.Error.Code != wire.CodeConflict:
			return outFailed
		}
	}
	return outOK
}
