// Package engine is the parallel solve substrate shared by the planning
// service and the benchmark harness: a bounded pool of helper goroutines
// that steal iterations from fork-join jobs submitted via ParallelFor, plus
// parallel drivers for the solver sweeps built on it (ParetoFront, batch
// solving).
//
// Two properties make the pool safe to share across subsystems:
//
//   - The submitting goroutine always participates: ParallelFor executes
//     items on the caller even when every helper is busy, so nested jobs
//     (a batch solve whose items each fan out a Pareto sweep) can never
//     deadlock — helpers only add parallelism.
//   - Work distribution is dynamic: helpers steal the next unclaimed
//     iteration from a shared atomic cursor, so uneven item costs (DP
//     solves vary wildly with the budget) balance automatically, like a
//     work-stealing deque specialized to coarse-grained tasks.
//
// Results are placed by index, so parallel execution is deterministic
// whenever the per-item function is — the engine's Pareto sweep returns
// byte-identical fronts to the sequential core implementation.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded parallel executor. The zero value is not usable; build
// one with NewPool. A nil *Pool is valid everywhere and means "sequential".
type Pool struct {
	// parallelism is the target number of concurrently executing
	// goroutines per job: the caller plus len-1 helpers.
	parallelism int
	jobs        chan *job
	quit        chan struct{}
	closeOnce   sync.Once
}

// job is one ParallelFor invocation: a shared claim cursor, a completion
// count, and the first recovered panic (repanicked on the caller).
type job struct {
	n    int64
	fn   func(int)
	next atomic.Int64 // next unclaimed index
	left atomic.Int64 // items not yet finished
	fin  chan struct{}

	panicMu  sync.Mutex
	panicked bool
	panicVal any
}

// NewPool starts a pool targeting the given parallelism (<= 0 selects
// GOMAXPROCS). A pool of 1 has no helper goroutines: every ParallelFor runs
// inline on its caller, which makes "sequential" a configuration rather
// than a code path.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		parallelism: workers,
		jobs:        make(chan *job, 4*workers),
		quit:        make(chan struct{}),
	}
	for i := 0; i < workers-1; i++ {
		go p.helper()
	}
	return p
}

// Workers returns the pool's target parallelism (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.parallelism
}

// Close stops the helper goroutines. Jobs already submitted still complete
// (their callers execute any unclaimed items). Close is idempotent; using
// the pool after Close degrades to sequential execution, it does not panic.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() { close(p.quit) })
}

// helper is one pool goroutine: it waits for job announcements and works a
// job until its cursor is exhausted. Announcements can be stale (the job
// may already be drained by its caller); claiming is what settles it.
func (p *Pool) helper() {
	for {
		select {
		case j := <-p.jobs:
			j.work()
		case <-p.quit:
			return
		}
	}
}

// work claims and runs iterations until none remain.
func (j *job) work() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.runOne(int(i))
	}
}

// runOne executes one iteration, capturing the first panic so the caller
// can rethrow it; the completion count is decremented even on panic so the
// job always finishes.
func (j *job) runOne(i int) {
	defer func() {
		if r := recover(); r != nil {
			j.panicMu.Lock()
			if !j.panicked {
				j.panicked = true
				j.panicVal = r
			}
			j.panicMu.Unlock()
		}
		if j.left.Add(-1) == 0 {
			close(j.fin)
		}
	}()
	j.fn(i)
}

// ParallelFor runs fn(i) for every i in [0, n) and returns when all calls
// have finished. The caller executes items itself; idle helpers join in.
// Safe to nest (inner jobs run on whatever goroutine reaches them first)
// and safe on a nil or closed pool (sequential). If any fn panics, the
// first panic is rethrown on the caller after the job drains.
func (p *Pool) ParallelFor(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.parallelism <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &job{n: int64(n), fn: fn, fin: make(chan struct{})}
	j.left.Store(int64(n))
	// Announce to as many helpers as could usefully join; non-blocking so
	// a full announcement queue (or a closed pool) costs nothing — the
	// caller picks up whatever is not stolen. Each announcement admits at
	// most one helper, so the announcement count is the concurrency cap.
	announce := p.parallelism - 1
	if announce > n-1 {
		announce = n - 1
	}
	select {
	case <-p.quit:
		// Closed pool: no helper will ever drain the queue, so enqueueing
		// would pin the job (and everything its closure captures) in the
		// channel buffer for the pool's lifetime.
		announce = 0
	default:
	}
fill:
	for a := 0; a < announce; a++ {
		select {
		case p.jobs <- j:
		default:
			break fill // queue full; the caller covers the rest
		}
	}
	j.work()
	<-j.fin
	if j.panicked {
		panic(j.panicVal)
	}
}
