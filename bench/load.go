package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout fails a request that has not completed after 5s.
const requestTimeout = 5 * time.Second

// client sends requests to one elpcd over at most conns keep-alive
// connections; a request that finds them all busy waits for one.
type client struct {
	base  string
	hc    *http.Client
	dials atomic.Int64
}

func newClient(addr string, conns int) *client {
	c := &client{base: "http://" + addr}
	dialer := &net.Dialer{}
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	c.hc = &http.Client{Transport: tr, Timeout: requestTimeout}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one completed (or failed) exchange.
type response struct {
	status int
	body   []byte
	err    error
}

// do sends one request whose body is the concatenation of parts.
func (c *client) do(method, path string, parts [][]byte) response {
	var body io.Reader
	var n int64
	if parts != nil {
		readers := make([]io.Reader, len(parts))
		for i, p := range parts {
			readers[i] = bytes.NewReader(p)
			n += int64(len(p))
		}
		body = io.MultiReader(readers...)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return response{err: err}
	}
	req.ContentLength = n
	if parts != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, body: b, err: err}
}

// timing is when one open-loop request was due, handed to a connection
// worker, and completed, all as offsets from the start of the phase.
type timing struct {
	due, dispatched, done time.Duration
}

// latency runs from the scheduled send time, so time spent queued behind a
// busy connection counts.
func (t timing) latency() time.Duration { return t.done - t.due }

// lag is how late the generator's timer released the request: scheduler
// lateness only, not connection queueing.
func (t timing) lag() time.Duration { return t.dispatched - t.due }

// openLoop releases request i at offset due[i] from the start and sends it on
// the first of conns workers to be free; send(i) performs the request. It
// returns each request's timing once all have completed.
func openLoop(due []time.Duration, conns int, send func(i int)) []timing {
	out := make([]timing, len(due))
	queue := make(chan int, len(due)) // sized to the number of sends: the dispatcher never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				send(i)
				out[i].done = time.Since(start)
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = d
		out[i].dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop keeps conns workers sending requests first..n-1 back to back
// until d has elapsed or the stream runs out. It returns how many requests
// were sent and the time until the last one completed.
func closedLoop(first, n, conns int, d time.Duration, send func(i int)) (int, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	var sent atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				send(i)
				sent.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(sent.Load()), time.Since(start)
}

// sequencer makes ops with consecutive tickets run strictly one after
// another: churn events apply in trace order, each waiting for the previous
// event's response.
type sequencer struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
}

func newSequencer() *sequencer {
	s := &sequencer{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// wait blocks until every ticket below t has finished.
func (s *sequencer) wait(t int) {
	s.mu.Lock()
	for s.next < t {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// finish marks ticket t done.
func (s *sequencer) finish(t int) {
	s.mu.Lock()
	if t+1 > s.next {
		s.next = t + 1
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}
