package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The open loop must charge a request the time it waited for a busy
// connection (latency from the due time) while lag stays the timer's
// lateness alone.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 40 * time.Millisecond
	due := []time.Duration{0, 0, 0} // three requests due at once, one connection
	timings := openLoop(due, 1, func(int) { time.Sleep(service) })
	for i, tm := range timings {
		want := time.Duration(i+1) * service
		if lat := tm.latency(); lat < want || lat > want+service/2+20*time.Millisecond {
			t.Errorf("request %d: latency %v, want about %v (queued behind %d)", i, lat, want, i)
		}
		if lag := tm.lag(); lag < 0 || lag > service/2 {
			t.Errorf("request %d: lag %v counts connection queueing; want timer lateness only", i, lag)
		}
	}
}

func TestOpenLoopReleasesOnSchedule(t *testing.T) {
	due := []time.Duration{0, 30 * time.Millisecond, 60 * time.Millisecond}
	start := time.Now()
	var mu sync.Mutex
	sentAt := make([]time.Duration, len(due))
	timings := openLoop(due, 2, func(i int) {
		mu.Lock()
		sentAt[i] = time.Since(start)
		mu.Unlock()
	})
	for i, tm := range timings {
		if sentAt[i] < due[i] {
			t.Errorf("request %d sent at %v, before it was due at %v", i, sentAt[i], due[i])
		}
		if tm.due != due[i] || tm.dispatched < tm.due || tm.done < tm.dispatched {
			t.Errorf("request %d: timing %+v out of order", i, tm)
		}
	}
}

func TestClosedLoopStopsAtDeadlineOrStreamEnd(t *testing.T) {
	var calls atomic.Int64
	n, took := closedLoop(5, 8, 2, time.Minute, func(int) { calls.Add(1) })
	if n != 3 || calls.Load() != 3 {
		t.Errorf("closed loop over requests 5..7 sent %d (%d calls), want 3", n, calls.Load())
	}
	if took > time.Second {
		t.Errorf("closed loop ran %v after the stream ended", took)
	}
	n, took = closedLoop(0, 1<<20, 2, 50*time.Millisecond, func(int) { time.Sleep(time.Millisecond) })
	if n == 0 || took < 50*time.Millisecond || took > time.Second {
		t.Errorf("closed loop sent %d requests in %v, want some, for about 50ms", n, took)
	}
}

func TestSequencerOrdersTickets(t *testing.T) {
	s := newSequencer()
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ticket := range []int{2, 0, 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.wait(ticket)
			mu.Lock()
			order = append(order, ticket)
			mu.Unlock()
			s.finish(ticket)
		}()
	}
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("tickets ran in order %v, want [0 1 2]", order)
	}
}
