package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		counts := make([]atomic.Int32, n)
		p.ParallelFor(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d executed %d times", n, i, got)
			}
		}
	}
}

func TestParallelForNilAndClosedPool(t *testing.T) {
	var nilPool *Pool
	ran := 0
	nilPool.ParallelFor(5, func(i int) { ran++ })
	if ran != 5 {
		t.Fatalf("nil pool ran %d/5", ran)
	}
	if nilPool.Workers() != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", nilPool.Workers())
	}
	nilPool.Close() // must not panic

	p := NewPool(3)
	p.Close()
	p.Close() // idempotent
	var n atomic.Int32
	p.ParallelFor(10, func(i int) { n.Add(1) })
	if n.Load() != 10 {
		t.Fatalf("closed pool ran %d/10", n.Load())
	}
}

func TestParallelForNested(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	p.ParallelFor(8, func(i int) {
		p.ParallelFor(8, func(j int) {
			total.Add(int64(i*8 + j + 1))
		})
	})
	// Sum of 1..64.
	if got := total.Load(); got != 64*65/2 {
		t.Fatalf("nested total = %d, want %d", got, 64*65/2)
	}
}

func TestParallelForConcurrentJobs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ParallelFor(50, func(i int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if total.Load() != 8*50 {
		t.Fatalf("concurrent jobs ran %d/%d items", total.Load(), 8*50)
	}
}

func TestParallelForPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		// The pool must remain usable after a panicked job.
		var n atomic.Int32
		p.ParallelFor(10, func(i int) { n.Add(1) })
		if n.Load() != 10 {
			t.Fatalf("pool broken after panic: ran %d/10", n.Load())
		}
	}()
	p.ParallelFor(16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestPoolWorkers(t *testing.T) {
	p := NewPool(6)
	defer p.Close()
	if p.Workers() != 6 {
		t.Errorf("Workers() = %d, want 6", p.Workers())
	}
	def := NewPool(0)
	defer def.Close()
	if def.Workers() < 1 {
		t.Error("default pool must have at least one worker")
	}
}
