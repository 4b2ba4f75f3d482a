package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// coverage collects which indices were visited and how often.
type coverage struct {
	mu     sync.Mutex
	counts []int
}

func newCoverage(n int) *coverage { return &coverage{counts: make([]int, n)} }

func (c *coverage) markRange(lo, hi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := lo; i < hi; i++ {
		c.counts[i]++
	}
}

func (c *coverage) exactlyOnce() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.counts {
		if n != 1 {
			return false
		}
	}
	return true
}

func TestDynamicChunksCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 13, 500} {
		for _, chunk := range []int{1, 7, 64} {
			cov := newCoverage(n)
			DynamicChunks(6, n, chunk, func(_, lo, hi int) { cov.markRange(lo, hi) })
			if !cov.exactlyOnce() {
				t.Fatalf("n=%d chunk=%d: not exactly-once coverage", n, chunk)
			}
		}
	}
}

// Property: the loop performs exactly the requested amount of work.
func TestSchedulerTotalsQuick(t *testing.T) {
	f := func(n8 uint8, w8 uint8) bool {
		n := int(n8)
		w := int(w8)%8 + 1
		var a int64
		DynamicChunks(w, n, 3, func(_, lo, hi int) { atomic.AddInt64(&a, int64(hi-lo)) })
		return a == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDynamicChunksGoroutines holds the loop to the host's width: with the
// model's 48 workers it starts at most Workers(48, n, chunk) goroutines,
// which GOMAXPROCS and the chunk count bound, hands out worker indices below
// that count, and still covers every index exactly once.
func TestDynamicChunksGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const workers = 48
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct{ n, chunk int }{{0, 1}, {1, 1}, {2, 1}, {5, 2}, {500, 7}, {4096, 1}} {
			bound := Workers(workers, c.n, c.chunk)
			if want := max(min(workers, (c.n+c.chunk-1)/c.chunk, procs), 1); bound != want {
				t.Fatalf("GOMAXPROCS=%d n=%d chunk=%d: Workers = %d, want %d", procs, c.n, c.chunk, bound, want)
			}
			before := runtime.NumGoroutine()
			var mu sync.Mutex
			peak, maxWorker := 0, 0
			cov := newCoverage(c.n)
			DynamicChunks(workers, c.n, c.chunk, func(w, lo, hi int) {
				g := runtime.NumGoroutine() - before
				mu.Lock()
				peak, maxWorker = max(peak, g), max(maxWorker, w)
				mu.Unlock()
				cov.markRange(lo, hi)
			})
			if peak > bound {
				t.Errorf("GOMAXPROCS=%d n=%d chunk=%d: %d goroutines ran the loop, want ≤ %d", procs, c.n, c.chunk, peak, bound)
			}
			if maxWorker >= bound {
				t.Errorf("GOMAXPROCS=%d n=%d chunk=%d: worker index %d, want < %d", procs, c.n, c.chunk, maxWorker, bound)
			}
			if !cov.exactlyOnce() {
				t.Errorf("GOMAXPROCS=%d n=%d chunk=%d: not exactly-once coverage", procs, c.n, c.chunk)
			}
		}
	}
}

// BenchmarkDynamicChunks is the shape of a small sparse step: two chunks
// with the model's 48 workers, so it times the loop's fork and join.
func BenchmarkDynamicChunks(b *testing.B) {
	var sink atomic.Int64
	for b.Loop() {
		DynamicChunks(48, 2, 1, func(_, lo, hi int) { sink.Add(int64(hi - lo)) })
	}
}
