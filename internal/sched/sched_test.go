package sched

import (
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
