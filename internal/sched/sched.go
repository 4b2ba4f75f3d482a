// Package sched provides the parallel loop the engines execute their
// traversals with: DynamicChunks, work-sharing over fixed-size chunks pulled
// from an atomic counter. With chunk 1 it hands out single items
// (partitions or scheduling units rather than vertex ranges).
//
// The three scheduling policies the paper's evaluation compares — Polymer's
// static blocks, Ligra's Cilk work stealing and GraphGrind's grouped
// static-then-dynamic scheme — are modeled, not executed: their loop times
// come from engine.MakespanStatic, MakespanDynamic and MakespanGrouped over
// deterministic per-unit costs (DESIGN.md §1).
package sched

import (
	"sync"
	"sync/atomic"
)

// DynamicChunks runs fn over [0, n) in chunks of the given size, pulled
// dynamically by the workers from a shared counter. Every chunk but the
// last is exactly chunk long, so with chunk 1 each call covers the single
// item lo.
func DynamicChunks(workers, n, chunk int, fn func(worker, lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
				if lo >= n {
					break
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}
