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
//
// The engines pass the model's thread count (48 on the paper's 4×12
// machine) as the loop's workers, but that count only shapes the model. The
// loop runs on at most as many goroutines as the host can run at once
// (runtime.GOMAXPROCS) and as there are chunks; Workers gives that number.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many goroutines DynamicChunks(workers, n, chunk, …)
// starts: min(workers, ⌈n/chunk⌉, runtime.GOMAXPROCS(0)), and at least one.
// A caller that sizes per-worker scratch by it, and passes the result on as
// the loop's workers, gets a worker index below len(scratch) even if
// GOMAXPROCS changes in between.
func Workers(workers, n, chunk int) int {
	chunk = max(chunk, 1)
	return max(min(workers, (n+chunk-1)/chunk, runtime.GOMAXPROCS(0)), 1)
}

// DynamicChunks runs fn over [0, n) in chunks of the given size, pulled
// dynamically by Workers(workers, n, chunk) goroutines from a shared
// counter; worker is the goroutine's index, below that count. Every chunk
// but the last is exactly chunk long, so with chunk 1 each call covers the
// single item lo.
//
// The loop runs on spawned goroutines even when one suffices. Running that
// case in the caller's goroutine instead raised the benchmark's
// serve_small_batch heap_peak_mib by 9.4% (24.08 → 26.33 MiB, GOMAXPROCS=1
// on a 2-vCPU VM): without a goroutine switch per step, the GC's background
// mark and sweep work get no turn under one P. One spawned goroutine read
// 23.73 MiB on the same runs.
func DynamicChunks(workers, n, chunk int, fn func(worker, lo, hi int)) {
	chunk = max(chunk, 1)
	workers = Workers(workers, n, chunk)
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
