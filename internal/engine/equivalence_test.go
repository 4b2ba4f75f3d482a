package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/layout"
)

// countKernel adds one to counts[d] for every edge (s→d) with an active
// source and activates every destination it reaches, in all three kernel
// forms. (enginetest.Count is the same kernel for other packages; this
// package's tests cannot import it.)
func countKernel(counts []int64) EdgeKernel {
	return EdgeKernel{
		Pull: func(d graph.VertexID, srcs []graph.VertexID, _ []int32, in []bool) (int, bool) {
			var c int64
			for _, s := range srcs {
				if in[s] {
					c++
				}
			}
			counts[d] += c
			return len(srcs), c > 0
		},
		Scatter: func(src, dst []graph.VertexID, _ []int32, in, out []bool) {
			for i, d := range dst {
				if in[src[i]] {
					counts[d]++
					out[d] = true
				}
			}
		},
		UpdateAtomic: func(_, d graph.VertexID, _ int32) bool {
			atomic.AddInt64(&counts[d], 1)
			return true
		},
	}
}

// TestPushPullEquivalenceQuick is the central traversal invariant: for any
// graph, any frontier and an order-insensitive kernel, sparse push, dense
// pull and COO traversal must apply the kernel to exactly the same edge
// multiset and activate exactly the same destinations.
func TestPushPullEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(120) + 2
		g, err := gen.ErdosRenyi(n, int64(rng.Intn(500)), seed)
		if err != nil {
			return false
		}
		// random frontier
		var vs []graph.VertexID
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				vs = append(vs, graph.VertexID(v))
			}
		}
		if len(vs) == 0 {
			vs = append(vs, 0)
		}

		run := func(mode int) ([]int64, *frontier.Frontier) {
			counts := make([]int64, n)
			k := countKernel(counts)
			fr := frontier.FromVertices(g, append([]graph.VertexID(nil), vs...))
			switch mode {
			case 0:
				out, _, _ := SparsePush(g, fr, k, 3, 4, nil, 0)
				return counts, out
			case 1:
				out, _ := DensePull(g, fr, k, SplitRange(n, 16), 4)
				return counts, out
			default:
				units := SplitRange(n, 16)
				coos, _, err := layout.BuildRanges(g, units, layout.HilbertOrder, 2)
				if err != nil {
					return nil, nil
				}
				out, _ := DenseCOO(g, fr, k, coos, units, 4)
				return counts, out
			}
		}
		cPush, fPush := run(0)
		cPull, fPull := run(1)
		cCOO, fCOO := run(2)
		if cCOO == nil {
			return false
		}
		for v := 0; v < n; v++ {
			if cPush[v] != cPull[v] || cPull[v] != cCOO[v] {
				return false
			}
			a := fPush.Has(graph.VertexID(v))
			if a != fPull.Has(graph.VertexID(v)) || a != fCOO.Has(graph.VertexID(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Concurrency smoke: a counting kernel under real goroutine workers
// must still count every edge exactly once (engine-side dedup and chunking
// must not lose or duplicate work).
func TestSparsePushParallelExactness(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 3000, S: 1.0, MaxDegree: 200, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	perDst := make([]int64, g.NumVertices())
	SparsePush(g, frontier.All(g), countKernel(perDst), 7, 8, nil, 0)
	total := sum(perDst)
	if total != g.NumEdges() {
		t.Fatalf("kernel applied %d times, want %d", total, g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if perDst[v] != g.InDegree(graph.VertexID(v)) {
			t.Fatalf("dst %d updated %d times, in-degree %d",
				v, perDst[v], g.InDegree(graph.VertexID(v)))
		}
	}
}
