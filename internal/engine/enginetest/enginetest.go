// Package enginetest provides edge kernels for testing and benchmarking the
// framework models' traversals, each written in all three
// engine.EdgeKernel forms.
package enginetest

import (
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Const returns a kernel that changes no state. With active set it
// activates every destination an active source reaches; otherwise none.
func Const(active bool) engine.EdgeKernel {
	return engine.EdgeKernel{
		Pull: func(_ graph.VertexID, srcs []graph.VertexID, _ []int32, in []bool) (int, bool) {
			if active {
				for _, s := range srcs {
					if in[s] {
						return len(srcs), true
					}
				}
			}
			return len(srcs), false
		},
		Scatter: func(src, dst []graph.VertexID, _ []int32, in, out []bool) {
			if active {
				for i, d := range dst {
					if in[src[i]] {
						out[d] = true
					}
				}
			}
		},
		UpdateAtomic: func(_, _ graph.VertexID, _ int32) bool { return active },
	}
}

// Count returns a kernel that adds one to counts[d] for every edge (s→d)
// with an active source and activates every destination it reaches.
func Count(counts []int64) engine.EdgeKernel {
	return engine.EdgeKernel{
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
