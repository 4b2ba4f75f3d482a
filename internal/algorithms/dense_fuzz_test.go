package algorithms

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

// The oracles below are the dense kernel forms as they were before the
// frontier test became a select: each skips an inactive (or, for relax,
// unreached) source with a branch. FuzzDenseKernels holds ccKernel,
// relaxKernel and BFSKernel's Scatter to them.

func ccOracle(label []uint32) engine.EdgeKernel {
	return engine.EdgeKernel{
		Pull: func(d graph.VertexID, srcs []graph.VertexID, _ []int32, in []bool) (int, bool) {
			ld := atomic.LoadUint32(&label[d])
			active := false
			for _, s := range srcs {
				if in[s] {
					if ls := atomic.LoadUint32(&label[s]); ls < ld {
						ld = ls
						active = true
					}
				}
			}
			if active {
				atomic.StoreUint32(&label[d], ld)
			}
			return len(srcs), active
		},
		Scatter: func(src, dst []graph.VertexID, _ []int32, in, out []bool) {
			src = src[:len(dst)]
			for i, d := range dst {
				if s := src[i]; in[s] {
					if ls := atomic.LoadUint32(&label[s]); ls < atomic.LoadUint32(&label[d]) {
						atomic.StoreUint32(&label[d], ls)
						out[d] = true
					}
				}
			}
		},
	}
}

func relaxOracle(val []int64, weighted bool) engine.EdgeKernel {
	return engine.EdgeKernel{
		Pull: func(d graph.VertexID, srcs []graph.VertexID, ws []int32, in []bool) (int, bool) {
			ws = ws[:len(srcs)]
			cur := atomic.LoadInt64(&val[d])
			active := false
			for i, s := range srcs {
				if !in[s] {
					continue
				}
				sv := atomic.LoadInt64(&val[s])
				if sv >= RelaxInf {
					continue
				}
				nd := sv + 1
				if weighted {
					nd = sv + int64(ws[i])
				}
				if nd < cur {
					cur = nd
					active = true
				}
			}
			if active {
				atomic.StoreInt64(&val[d], cur)
			}
			return len(srcs), active
		},
		Scatter: func(src, dst []graph.VertexID, ws []int32, in, out []bool) {
			src, ws = src[:len(dst)], ws[:len(dst)]
			for i, d := range dst {
				s := src[i]
				if !in[s] {
					continue
				}
				sv := atomic.LoadInt64(&val[s])
				if sv >= RelaxInf {
					continue
				}
				nd := sv + 1
				if weighted {
					nd = sv + int64(ws[i])
				}
				if nd < atomic.LoadInt64(&val[d]) {
					atomic.StoreInt64(&val[d], nd)
					out[d] = true
				}
			}
		},
	}
}

// bfsOracle has no Pull: BFSKernel's Pull, which exits early, kept its
// branch.
func bfsOracle(parent []int32) engine.EdgeKernel {
	return engine.EdgeKernel{
		Scatter: func(src, dst []graph.VertexID, _ []int32, in, out []bool) {
			src = src[:len(dst)]
			for i, d := range dst {
				if s := src[i]; in[s] && parent[d] < 0 {
					parent[d] = int32(s)
					out[d] = true
				}
			}
		},
	}
}

// denseInput is one decoded fuzz case: a frontier over n vertices, one
// destination's in-row and one partition COO.
type denseInput struct {
	in       []bool
	d        graph.VertexID
	srcs     []graph.VertexID
	ws       []int32
	src, dst []graph.VertexID
	cws      []int32
}

// checkDense runs kernel's Pull and Scatter and oracle's on copies of
// state and fails on any difference in what they return, store or
// activate. An oracle without a Pull checks Scatter only.
func checkDense[T comparable](t *testing.T, name string, state []T, kernel, oracle func([]T) engine.EdgeKernel, c denseInput) {
	t.Helper()
	if oracle(nil).Pull != nil {
		got, want := slices.Clone(state), slices.Clone(state)
		sg, ag := kernel(got).Pull(c.d, c.srcs, c.ws, c.in)
		sw, aw := oracle(want).Pull(c.d, c.srcs, c.ws, c.in)
		if sg != sw || ag != aw || !slices.Equal(got, want) {
			t.Fatalf("%s Pull d=%d srcs=%v ws=%v in=%v state=%v:\n got scanned=%d active=%v state=%v\nwant scanned=%d active=%v state=%v",
				name, c.d, c.srcs, c.ws, c.in, state, sg, ag, got, sw, aw, want)
		}
	}
	got, want := slices.Clone(state), slices.Clone(state)
	og, ow := make([]bool, len(state)), make([]bool, len(state))
	kernel(got).Scatter(c.src, c.dst, c.cws, c.in, og)
	oracle(want).Scatter(c.src, c.dst, c.cws, c.in, ow)
	if !slices.Equal(got, want) || !slices.Equal(og, ow) {
		t.Fatalf("%s Scatter src=%v dst=%v ws=%v in=%v state=%v:\n got state=%v out=%v\nwant state=%v out=%v",
			name, c.src, c.dst, c.cws, c.in, state, got, og, want, ow)
	}
}

// FuzzDenseKernels holds the select-based dense forms of CC, relax
// (weighted and unweighted) and BFS to the branchy kernels they replaced,
// on random in-rows, COOs, frontiers and states. An inactive vertex draws
// its state from the low end half the time, so a source whose mask went
// missing would lower a destination the oracle leaves alone.
func FuzzDenseKernels(f *testing.F) {
	// A case is n-2, then four bytes per vertex (frontier bit, label, distance
	// and parent bytes), then d, the row length and its (source, weight)
	// pairs, then the COO length and its (source, destination, weight)
	// triples. In the first seed, d's in-row holds an inactive source with a
	// smaller label and distance than its active ones, and an active source
	// at MaxInt64, which wraps if its unreached test goes missing; the COO
	// sends inactive sources into unvisited destinations.
	f.Add([]byte{2,
		1, 20, 4, 0, 0, 129, 128, 0, 1, 9, 11, 3, 0, 25, 6, 0,
		3, 4, 1, 0, 0, 1, 2, 2, 3, 0,
		5, 1, 0, 0, 1, 3, 1, 0, 3, 0, 2, 1, 2, 3, 0, 0})
	f.Add([]byte{6,
		1, 5, 3, 0, 0, 200, 130, 0, 0, 7, 7, 1, 1, 6, 8, 3, 0, 220, 141, 1,
		1, 4, 11, 2, 0, 130, 1, 0, 1, 30, 9, 5,
		5, 6, 0, 2, 1, 9, 2, 4, 4, 5, 3, 7, 6,
		8, 0, 5, 1, 5, 4, 2, 2, 5, 3, 5, 1, 2, 0, 3, 5, 5, 4, 0, 1, 7, 6, 6, 1, 2, 7})
	f.Add([]byte{})
	weights := []int32{1, 2, 3, 7, 0, -1, math.MaxInt32, math.MinInt32}
	dists := []int64{0, 1, 2, 3, 5, 8, 40, 1000, RelaxInf - 1, RelaxInf, RelaxInf + 1, math.MaxInt64, -1, math.MinInt64}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := byteStream(data)
		n := 2 + int(next()%15)
		v := func() graph.VertexID { return graph.VertexID(int(next()) % n) }
		w := func() int32 { return weights[int(next())%len(weights)] }
		c := denseInput{in: make([]bool, n)}
		label, dist, parent := make([]uint32, n), make([]int64, n), make([]int32, n)
		for u := range n {
			c.in[u] = next()&1 != 0
			// Bit 7 of a state byte sends an inactive vertex to the low end.
			low := func(b byte) bool { return !c.in[u] && b&128 != 0 }
			switch b := next(); {
			case low(b):
				label[u] = uint32(b % 4)
			case b%32 == 31:
				label[u] = math.MaxUint32
			default:
				label[u] = uint32(b % 32)
			}
			if b := next(); low(b) {
				dist[u] = dists[int(b)%4]
			} else {
				dist[u] = dists[int(b)%len(dists)]
			}
			if b := next(); b&1 == 0 {
				parent[u] = -1
			} else {
				parent[u] = int32(int(b>>1) % n)
			}
		}
		c.d = v()
		for i := int(next() % 24); i > 0; i-- {
			c.srcs = append(c.srcs, v())
			c.ws = append(c.ws, w())
		}
		for i := int(next() % 32); i > 0; i-- {
			c.src = append(c.src, v())
			c.dst = append(c.dst, v())
			c.cws = append(c.cws, w())
		}
		checkDense(t, "cc", label, ccKernel, ccOracle, c)
		for _, weighted := range []bool{false, true} {
			kernel := func(val []int64) engine.EdgeKernel { return relaxKernel(val, weighted) }
			oracle := func(val []int64) engine.EdgeKernel { return relaxOracle(val, weighted) }
			name := "relax"
			if weighted {
				name = "relax weighted"
			}
			checkDense(t, name, dist, kernel, oracle, c)
		}
		checkDense(t, "bfs", parent, BFSKernel, bfsOracle, c)
	})
}

func byteStream(data []byte) func() byte {
	i := 0
	return func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
}
