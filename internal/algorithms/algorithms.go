// Package algorithms implements the paper's eight benchmark algorithms
// (Table II) against the engine.Engine interface, so each runs unchanged on
// the Ligra, Polymer and GraphGrind models:
//
//	BC    betweenness centrality (vertex-oriented, medium/sparse frontiers)
//	CC    connected components by label propagation (edge-oriented)
//	PR    PageRank, power method, fixed iterations (edge-oriented, dense)
//	BFS   breadth-first search (vertex-oriented, medium/sparse)
//	PRD   PageRank with delta updates (edge-oriented, shrinking frontier)
//	SPMV  sparse matrix-vector product, one iteration (edge-oriented, dense)
//	BF    Bellman-Ford single-source shortest paths (vertex-oriented)
//	BP    belief propagation, fixed iterations (edge-oriented, dense)
//
// Every kernel comes in the three engine.EdgeKernel forms: a Pull over one
// destination's in-row, a Scatter over one partition COO, and a per-edge
// UpdateAtomic for sparse push. The dense forms rely on the engines'
// guarantee that a single worker owns each destination, and each does the
// same operations in the same order as the per-edge update would; the push
// form uses the lock-free primitives in internal/atomicf.
package algorithms

import (
	"math"
	"sync/atomic"

	"repro/internal/atomicf"
	"repro/internal/engine"
	"repro/internal/frontier"
	"repro/internal/graph"
)

const damping = 0.85

// PageRank runs the power method for iters iterations and returns the rank
// vector. Matches the paper's PR configuration (10 iterations).
func PageRank(e engine.Engine, iters int) []float64 {
	return PageRankN(e, iters, e.Graph().NumVertices())
}

// PageRankN is PageRank with the true vertex count nReal made explicit for
// engines whose ID space is larger than the graph — slotted VEBO orderings
// reserve headroom positions that exist as empty rows. The 1/n terms use
// nReal; the empty rows accumulate only their own base term (they have no
// out-edges, so they never contribute rank), and callers projecting results
// back to real vertex IDs drop them.
func PageRankN(e engine.Engine, iters, nReal int) []float64 {
	g := e.Graph()
	n := g.NumVertices()
	rank := make([]float64, n)
	contrib := make([]float64, n)
	acc := make([]uint64, n) // float64 bits, atomically accumulated in push
	for v := 0; v < n; v++ {
		rank[v] = 1.0 / float64(nReal)
	}
	kernel := rankKernel(acc, contrib)
	all := frontier.All(g)
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			if od := g.OutDegree(graph.VertexID(v)); od > 0 {
				contrib[v] = rank[v] / float64(od)
			} else {
				contrib[v] = 0
			}
			acc[v] = 0
		}
		e.EdgeMap(all, kernel)
		e.VertexMap(all, func(v graph.VertexID) bool {
			rank[v] = (1-damping)/float64(nReal) + damping*atomicf.F64From(acc[v])
			return false
		})
	}
	return rank
}

// rankKernel sums contrib[s] into acc[d] (float64 bits) over every edge with
// an active source and activates every destination it reaches: the edgemap
// of PageRank, PageRankDelta and PageRankResume.
//
// The kernel constructors are kept out of line: when the compiler inlines a
// function that returns closures, its copies of those closures do not inline
// their own calls, which put a call to atomicf's bit casts on every edge.
//
//go:noinline
func rankKernel(acc []uint64, contrib []float64) engine.EdgeKernel {
	return engine.EdgeKernel{
		Pull: func(d graph.VertexID, srcs []graph.VertexID, _ []int32, in []bool) (int, bool) {
			sum := atomicf.F64From(acc[d])
			active := false
			for _, s := range srcs {
				if in[s] {
					sum += contrib[s]
					active = true
				}
			}
			if active {
				acc[d] = atomicf.F64Bits(sum)
			}
			return len(srcs), active
		},
		Scatter: func(src, dst []graph.VertexID, _ []int32, in, out []bool) {
			src = src[:len(dst)]
			for i, d := range dst {
				if s := src[i]; in[s] {
					acc[d] = atomicf.F64Bits(atomicf.F64From(acc[d]) + contrib[s])
					out[d] = true
				}
			}
		},
		UpdateAtomic: func(s, d graph.VertexID, _ int32) bool {
			atomicf.AddF64(&acc[d], contrib[s])
			return true
		},
	}
}

// PageRankDelta runs the delta-update PageRank variant: only vertices whose
// rank changed by more than eps times their accumulated rank stay in the
// frontier. Returns the rank vector. This is the paper's PRD.
func PageRankDelta(e engine.Engine, iters int, eps float64) []float64 {
	return PageRankDeltaN(e, iters, eps, e.Graph().NumVertices())
}

// PageRankDeltaN is PageRankDelta with the true vertex count nReal made
// explicit; see PageRankN for the slotted-ordering contract.
func PageRankDeltaN(e engine.Engine, iters int, eps float64, nReal int) []float64 {
	g := e.Graph()
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	// PageRank is the geometric series p = Σ_k (damping·A)^k · (1−damping)/n;
	// delta holds the current term and rank the partial sum, so vertices
	// whose term has become negligible can drop out of the frontier.
	rank := make([]float64, n)
	delta := make([]float64, n)
	contrib := make([]float64, n)
	acc := make([]uint64, n)
	for v := 0; v < n; v++ {
		delta[v] = (1 - damping) / float64(nReal)
		rank[v] = delta[v]
	}
	kernel := rankKernel(acc, contrib)
	f := frontier.All(g)
	all := frontier.All(g)
	for it := 0; it < iters && !f.IsEmpty(); it++ {
		for v := 0; v < n; v++ {
			acc[v] = 0
			if od := g.OutDegree(graph.VertexID(v)); od > 0 {
				contrib[v] = delta[v] / float64(od)
			} else {
				contrib[v] = 0
			}
		}
		e.EdgeMap(f, kernel)
		// All vertices recompute their delta; the next frontier keeps those
		// whose rank moved materially (Ligra's PageRankDelta condition).
		f = e.VertexMap(all, func(v graph.VertexID) bool {
			nd := damping * atomicf.F64From(acc[v])
			delta[v] = nd
			rank[v] += nd
			return math.Abs(nd) > eps*math.Abs(rank[v]) && rank[v] > 0
		})
	}
	return rank
}

// BFS computes a breadth-first search tree from root, returning the parent
// array (-1 for unreached; the root is its own parent).
func BFS(e engine.Engine, root graph.VertexID) []int32 {
	g := e.Graph()
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = int32(root)
	kernel := BFSKernel(parent)
	f := frontier.FromVertex(g, root)
	for !f.IsEmpty() {
		f = e.EdgeMap(f, kernel)
	}
	return parent
}

// BFSKernel is BFS's edgemap over a parent array (-1 = unvisited): an
// unvisited destination takes the first active source that reaches it as
// its parent and becomes active. A destination stops accepting updates once
// it has a parent, so Pull stops its row scan there. Kept out of line for
// the reason rankKernel gives.
//
//go:noinline
func BFSKernel(parent []int32) engine.EdgeKernel {
	return engine.EdgeKernel{
		Pull: func(d graph.VertexID, srcs []graph.VertexID, _ []int32, in []bool) (int, bool) {
			if parent[d] >= 0 {
				return 0, false
			}
			for i, s := range srcs {
				if in[s] {
					parent[d] = int32(s)
					return i + 1, true
				}
			}
			return len(srcs), false
		},
		// Scatter folds the frontier test into the visited test, so a
		// mixed frontier costs one rarely taken branch per edge, not a
		// coin flip on in[s].
		Scatter: func(src, dst []graph.VertexID, _ []int32, in, out []bool) {
			src = src[:len(dst)]
			in, out = in[:len(parent)], out[:len(parent)]
			for i, d := range dst {
				if s := src[i]; b2i(in[s])&b2i(parent[d] < 0) != 0 {
					parent[d] = int32(s)
					out[d] = true
				}
			}
		},
		// Sparse pushes race the visited check against other workers' CAS
		// on the same destination; the atomic load keeps that benign check
		// race-free.
		UpdateAtomic: func(s, d graph.VertexID, _ int32) bool {
			return atomic.LoadInt32(&parent[d]) < 0 && atomicf.CASI32(&parent[d], -1, int32(s))
		},
	}
}

// Depths derives BFS depths from a parent array (root depth 0, -1 for
// unreached).
func Depths(parent []int32, root graph.VertexID) []int32 {
	n := len(parent)
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[root] = 0
	// Repeatedly settle vertices whose parent is settled. O(diameter * n)
	// worst case but only used in tests/verification.
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if depth[v] >= 0 || parent[v] < 0 {
				continue
			}
			if pd := depth[parent[v]]; pd >= 0 {
				depth[v] = pd + 1
				changed = true
			}
		}
	}
	return depth
}

// CC runs label-propagation connected components: every vertex starts with
// its own ID as label, and labels propagate along edges until fixpoint. On
// symmetric graphs this yields connected components; on directed graphs it
// yields the directed-propagation fixpoint (label[d] ≤ label[s] for every
// edge (s,d)). Returns the label array.
func CC(e engine.Engine) []uint32 {
	g := e.Graph()
	n := g.NumVertices()
	label := make([]uint32, n)
	for i := range label {
		label[i] = uint32(i)
	}
	kernel := ccKernel(label)
	f := frontier.All(g)
	for !f.IsEmpty() {
		f = e.EdgeMap(f, kernel)
	}
	return label
}

// ccKernel is CC's edgemap: label[d] = min(label[d], label[s]) over every
// edge with an active source, activating the destinations it lowers.
//
// Label propagation reads source labels that a concurrently processed
// destination may be lowering (the classic Ligra CC race): loads and the
// owner's store are atomic so a torn or stale read can never corrupt a
// label — a stale read only defers the propagation to the next round, where
// the lowered source re-enters the frontier.
//
// The dense forms load every source's label and mask an inactive one to
// min's identity, MaxUint32, so the frontier test is a conditional move
// rather than a branch that a mixed frontier mispredicts. in (and out) cover
// every vertex, so resliced to label's length they share label[s]'s (and
// label[d]'s) bounds check. Kept out of line for the reason rankKernel
// gives.
//
//go:noinline
func ccKernel(label []uint32) engine.EdgeKernel {
	return engine.EdgeKernel{
		Pull: func(d graph.VertexID, srcs []graph.VertexID, _ []int32, in []bool) (int, bool) {
			in = in[:len(label)]
			start := atomic.LoadUint32(&label[d])
			cur := start
			for _, s := range srcs {
				ls := atomic.LoadUint32(&label[s])
				if !in[s] {
					ls = math.MaxUint32
				}
				cur = min(cur, ls)
			}
			active := cur < start
			if active {
				atomic.StoreUint32(&label[d], cur)
			}
			return len(srcs), active
		},
		// Scatter keeps its store conditional: an atomic store per edge
		// costs more than the branch it would remove.
		Scatter: func(src, dst []graph.VertexID, _ []int32, in, out []bool) {
			src = src[:len(dst)]
			in, out = in[:len(label)], out[:len(label)]
			for i, d := range dst {
				s := src[i]
				ls := atomic.LoadUint32(&label[s])
				if !in[s] {
					ls = math.MaxUint32
				}
				if ls < atomic.LoadUint32(&label[d]) {
					atomic.StoreUint32(&label[d], ls)
					out[d] = true
				}
			}
		},
		UpdateAtomic: func(s, d graph.VertexID, _ int32) bool {
			return atomicf.MinU32(&label[d], atomic.LoadUint32(&label[s]))
		},
	}
}

// b2i is 1 for true and 0 for false. The compiler lowers it to a zero
// extension of the flag, so the dense kernels combine tests without a
// branch per test.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SPMV multiplies the graph's (weighted) adjacency matrix with x in one
// dense edgemap: y[d] = Σ_{(s,d)∈E} w(s,d)·x[s].
func SPMV(e engine.Engine, x []float64) []float64 {
	g := e.Graph()
	n := g.NumVertices()
	y := make([]uint64, n)
	kernel := engine.EdgeKernel{
		Pull: func(d graph.VertexID, srcs []graph.VertexID, ws []int32, in []bool) (int, bool) {
			ws = ws[:len(srcs)]
			sum := atomicf.F64From(y[d])
			for i, s := range srcs {
				if in[s] {
					sum += float64(ws[i]) * x[s]
				}
			}
			y[d] = atomicf.F64Bits(sum)
			return len(srcs), false
		},
		Scatter: func(src, dst []graph.VertexID, ws []int32, in, _ []bool) {
			src, ws = src[:len(dst)], ws[:len(dst)]
			for i, d := range dst {
				if s := src[i]; in[s] {
					y[d] = atomicf.F64Bits(atomicf.F64From(y[d]) + float64(ws[i])*x[s])
				}
			}
		},
		UpdateAtomic: func(s, d graph.VertexID, w int32) bool {
			atomicf.AddF64(&y[d], float64(w)*x[s])
			return false
		},
	}
	e.EdgeMap(frontier.All(g), kernel)
	out := make([]float64, n)
	for i := range out {
		out[i] = atomicf.F64From(y[i])
	}
	return out
}

// BellmanFord computes single-source shortest paths from root over the
// graph's edge weights, returning distances (math.MaxInt64 for unreached).
func BellmanFord(e engine.Engine, root graph.VertexID) []int64 {
	g := e.Graph()
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = RelaxInf
	}
	dist[root] = 0
	RelaxResume(e, dist, true, frontier.FromVertex(g, root))
	for i, d := range dist {
		if d >= RelaxInf {
			dist[i] = Unreached
		}
	}
	return dist
}

// Unreached is the distance BellmanFord reports for unreachable vertices.
const Unreached = math.MaxInt64

// BC computes single-source betweenness centrality from root using Brandes'
// two-phase algorithm expressed as edgemaps (Ligra's BC): a forward BFS
// accumulating shortest-path counts, then a backward sweep over the BFS
// levels accumulating dependencies. The backward sweep traverses reversed
// edges, so the caller supplies eT, an engine over the transposed graph
// (for symmetric graphs, e itself may be passed). Returns the dependency
// score per vertex.
func BC(e, eT engine.Engine, root graph.VertexID) []float64 {
	g := e.Graph()
	n := g.NumVertices()
	sigma := make([]uint64, n) // path counts, float64 bits
	visited := make([]bool, n)
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	sigma[root] = atomicf.F64Bits(1)
	visited[root] = true
	depth[root] = 0

	// Only unvisited destinations accept path counts; visited is set
	// between edgemaps, never during one.
	fwd := engine.EdgeKernel{
		Pull: func(d graph.VertexID, srcs []graph.VertexID, _ []int32, in []bool) (int, bool) {
			if visited[d] {
				return 0, false
			}
			sum := atomicf.F64From(sigma[d])
			active := false
			for _, s := range srcs {
				if in[s] {
					sum += atomicf.F64From(sigma[s])
					active = true
				}
			}
			if active {
				sigma[d] = atomicf.F64Bits(sum)
			}
			return len(srcs), active
		},
		Scatter: func(src, dst []graph.VertexID, _ []int32, in, out []bool) {
			src = src[:len(dst)]
			for i, d := range dst {
				if s := src[i]; in[s] && !visited[d] {
					sigma[d] = atomicf.F64Bits(atomicf.F64From(sigma[d]) + atomicf.F64From(sigma[s]))
					out[d] = true
				}
			}
		},
		UpdateAtomic: func(s, d graph.VertexID, _ int32) bool {
			if visited[d] {
				return false
			}
			atomicf.AddF64(&sigma[d], atomicf.F64From(sigma[s]))
			return true
		},
	}

	var levels []*frontier.Frontier
	f := frontier.FromVertex(g, root)
	levels = append(levels, f)
	for lvl := int32(1); !f.IsEmpty(); lvl++ {
		f = e.EdgeMap(f, fwd)
		if f.IsEmpty() {
			break
		}
		e.VertexMap(f, func(v graph.VertexID) bool {
			visited[v] = true
			depth[v] = lvl
			return false
		})
		levels = append(levels, f)
	}

	// Backward sweep: dependency delta flows from a vertex v to its BFS
	// predecessors u (edge u→v in g, i.e. v→u in the transpose).
	delta := make([]uint64, n)
	// Sources sit one level below their destinations, so a row reads the
	// delta of vertices no worker writes in this edgemap; Pull stores only
	// the destinations it changed.
	bwd := engine.EdgeKernel{
		Pull: func(u graph.VertexID, srcs []graph.VertexID, _ []int32, in []bool) (int, bool) {
			du := atomicf.F64From(delta[u])
			changed := false
			for _, v := range srcs {
				if in[v] && depth[u] == depth[v]-1 {
					du += atomicf.F64From(sigma[u]) / atomicf.F64From(sigma[v]) *
						(1 + atomicf.F64From(delta[v]))
					changed = true
				}
			}
			if changed {
				delta[u] = atomicf.F64Bits(du)
			}
			return len(srcs), false
		},
		Scatter: func(src, dst []graph.VertexID, _ []int32, in, _ []bool) {
			src = src[:len(dst)]
			for i, u := range dst {
				if v := src[i]; in[v] && depth[u] == depth[v]-1 {
					add := atomicf.F64From(sigma[u]) / atomicf.F64From(sigma[v]) *
						(1 + atomicf.F64From(delta[v]))
					delta[u] = atomicf.F64Bits(atomicf.F64From(delta[u]) + add)
				}
			}
		},
		UpdateAtomic: func(v, u graph.VertexID, _ int32) bool {
			if depth[u] == depth[v]-1 {
				add := atomicf.F64From(sigma[u]) / atomicf.F64From(sigma[v]) *
					(1 + atomicf.LoadF64(&delta[v]))
				atomicf.AddF64(&delta[u], add)
			}
			return false
		},
	}
	for l := len(levels) - 1; l >= 1; l-- {
		eT.EdgeMap(levels[l], bwd)
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		if graph.VertexID(v) != root {
			out[v] = atomicf.F64From(delta[v])
		}
	}
	return out
}

// BP runs a simplified Bayesian belief-propagation update for iters
// iterations: each vertex holds a belief in (-1, 1); on every iteration each
// edge (s,d) contributes w·tanh(belief[s]) to d's evidence, and beliefs are
// recomputed as tanh(prior[d] + 0.1·evidence[d]). This preserves the
// paper's BP workload profile — a weighted, edge-oriented, fully dense
// computation over 10 iterations — without the full factor-graph machinery
// (see DESIGN.md). Returns the belief vector.
func BP(e engine.Engine, iters int, prior []float64) []float64 {
	g := e.Graph()
	n := g.NumVertices()
	belief := make([]float64, n)
	evidence := make([]uint64, n)
	copy(belief, prior)
	// Normalize each vertex's evidence by its total in-edge weight so the
	// tanh never saturates to exactly ±1 regardless of degree and weights.
	norm := make([]float64, n)
	for v := 0; v < n; v++ {
		var sum float64
		for _, w := range g.InWeights(graph.VertexID(v)) {
			sum += float64(w)
		}
		norm[v] = 1 + sum
	}
	kernel := engine.EdgeKernel{
		Pull: func(d graph.VertexID, srcs []graph.VertexID, ws []int32, in []bool) (int, bool) {
			ws = ws[:len(srcs)]
			sum := atomicf.F64From(evidence[d])
			active := false
			for i, s := range srcs {
				if in[s] {
					sum += float64(ws[i]) * math.Tanh(belief[s])
					active = true
				}
			}
			if active {
				evidence[d] = atomicf.F64Bits(sum)
			}
			return len(srcs), active
		},
		Scatter: func(src, dst []graph.VertexID, ws []int32, in, out []bool) {
			src, ws = src[:len(dst)], ws[:len(dst)]
			for i, d := range dst {
				if s := src[i]; in[s] {
					evidence[d] = atomicf.F64Bits(atomicf.F64From(evidence[d]) +
						float64(ws[i])*math.Tanh(belief[s]))
					out[d] = true
				}
			}
		},
		UpdateAtomic: func(s, d graph.VertexID, w int32) bool {
			atomicf.AddF64(&evidence[d], float64(w)*math.Tanh(belief[s]))
			return true
		},
	}
	all := frontier.All(g)
	for it := 0; it < iters; it++ {
		for i := range evidence {
			evidence[i] = 0
		}
		e.EdgeMap(all, kernel)
		e.VertexMap(all, func(v graph.VertexID) bool {
			belief[v] = math.Tanh(prior[v] + atomicf.F64From(evidence[v])/norm[v])
			return false
		})
	}
	return belief
}
