package algorithms

import (
	"math"
	"sync/atomic"

	"repro/internal/atomicf"
	"repro/internal/engine"
	"repro/internal/frontier"
	"repro/internal/graph"
)

// This file holds the resumable kernel variants behind the View.Refine* API
// (see DESIGN.md §5d): instead of cold-starting from a root or a uniform
// vector, each kernel takes a seed result plus an initial frontier and runs
// the same edgemap iteration the cold-start version uses, so it executes
// unchanged on all three framework models. The seeds come from a converged
// basis-epoch result; the frontiers from the lineage delta between the basis
// view and the queried view.

// RelaxInf is the "unreached" sentinel of the int64 relaxation state used by
// the monotone refinable kernels (BFS depths, canonical CC labels,
// Bellman-Ford distances). It matches BellmanFord's internal infinity, so
// seeded and cold-start relaxations agree bit for bit.
const RelaxInf = math.MaxInt64 / 4

// RelaxResume runs min-relaxation val[d] = min(val[d], val[s]+step) over the
// graph to fixpoint, starting from the given frontier. step is the edge
// weight when weighted, else 1 (BFS depths and packed CC labels both
// propagate with unit steps). The seed values must be valid upper bounds on
// the fixpoint — every finite entry achievable by some path, RelaxInf for
// "unknown" — and the frontier must contain the source of every edge the
// seed leaves violated (val[d] > val[s]+step); under those preconditions the
// returned array is the exact fixpoint. val is mutated in place and
// returned. Callers that reset values by invalidation reasoning rely on
// non-negative weights (every stored weight in this module is ≥ 1; see
// dynamic.Graph's weight normalization).
func RelaxResume(e engine.Engine, val []int64, weighted bool, f *frontier.Frontier) []int64 {
	n := e.Rows().NumVertices()
	kernel := relaxKernel(val, weighted)
	for round := 0; round < n && !f.IsEmpty(); round++ {
		f = e.EdgeMap(f, kernel)
	}
	return val
}

// relaxKernel is RelaxResume's edgemap: val[d] = min(val[d], val[s]+step)
// over every edge with an active, reached source, activating the
// destinations it lowers. The step is the edge weight when weighted, else 1.
//
// Source values may be lowered concurrently by the worker owning that vertex
// as a destination (the BellmanFord race); atomic loads keep the relaxation
// race-free, and a stale read only defers it one round.
//
// The dense forms load every source's value, read an inactive source as
// unreached and mask an unreached source's candidate to min's identity,
// MaxInt64, so neither test is a branch. in (and out) cover every vertex,
// so resliced to val's length they share val[s]'s (and val[d]'s) bounds
// check. Kept out of line for the reason rankKernel gives.
//
//go:noinline
func relaxKernel(val []int64, weighted bool) engine.EdgeKernel {
	return engine.EdgeKernel{
		Pull: func(d graph.VertexID, srcs []graph.VertexID, ws []int32, in []bool) (int, bool) {
			ws, in = ws[:len(srcs)], in[:len(val)]
			cur := atomic.LoadInt64(&val[d])
			for i, s := range srcs {
				sv := atomic.LoadInt64(&val[s])
				if !in[s] {
					sv = RelaxInf
				}
				nd := sv + 1
				if weighted {
					nd = sv + int64(ws[i])
				}
				if sv >= RelaxInf {
					nd = math.MaxInt64
				}
				cur = min(cur, nd)
			}
			// Only this worker writes val[d], so it still holds the start;
			// reloading it keeps the loop's registers free of spills.
			active := cur < atomic.LoadInt64(&val[d])
			if active {
				atomic.StoreInt64(&val[d], cur)
			}
			return len(srcs), active
		},
		// Scatter keeps its store conditional, as ccKernel's does.
		Scatter: func(src, dst []graph.VertexID, ws []int32, in, out []bool) {
			src, ws = src[:len(dst)], ws[:len(dst)]
			in, out = in[:len(val)], out[:len(val)]
			for i, d := range dst {
				s := src[i]
				sv := atomic.LoadInt64(&val[s])
				if !in[s] {
					sv = RelaxInf
				}
				nd := sv + 1
				if weighted {
					nd = sv + int64(ws[i])
				}
				if sv >= RelaxInf {
					nd = math.MaxInt64
				}
				if nd < atomic.LoadInt64(&val[d]) {
					atomic.StoreInt64(&val[d], nd)
					out[d] = true
				}
			}
		},
		UpdateAtomic: func(s, d graph.VertexID, w int32) bool {
			sv := atomic.LoadInt64(&val[s])
			if sv >= RelaxInf {
				return false
			}
			if weighted {
				return atomicf.MinI64(&val[d], sv+int64(w))
			}
			return atomicf.MinI64(&val[d], sv+1)
		},
	}
}

// BFSDepths computes BFS depths from root from scratch in the refinable
// representation (RelaxInf = unreached). Equivalent to Depths(BFS(e, root))
// with RelaxInf in place of -1.
func BFSDepths(e engine.Engine, root graph.VertexID) []int64 {
	g := e.Graph()
	depth := make([]int64, g.NumVertices())
	for i := range depth {
		depth[i] = RelaxInf
	}
	depth[root] = 0
	return RelaxResume(e, depth, false, frontier.FromVertex(g, root))
}

// PackCC packs a canonical CC propagation state: the component label (the
// smallest original vertex ID that reaches the vertex) in the high 32 bits
// and the hop count of the propagation path in the low 32. Numeric order on
// the packed value is lexicographic (label, hops) order, so min-relaxation
// with unit steps computes, per vertex, the smallest reaching ID and its hop
// distance — a BFS-depth structure that makes KickStarter-style supporting
// -edge reasoning applicable to CC (DESIGN.md §5d).
func PackCC(label uint32, hops int32) int64 {
	return int64(label)<<32 | int64(uint32(hops))
}

// UnpackCCLabel extracts the component label from a packed CC state.
func UnpackCCLabel(state int64) uint32 {
	return uint32(state >> 32)
}

// CCSeeded computes canonical connected-component labels from scratch in the
// refinable representation: every vertex injects its own initial label
// (init[v], the vertex's original ID in the View API) and the fixpoint holds
// the minimum label reaching each vertex plus its hop distance. Unlike CC's
// labels, which are opaque engine-space artifacts, these are stable across
// renumbering epochs.
func CCSeeded(e engine.Engine, init []uint32) []int64 {
	g := e.Graph()
	n := g.NumVertices()
	state := make([]int64, n)
	for v := 0; v < n; v++ {
		state[v] = PackCC(init[v], 0)
	}
	return RelaxResume(e, state, false, frontier.All(g))
}

// PageRankResume resumes PageRank from a converged rank vector after a graph
// delta, GraphBolt-style: the rank recurrence rank = b + damping·Aᵀ·rank is
// linear, so the exact correction for a changed (b, A) is the geometric
// series of the initial residual delta₀ = (b_new − b_old) +
// damping·(A_new − A_old)ᵀ·rank_seed propagated through the new graph. Only
// vertices whose pending delta exceeds eps·rank stay in the frontier
// (PageRankDelta's convergence condition), so a small perturbation touches a
// small, shrinking cone. rank is mutated in place and returned; the seed
// must satisfy the basis graph's recurrence to within the same eps for the
// result to match a converged cold start.
//
// PageRankResume reads d's edge changes (multiplicities unrolled; each
// changed source's old out-degree is derived from them) and its admitted
// vertices, which seed with rank 0 and take the full new base term; the
// seed is already in the engine's slots. nReal is the real vertex count,
// smaller than a slotted engine's ID space, and the basis had
// nReal − len(d.Grown): the two set the (1-damping)/n base-term shift.
func PageRankResume(e engine.Engine, rank []float64, d graph.Delta, nReal, iters int, eps float64) []float64 {
	g := e.Graph()
	n := g.NumVertices()
	if n == 0 {
		return rank
	}
	delta := make([]float64, n)
	touched := make([]bool, n)
	var touchList []graph.VertexID
	touch := func(v graph.VertexID, dv float64) {
		delta[v] += dv
		if !touched[v] {
			touched[v] = true
			touchList = append(touchList, v)
		}
	}
	// Base-term change: (1-damping)/n_new for every vertex minus
	// (1-damping)/n_old for the ones that existed at the basis. Zero unless
	// the vertex space grew, in which case every vertex takes a (tiny)
	// initial delta and the first round runs dense. The divisors use the real
	// vertex counts, not the engine's ID-space size — on slotted engines the
	// headroom rows swept here are inert (no out-edges, dropped on
	// projection back to real IDs).
	if len(d.Grown) > 0 {
		grown := make([]bool, n)
		for _, v := range d.Grown {
			grown[v] = true
		}
		bNew := (1 - damping) / float64(nReal)
		bOld := (1 - damping) / float64(nReal-len(d.Grown))
		for v := 0; v < n; v++ {
			if grown[v] {
				touch(graph.VertexID(v), bNew)
			} else {
				touch(graph.VertexID(v), bNew-bOld)
			}
		}
	}
	// Edge-term change, per changed source s with old degree odOld and new
	// degree odNew: retained edges shift by rank[s]·(1/odNew − 1/odOld), so
	// sweep all current out-edges with that shift, then correct inserted
	// edges up to rank[s]/odNew (+rank[s]/odOld) and deleted ones down by
	// their old contribution (−rank[s]/odOld). rank here is the seed vector,
	// which grown sources hold at 0 — their mass arrives through the
	// propagation rounds with the correct new degrees. odOld is the current
	// degree less the source's insertions plus its deletions; sources are
	// swept in first-appearance order over Adds then Dels, so the float
	// accumulation order — and the result — is deterministic.
	oldDeg := make(map[graph.VertexID]int64)
	var srcs []graph.VertexID
	count := func(s graph.VertexID, dd int64) {
		if _, ok := oldDeg[s]; !ok {
			oldDeg[s] = g.OutDegree(s)
			srcs = append(srcs, s)
		}
		oldDeg[s] += dd
	}
	for _, ed := range d.Adds {
		count(ed.Src, -1)
	}
	for _, ed := range d.Dels {
		count(ed.Src, 1)
	}
	for _, s := range srcs {
		odNew, odOld := g.OutDegree(s), oldDeg[s]
		var cNew, cOld float64
		if odNew > 0 {
			cNew = rank[s] / float64(odNew)
		}
		if odOld > 0 {
			cOld = rank[s] / float64(odOld)
		}
		if diff := cNew - cOld; diff != 0 {
			for _, t := range g.OutNeighbors(s) {
				touch(t, damping*diff)
			}
		}
	}
	oldContrib := func(s graph.VertexID) float64 {
		if od := oldDeg[s]; od > 0 {
			return rank[s] / float64(od)
		}
		return 0
	}
	for _, ed := range d.Adds {
		touch(ed.Dst, damping*oldContrib(ed.Src))
	}
	for _, ed := range d.Dels {
		touch(ed.Dst, -damping*oldContrib(ed.Src))
	}

	contrib := make([]float64, n)
	acc := make([]uint64, n)
	kernel := rankKernel(acc, contrib)
	// Apply the initial delta and keep only material perturbations active.
	f := applyDelta(g, rank, delta, touchList, eps)
	for it := 0; it < iters && !f.IsEmpty(); it++ {
		for _, v := range f.Sparse() {
			if od := g.OutDegree(v); od > 0 {
				contrib[v] = delta[v] / float64(od)
			} else {
				contrib[v] = 0
			}
		}
		moved := e.EdgeMap(f, kernel)
		// Fold the propagated mass into rank sparsely: only destinations the
		// edgemap touched carry new delta, everything else is settled.
		f = e.VertexMap(moved, func(v graph.VertexID) bool {
			nd := damping * atomicf.F64From(acc[v])
			acc[v] = 0
			delta[v] = nd
			rank[v] += nd
			return math.Abs(nd) > eps*math.Abs(rank[v])
		})
	}
	return rank
}

// applyDelta folds the initial perturbation into rank and builds the first
// frontier: the touched vertices whose delta is material relative to their
// rank.
func applyDelta(g *graph.Graph, rank, delta []float64, touchList []graph.VertexID, eps float64) *frontier.Frontier {
	active := make([]bool, len(rank))
	for _, v := range touchList {
		rank[v] += delta[v]
		if math.Abs(delta[v]) > eps*math.Abs(rank[v]) {
			active[v] = true
		}
	}
	return frontier.FromDense(g, active)
}
