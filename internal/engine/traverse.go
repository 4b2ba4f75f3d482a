package engine

import (
	"slices"

	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/sched"
)

// Range is a half-open destination-vertex range used as a scheduling unit.
// It is layout's range type, so a unit list is also a list of COO ranges.
type Range = layout.Range

// SplitRange cuts [0, n) into units of the given size.
func SplitRange(n, unit int) []Range {
	if unit < 1 {
		unit = 1
	}
	out := make([]Range, 0, (n+unit-1)/unit)
	for lo := 0; lo < n; lo += unit {
		hi := lo + unit
		if hi > n {
			hi = n
		}
		out = append(out, Range{Lo: graph.VertexID(lo), Hi: graph.VertexID(hi)})
	}
	return out
}

// SubdivideByEdges splits each range into at most k sub-ranges of
// near-equal in-edge count (Algorithm-1-style greedy chunking), preserving
// order. This is Polymer's intra-socket work division: threads receive
// edge-balanced chunks of their socket's partition.
func SubdivideByEdges(g *graph.Graph, ranges []Range, k int) []Range {
	if k < 1 {
		k = 1
	}
	out := make([]Range, 0, len(ranges)*k)
	for _, r := range ranges {
		var edges int64
		for v := r.Lo; v < r.Hi; v++ {
			edges += g.InDegree(v)
		}
		target := edges / int64(k)
		lo := r.Lo
		var acc int64
		emitted := 0
		for v := r.Lo; v < r.Hi; v++ {
			if acc >= target && target > 0 && emitted < k-1 {
				out = append(out, Range{Lo: lo, Hi: v})
				lo = v
				acc = 0
				emitted++
			}
			acc += g.InDegree(v)
		}
		if lo < r.Hi {
			out = append(out, Range{Lo: lo, Hi: r.Hi})
		}
	}
	return out
}

// DensePull performs a pull-direction edgemap: every destination in every
// unit hands its in-row to the kernel's Pull, which scans it for active
// sources. Each destination costs CostVertex plus CostEdge per edge Pull
// reports scanned. Units own disjoint destination ranges, so Pull's stores
// may be non-atomic. workers is the model's thread count; the units run on
// sched.Workers(workers, len(units), 1) goroutines, and unitCosts are
// returned for makespan modeling.
func DensePull(g *graph.Graph, f *frontier.Frontier, k EdgeKernel, units []Range, workers int) (*frontier.Frontier, []int64) {
	in := f.Dense()
	out := make([]bool, g.NumVertices())
	unitCosts := make([]int64, len(units))
	sched.DynamicChunks(workers, len(units), 1, func(_, u, _ int) {
		r := units[u]
		cost := int64(CostVertex) * int64(r.Hi-r.Lo)
		for d := r.Lo; d < r.Hi; d++ {
			scanned, active := k.Pull(d, g.InNeighbors(d), g.InWeights(d), in)
			cost += int64(scanned) * CostEdge
			if active {
				out[d] = true
			}
		}
		unitCosts[u] = cost
	})
	return frontier.FromDense(g, out), unitCosts
}

// DenseCOO performs GraphGrind's dense edgemap: each unit is a
// pre-materialized COO of one partition's in-edges, handed whole to the
// kernel's Scatter, which traverses it in its stored order (CSR or
// Hilbert). ranges supplies the destination-vertex range of each partition:
// per-unit cost charges every owned vertex (the engine also walks
// per-partition vertex state) plus every edge. Partitions own disjoint
// destination sets, so Scatter's stores may be non-atomic.
func DenseCOO(g *graph.Graph, f *frontier.Frontier, k EdgeKernel, coos []*layout.COO, ranges []Range, workers int) (*frontier.Frontier, []int64) {
	in := f.Dense()
	out := make([]bool, g.NumVertices())
	unitCosts := make([]int64, len(coos))
	sched.DynamicChunks(workers, len(coos), 1, func(_, u, _ int) {
		c := coos[u]
		k.Scatter(c.Src, c.Dst, c.Weight, in, out)
		unitCosts[u] = int64(CostVertex)*int64(ranges[u].Hi-ranges[u].Lo) + int64(c.Len())*CostEdge
	})
	return frontier.FromDense(g, out), unitCosts
}

// SparsePush performs a push-direction edgemap: active sources push along
// their out-edges using the atomic kernel. The frontier is cut into chunks
// of chunkSize sources; chunkCosts charge each chunk CostVertex per source
// and CostEdge per out-edge, for makespan modeling. Given partOf
// (destination vertex → partition index, below parts), partCosts also bins
// CostEdge per out-edge by its destination's partition; a caller that needs
// no bins passes nil and 0. Each worker bins into its own array and the
// arrays are summed after the loop, so the bins do not depend on which
// worker ran which chunk.
// Workers append every activation, repeats included; one sort and compact
// of their lists dedups the output, so a step allocates per edge scanned
// (at most m/20: the sparse direction's bound) rather than per vertex. A
// sparse step reads only its sources' rows, so g is any graph.Rows: a
// graph, or an overlay of one.
func SparsePush(g graph.Rows, f *frontier.Frontier, k EdgeKernel, chunkSize, workers int, partOf []uint32, parts int) (*frontier.Frontier, []int64, []int64) {
	srcs := f.Sparse()
	nChunks := (len(srcs) + chunkSize - 1) / chunkSize
	chunkCosts := make([]int64, nChunks)
	workers = sched.Workers(workers, len(srcs), chunkSize)
	outPerWorker := make([][]graph.VertexID, workers)
	bins := make([]int64, workers*parts) // worker w's are bins[w*parts:][:parts]
	sched.DynamicChunks(workers, len(srcs), chunkSize, func(w, lo, hi int) {
		var cost int64
		local, bin := outPerWorker[w], bins[w*parts:][:parts]
		for _, s := range srcs[lo:hi] {
			cost += CostVertex
			ids, ws := g.OutRow(s)
			for i, d := range ids {
				cost += CostEdge
				if partOf != nil {
					bin[partOf[d]] += CostEdge
				}
				if k.UpdateAtomic(s, d, ws[i]) {
					local = append(local, d)
				}
			}
		}
		outPerWorker[w] = local
		chunkCosts[lo/chunkSize] += cost
	})
	partCosts := bins[:parts]
	for w := 1; w < workers; w++ {
		for i, c := range bins[w*parts:][:parts] {
			partCosts[i] += c
		}
	}
	outs := slices.Concat(outPerWorker...)
	slices.Sort(outs)
	return frontier.FromVertices(g, slices.Compact(outs)), chunkCosts, partCosts
}

// VertexMapDynamic applies fn to the active vertices with dynamic chunking
// (Ligra). Returns the output frontier and per-chunk costs. Like SparsePush
// it reads only the active vertices' rows.
func VertexMapDynamic(g graph.Rows, f *frontier.Frontier, fn func(v graph.VertexID) bool, chunkSize, workers int) (*frontier.Frontier, []int64) {
	vs := f.Sparse()
	nChunks := (len(vs) + chunkSize - 1) / chunkSize
	unitCosts := make([]int64, nChunks)
	keep := make([]bool, len(vs))
	sched.DynamicChunks(workers, len(vs), chunkSize, func(_, lo, hi int) {
		var cost int64
		for i := lo; i < hi; i++ {
			cost += CostVertex
			keep[i] = fn(vs[i])
		}
		unitCosts[lo/chunkSize] += cost
	})
	out := make([]graph.VertexID, 0, len(vs))
	for i, v := range vs {
		if keep[i] {
			out = append(out, v)
		}
	}
	return frontier.FromVertices(g, out), unitCosts
}

// VertexMapStatic applies fn to active vertices with the full vertex range
// [0, n) statically divided into `units` contiguous blocks, as Polymer and
// GraphGrind spread vertexmap iterations over all threads regardless of
// activity. Per-block cost counts only active vertices (inactive slots are
// skipped by the frontier check).
func VertexMapStatic(g *graph.Graph, f *frontier.Frontier, fn func(v graph.VertexID) bool, units, workers int) (*frontier.Frontier, []int64) {
	n := g.NumVertices()
	in := f.Dense()
	out := make([]bool, n)
	ranges := SplitRange(n, (n+units-1)/max(units, 1))
	unitCosts := make([]int64, len(ranges))
	sched.DynamicChunks(workers, len(ranges), 1, func(_, u, _ int) {
		var cost int64
		r := ranges[u]
		for v := r.Lo; v < r.Hi; v++ {
			if !in[v] {
				continue
			}
			cost += CostVertex
			if fn(v) {
				out[v] = true
			}
		}
		unitCosts[u] = cost
	})
	return frontier.FromDense(g, out), unitCosts
}
