// Package core implements VEBO, the paper's primary contribution: a vertex-
// and edge-balanced ordering heuristic that relabels the vertices of a graph
// so that cutting the new vertex range into P equal chunks (the paper's
// Algorithm 1, implemented in internal/partition) yields partitions whose
// in-edge counts differ by at most ~1 and whose vertex counts differ by at
// most ~1 on power-law graphs.
//
// The algorithm (the paper's Algorithm 2) runs in three phases:
//
//  1. Vertices with non-zero in-degree are placed in order of decreasing
//     in-degree, each onto the partition currently holding the fewest edges
//     (Graham's multiprocessor-scheduling heuristic). This bounds the final
//     edge imbalance by 1 when degree-1 vertices are abundant (Theorem 1).
//  2. Zero-in-degree vertices are placed onto the partition currently
//     holding the fewest vertices, correcting any vertex imbalance that
//     phase 1 introduced (Theorem 2).
//  3. Vertices are renumbered so each partition owns a contiguous ID range.
//
// The arg-min is served by an indexed min-heap, giving O(n log P) total
// time; the sort by degree is a counting sort, O(n + maxDegree).
//
// The package also implements the locality-preserving refinement of Section
// III-D: within each in-degree class, blocks of consecutively numbered
// original vertices are assigned to the same partition, preserving whatever
// spatial locality the input ordering carried without changing per-partition
// vertex or edge counts.
package core

import (
	"fmt"

	"repro/internal/graph"
)

// Options configures Reorder. The zero value selects the paper's recommended
// configuration (heap arg-min plus degree-block locality refinement).
type Options struct {
	// DisableLocalityBlocks turns off the Section III-D refinement and
	// renumbers in raw phase-1/2 placement order.
	DisableLocalityBlocks bool
	// LinearArgMin replaces the O(log P) heap with an O(P) linear scan.
	// Functionally identical; exists for the complexity ablation.
	LinearArgMin bool
}

// Result describes a VEBO ordering of a graph with n vertices into P
// partitions. Published results are shared across epochs by the dynamic
// maintenance layer (COW: repairs copy before permuting).
//
//vebo:frozen
type Result struct {
	P int
	// Perm maps old vertex ID to new vertex ID; it is a permutation of
	// [0, n).
	Perm []graph.VertexID
	// PartitionOf maps old vertex ID to its partition.
	PartitionOf []uint32
	// VertexCounts[p] is the number of vertices assigned to partition p
	// (the paper's u[p]).
	VertexCounts []int64
	// EdgeCounts[p] is the number of in-edges assigned to partition p (the
	// paper's w[p]).
	EdgeCounts []int64
	// SlotCounts[p], when non-nil, is the slot capacity of partition p in
	// the new ID space — VertexCounts[p] occupied positions followed by
	// reserved headroom for future admissions (see internal/dynamic). Nil
	// means the ordering is compact: every new ID in [0, n) is occupied and
	// Perm is a permutation. When set, Perm is an injection into
	// [0, Slots()) and unmapped new IDs are empty (zero-degree) rows.
	SlotCounts []int64
}

// EdgeImbalance returns Δ(n) = max_p EdgeCounts − min_p EdgeCounts.
func (r *Result) EdgeImbalance() int64 { return Spread(r.EdgeCounts) }

// VertexImbalance returns δ(n) = max_p VertexCounts − min_p VertexCounts.
func (r *Result) VertexImbalance() int64 { return Spread(r.VertexCounts) }

// Spread returns max(xs) − min(xs), the imbalance measure behind both Δ(n)
// and δ(n) (0 for an empty slice).
func Spread(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}

// CoarsenBounds merges fine partition boundaries (len nf+1) into p coarse
// ones by grouping consecutive fine partitions; merging balanced fine
// partitions groupwise keeps both vertex and edge balance. p is clamped to
// the fine partition count.
func CoarsenBounds(fine []int64, p int) []int64 {
	nf := len(fine) - 1
	if p > nf {
		p = nf
	}
	out := make([]int64, p+1)
	for i := 0; i <= p; i++ {
		out[i] = fine[i*nf/p]
	}
	out[p] = fine[nf]
	return out
}

// Boundaries returns the partition end points in the new ID space:
// partition p owns new IDs [bounds[p], bounds[p+1]). len = P+1. For slotted
// orderings the boundaries span the slot space (occupied prefix plus
// reserved headroom), so engines built over them cover every admissible ID.
func (r *Result) Boundaries() []int64 {
	counts := r.VertexCounts
	if r.SlotCounts != nil {
		counts = r.SlotCounts
	}
	b := make([]int64, r.P+1)
	for p := 0; p < r.P; p++ {
		b[p+1] = b[p] + counts[p]
	}
	return b
}

// Slots returns the size of the new ID space: the total slot capacity for
// slotted orderings, or the vertex count for compact ones.
func (r *Result) Slots() int64 {
	if r.SlotCounts == nil {
		var n int64
		for _, c := range r.VertexCounts {
			n += c
		}
		return n
	}
	var n int64
	for _, c := range r.SlotCounts {
		n += c
	}
	return n
}

// Reorder computes a VEBO ordering of g into p partitions, balancing the
// number of in-edges and the number of destination vertices per partition.
func Reorder(g *graph.Graph, p int, opts Options) (*Result, error) {
	if p <= 0 {
		return nil, fmt.Errorf("core: partition count must be positive, got %d", p)
	}
	return ReorderDegrees(g.InDegrees(), p, opts)
}

// ReorderDegrees computes a VEBO ordering directly from an in-degree array.
// It is the core of Reorder and is exposed so the theory tests can exercise
// synthetic degree sequences without materializing graphs.
func ReorderDegrees(degrees []int64, p int, opts Options) (*Result, error) {
	if p <= 0 {
		return nil, fmt.Errorf("core: partition count must be positive, got %d", p)
	}
	n := len(degrees)
	order := sortByDegreeDesc(degrees) // counting sort; stable by vertex ID

	r := &Result{
		P:            p,
		VertexCounts: make([]int64, p),
		EdgeCounts:   make([]int64, p),
	}

	// m = number of vertices with non-zero degree; order[:m] have deg > 0.
	m := 0
	for _, v := range order {
		if degrees[v] == 0 {
			break
		}
		m++
	}

	assign := make([]uint32, n)

	// Phase 1: place non-zero-degree vertices in decreasing degree order on
	// the partition with the fewest edges.
	edgeArgMin := newArgMin(p, opts.LinearArgMin)
	vertexLoad := make([]int64, p)
	for t := 0; t < m; t++ {
		v := order[t]
		pt := edgeArgMin.takeMin(degrees[v])
		assign[v] = uint32(pt)
		vertexLoad[pt]++
	}

	// Phase 2: place zero-degree vertices on the partition with the fewest
	// vertices.
	vertexArgMin := newArgMinWith(vertexLoad, opts.LinearArgMin)
	for t := m; t < n; t++ {
		v := order[t]
		pt := vertexArgMin.takeMin(1)
		assign[v] = uint32(pt)
	}
	for pt := 0; pt < p; pt++ {
		r.EdgeCounts[pt] = edgeArgMin.load(pt)
		r.VertexCounts[pt] = vertexArgMin.load(pt)
	}

	if !opts.DisableLocalityBlocks {
		// Section III-D refinement: per degree class, keep only the
		// per-partition quota from the greedy placement and hand out
		// vertices of that class in original-ID blocks. Per-partition
		// vertex and edge totals are unchanged because all vertices in a
		// class contribute the same degree.
		reassignInBlocks(degrees, order, assign, p)
	}

	// Phase 3, on the order already sorted.
	r.Perm = number(order, assign, r.VertexCounts)
	r.PartitionOf = assign
	return r, nil
}

// Number is Algorithm 2's phase 3: it renumbers the vertices so each
// partition owns a contiguous range of new IDs, in partition order, with its
// vertices in decreasing degree order (ascending ID on ties) at the start of
// the range. counts[p] is partition p's slot capacity and must be at least
// its occupancy: VertexCounts for a compact ordering (the result is then a
// permutation), occupancy plus reserved headroom for a slotted one (an
// injection whose unmapped new IDs are the headroom). It is the one
// numbering rule; the dynamic subsystem numbers every placement through it.
func Number(degrees []int64, partOf []uint32, counts []int64) []graph.VertexID {
	return number(sortByDegreeDesc(degrees), partOf, counts)
}

// number is Number over a vertex order already sorted by decreasing degree
// (stable by vertex ID).
func number(order []int, partOf []uint32, counts []int64) []graph.VertexID {
	next := make([]int64, len(counts))
	for p := 1; p < len(counts); p++ {
		next[p] = next[p-1] + counts[p-1]
	}
	perm := make([]graph.VertexID, len(order))
	for _, v := range order {
		p := partOf[v]
		perm[v] = graph.VertexID(next[p])
		next[p]++
	}
	return perm
}

// Apply relabels g with the ordering's permutation, returning the reordered
// (isomorphic) graph. For slotted orderings the result spans the slot space:
// reserved headroom positions become empty rows.
func Apply(g *graph.Graph, r *Result) (*graph.Graph, error) {
	return g.Relabel(int(r.Slots()), r.Perm)
}

// sortByDegreeDesc returns the vertex IDs sorted by decreasing degree using
// a stable counting sort (ties resolve to ascending vertex ID), in O(n +
// maxDegree) time.
func sortByDegreeDesc(degrees []int64) []int {
	n := len(degrees)
	var maxd int64
	for _, d := range degrees {
		if d > maxd {
			maxd = d
		}
	}
	counts := make([]int64, maxd+2)
	for _, d := range degrees {
		counts[maxd-d+1]++ // bucket 0 holds degree maxd
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	order := make([]int, n)
	for v := 0; v < n; v++ {
		b := maxd - degrees[v]
		order[counts[b]] = v
		counts[b]++
	}
	return order
}

// reassignInBlocks implements the degree-block locality refinement. For each
// degree class (scanned from high to low degree), it counts how many class
// members the greedy phases sent to each partition, then redistributes the
// class members — which arrive in ascending original-ID order, thanks to the
// stable sort — as contiguous blocks satisfying those quotas.
func reassignInBlocks(degrees []int64, order []int, assign []uint32, p int) {
	n := len(order)
	quota := make([]int64, p)
	for start := 0; start < n; {
		d := degrees[order[start]]
		end := start
		for end < n && degrees[order[end]] == d {
			end++
		}
		for i := range quota {
			quota[i] = 0
		}
		for t := start; t < end; t++ {
			quota[assign[order[t]]]++
		}
		t := start
		for pt := 0; pt < p; pt++ {
			for k := int64(0); k < quota[pt]; k++ {
				assign[order[t]] = uint32(pt)
				t++
			}
		}
		start = end
	}
}

// argMin abstracts the phase-1/2 arg-min structure so the heap and linear
// implementations can be ablated against each other.
type argMin interface {
	// takeMin returns the index with the least load (ties to the lowest
	// index) and adds delta to its load.
	takeMin(delta int64) int
	load(i int) int64
}

func newArgMin(p int, linear bool) argMin {
	return newArgMinWith(make([]int64, p), linear)
}

func newArgMinWith(initial []int64, linear bool) argMin {
	if linear {
		la := &linearArgMin{loads: make([]int64, len(initial))}
		copy(la.loads, initial)
		return la
	}
	h := newPartitionHeap(len(initial))
	copy(h.keys, initial)
	// Initial loads may be arbitrary; heapify.
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return (*heapArgMin)(h)
}

type heapArgMin partitionHeap

func (h *heapArgMin) takeMin(delta int64) int {
	return (*partitionHeap)(h).addToMin(delta)
}

func (h *heapArgMin) load(i int) int64 { return (*partitionHeap)(h).key(i) }

type linearArgMin struct{ loads []int64 }

func (l *linearArgMin) takeMin(delta int64) int {
	best := 0
	for i := 1; i < len(l.loads); i++ {
		if l.loads[i] < l.loads[best] {
			best = i
		}
	}
	l.loads[best] += delta
	return best
}

func (l *linearArgMin) load(i int) int64 { return l.loads[i] }
