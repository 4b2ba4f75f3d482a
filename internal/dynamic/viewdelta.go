package dynamic

import "repro/internal/graph"

// ViewDelta describes everything that changed between a basis view and a
// later one of the same graph. The facade derives it from the two views
// alone — Frozen.Since for the edges, the two orderings for the rest — and
// uses it to patch engine-side structures instead of rebuilding them; the
// exact set of dirty partitions is derived from the delta's destination
// endpoints plus the moved and admitted positions.
type ViewDelta struct {
	// Adds and Dels are the net edge changes, sorted by (Src, Dst, Weight)
	// with multiplicities unrolled: original-ID endpoints, normalized
	// weights. The slices are shared; callers copy before rewriting them.
	Adds, Dels []graph.Edge
	// Moved holds, sorted, the pre-existing vertices (IDs below the basis
	// vertex count) whose new ID differs between the two orderings:
	// repositioned by placement-preserving swaps, which move vertices
	// within a closed set of positions and leave the partition segment
	// boundaries alone. Nil when PlacementChanged.
	Moved []graph.VertexID
	// PlacementChanged reports whether the whole numbering was invalidated
	// in between (full rebuild or relabeling spill): the renumbering epochs
	// differ.
	PlacementChanged bool
	// Grown is the number of vertices admitted in between. Internal IDs are
	// append-only, so they are exactly the IDs in [n − Grown, n) of the
	// later view's space; within a numbering lineage they fill reserved
	// headroom slots and every pre-existing vertex keeps its new ID.
	Grown int64
}

// MovedBetween returns, sorted, the vertices w < len(base) whose position
// differs between the permutations base and cur of one numbering lineage.
// Orderings sharing their backing array are equal on that prefix — repairs
// copy the permutation on write and admissions only append — so that check
// answers in O(1); otherwise the prefixes are compared in O(n).
func MovedBetween(base, cur []graph.VertexID) []graph.VertexID {
	if len(base) == 0 || &base[0] == &cur[0] {
		return nil
	}
	var moved []graph.VertexID
	for w, s := range base {
		if cur[w] != s {
			moved = append(moved, graph.VertexID(w))
		}
	}
	return moved
}
