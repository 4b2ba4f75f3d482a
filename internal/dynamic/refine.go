package dynamic

import (
	"slices"

	"repro/internal/graph"
)

// RefinePlan is the lineage delta of a view, reshaped for result refinement
// (View.Refine*, DESIGN.md §5d): explicit insertion/deletion lists with
// multiplicities unrolled, the net out-degree change per source (PageRank's
// contribution terms depend on source degrees), the repositioned vertices,
// and the admission count. Everything is in original-ID space — the space
// algorithm results live in — which is why a plan derived from a ViewDelta
// stays applicable even across full renumbering epochs: internal IDs are
// append-only, so a basis result array indexed by original ID is a valid
// seed no matter how the placement moved underneath.
type RefinePlan struct {
	// Adds and Dels are the net edge changes between the basis and the view,
	// multiplicities unrolled, original-ID endpoints, normalized weights.
	Adds, Dels []graph.Edge
	// OutDegDelta maps each source with any changed out-edge to its net
	// out-degree change (may be zero when insertions and deletions balance:
	// the degree is unchanged but the edge set is not).
	OutDegDelta map[graph.VertexID]int64
	// Moved holds the vertices repositioned by placement-preserving repairs,
	// sorted. Their results are untouched by the move (original-ID space),
	// but refinement seeds them into the repair frontier conservatively.
	Moved []graph.VertexID
	// Grown counts the vertices admitted since the basis; they occupy the
	// tail of the view's original-ID space.
	Grown int64
}

// Empty reports whether the plan carries no change at all, in which case the
// basis result is the view's result verbatim.
func (p RefinePlan) Empty() bool {
	return len(p.Adds) == 0 && len(p.Dels) == 0 && len(p.Moved) == 0 && p.Grown == 0
}

// Touched returns the number of distinct endpoints the edge delta touches —
// the input to the scratch-fallback gate (a delta touching a large fraction
// of the graph refines slower than a cold start).
func (p RefinePlan) Touched() int {
	ends := make([]graph.VertexID, 0, 2*(len(p.Adds)+len(p.Dels)))
	for _, es := range [][]graph.Edge{p.Adds, p.Dels} {
		for _, e := range es {
			ends = append(ends, e.Src, e.Dst)
		}
	}
	slices.Sort(ends)
	return len(slices.Compact(ends))
}

// DeriveRefinePlan reshapes a view's lineage delta into a refinement plan.
// The delta's edge lists are exact over the basis→view span (Frozen.Since
// nets the logs between the two captures), so the plan is too. Adds and
// Dels are copies the caller may rewrite in place.
func DeriveRefinePlan(vd ViewDelta) RefinePlan {
	p := RefinePlan{
		Adds:  slices.Clone(vd.Adds),
		Dels:  slices.Clone(vd.Dels),
		Moved: vd.Moved,
		Grown: vd.Grown,
	}
	if len(vd.Adds)+len(vd.Dels) > 0 {
		p.OutDegDelta = make(map[graph.VertexID]int64)
	}
	for _, e := range vd.Adds {
		p.OutDegDelta[e.Src]++
	}
	for _, e := range vd.Dels {
		p.OutDegDelta[e.Src]--
	}
	return p
}
