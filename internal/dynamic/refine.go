package dynamic

import (
	"sort"

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
	// GrownTotal counts the vertices admitted in the delta's window; they
	// occupy the tail of the view's original-ID space.
	GrownTotal int64
}

// Empty reports whether the plan carries no change at all, in which case the
// basis result is the view's result verbatim.
func (p RefinePlan) Empty() bool {
	return len(p.Adds) == 0 && len(p.Dels) == 0 && len(p.Moved) == 0 && p.GrownTotal == 0
}

// Touched returns the number of distinct endpoints the edge delta touches —
// the input to the scratch-fallback gate (a delta touching a large fraction
// of the graph refines slower than a cold start).
func (p RefinePlan) Touched() int {
	seen := make(map[graph.VertexID]struct{}, 2*(len(p.Adds)+len(p.Dels)))
	for _, e := range p.Adds {
		seen[e.Src] = struct{}{}
		seen[e.Dst] = struct{}{}
	}
	for _, e := range p.Dels {
		seen[e.Src] = struct{}{}
		seen[e.Dst] = struct{}{}
	}
	return len(seen)
}

// DeriveRefinePlan reshapes a view's lineage delta into a refinement plan.
// The delta's Net map is exact over the basis→view window (Fold keeps the
// edge multiset exact through re-anchoring), so the plan is too.
func DeriveRefinePlan(vd ViewDelta) RefinePlan {
	p := RefinePlan{GrownTotal: vd.GrownTotal()}
	if len(vd.Net) > 0 {
		p.OutDegDelta = make(map[graph.VertexID]int64, len(vd.Net))
	}
	for e, c := range vd.Net {
		if c == 0 {
			continue
		}
		p.OutDegDelta[e.Src] += c
		for i := c; i > 0; i-- {
			p.Adds = append(p.Adds, e)
		}
		for i := c; i < 0; i++ {
			p.Dels = append(p.Dels, e)
		}
	}
	if len(vd.Moved) > 0 {
		p.Moved = make([]graph.VertexID, 0, len(vd.Moved))
		for w := range vd.Moved {
			p.Moved = append(p.Moved, w)
		}
		sort.Slice(p.Moved, func(i, j int) bool { return p.Moved[i] < p.Moved[j] })
	}
	return p
}
