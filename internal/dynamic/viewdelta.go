package dynamic

import (
	"slices"

	"repro/internal/graph"
)

// SlotGraph is a capture's live multiset in the slot space of one
// ordering: G is capture At relabeled by Perm (original ID → slot), an
// ordering of renumbering epoch Renum. A view's relabeled graph and a
// generation's compaction base are slot graphs, and each is derived from
// an earlier one of its generation the one way: ChangeSince, then
// G.Patch(slots, delta). Owner is the reader-side
// value that derived G (the facade's view), nil for a base.
//
// A reader may register a slot graph it reads without deriving G (nil):
// Anc then names its derived ancestor, the newest derived slot graph its
// rows are read through, with the same slot count and renumbering epoch.
// A derivation from such an entry starts at Anc (Derived).
type SlotGraph struct {
	G     *graph.Graph
	At    Frozen
	Perm  []graph.VertexID
	Renum int64
	Owner any
	Anc   *SlotGraph
}

// Derived returns the slot graph a derivation from s starts at: s itself
// when it holds a graph, else its derived ancestor.
func (s *SlotGraph) Derived() *SlotGraph {
	if s.G != nil {
		return s
	}
	return s.Anc
}

// ChangeSince returns the delta from slot graph b to capture f under the
// ordering perm of renumbering epoch renum; ok is false when b's capture
// is of another generation or was taken after f.
//
// Within a numbering lineage the slot space is fixed: admissions fill
// reserved headroom slots, so an admitted slot has no basis preimage (its
// content arrives as adds), and only swap repairs move vertices, so Seg is
// the identity outside the moved vertices' positions. A basis hole is an
// empty row: when a swap pairs a vertex admitted into it with a basis
// vertex, the basis vertex takes the hole's slot and the hole has no image
// left. Across a break every basis vertex maps through both orderings and
// every hole to NoVertex. Internal IDs are append-only, so the admitted
// vertices are those past b's permutation.
func (f Frozen) ChangeSince(b SlotGraph, perm []graph.VertexID, renum int64) (d graph.Delta, ok bool) {
	adds, dels, ok := f.Since(b.At)
	if !ok {
		return d, false
	}
	d.Adds, d.Dels, d.Broken = relabel(adds, perm), relabel(dels, perm), renum != b.Renum
	d.Grown = slices.Clip(perm[len(b.Perm):])
	var movers []graph.VertexID
	if !d.Broken {
		if movers = movedBetween(b.Perm, perm); len(movers) == 0 {
			return d, true
		}
	}
	d.Seg = make([]graph.VertexID, b.Derived().G.NumVertices())
	if d.Broken {
		for s := range d.Seg {
			d.Seg[s] = graph.NoVertex
		}
		for w, s := range b.Perm {
			d.Seg[s] = perm[w]
		}
		return d, true
	}
	for s := range d.Seg {
		d.Seg[s] = graph.VertexID(s)
	}
	d.Moved = make([]graph.VertexID, len(movers))
	for i, w := range movers {
		d.Seg[b.Perm[w]], d.Moved[i] = perm[w], b.Perm[w]
	}
	slices.Sort(d.Moved)
	// A basis vertex at a mover's new slot moved too, so a slot there still
	// mapping to itself held no basis vertex: it was a hole.
	for _, w := range movers {
		if t := perm[w]; d.Seg[t] == t {
			d.Seg[t] = graph.NoVertex
		}
	}
	return d, true
}

// relabel maps a delta edge list's endpoints through a permutation, in
// place. Frozen.Since allocates its lists for the caller, so rewriting them
// leaves the captures' logs untouched.
func relabel(edges []graph.Edge, perm []graph.VertexID) []graph.Edge {
	for i := range edges {
		edges[i].Src, edges[i].Dst = perm[edges[i].Src], perm[edges[i].Dst]
	}
	return edges
}

// movedBetween returns, sorted, the vertices w < len(base) whose position
// differs between the permutations base and cur of one numbering lineage.
// Orderings sharing their backing array are equal on that prefix — repairs
// copy the permutation on write and admissions only append — so that check
// answers in O(1); otherwise the prefixes are compared in O(n).
func movedBetween(base, cur []graph.VertexID) []graph.VertexID {
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
