package dynamic

import (
	"repro/internal/graph"
)

// noteChange accumulates the view delta for one resolved edge change.
func (d *Graph) noteChange(e graph.Edge, sign int64) {
	d.viewNet[e] += sign
	if d.viewNet[e] == 0 {
		delete(d.viewNet, e)
	}
}

// ViewDelta describes everything that changed between two drains: the net
// resolved edge changes and whether the placement moved. The facade
// publishes one view per drain and uses the delta to patch engine-side
// structures instead of rebuilding them; the exact set of dirty partitions
// is derived from the delta's destination endpoints.
type ViewDelta struct {
	// Net maps an edge triple (Src, Dst, normalized Weight) to its net
	// multiplicity change since the last drain. Entries are never zero.
	Net map[graph.Edge]int64
	// Moved holds the original-ID vertices repositioned by
	// placement-preserving swaps, rotations and re-sorts since the last
	// drain: their
	// partition and new ID changed, but the partition segment boundaries
	// did not, and every vertex outside the set kept its exact new ID. The
	// set may over-approximate after window arithmetic (an entry whose
	// endpoint positions turn out equal is harmless — its segment
	// permutation entry is the identity).
	Moved map[graph.VertexID]struct{}
	// PlacementChanged reports whether the whole numbering was invalidated
	// since the last drain (full rebuild or relabeling spill); swap repairs
	// and re-sorts set Moved instead.
	PlacementChanged bool
	// Grown is the per-partition count of vertices admitted since the last
	// drain (nil when none): partition p absorbed Grown[p] admissions into
	// its reserved headroom slots, leaving every pre-existing vertex's new
	// ID unchanged — the cross-epoch injection is the identity on the old
	// vertices. Internal IDs are append-only, so the admitted vertices are
	// exactly the IDs in [n − GrownTotal(), n) of the drained epoch's
	// space; their new IDs are scattered per-partition tail slots, not a
	// contiguous range. A spill (headroom exhaustion) renumbers instead and
	// sets PlacementChanged.
	Grown []int64
	// Updates counts the net edge changes covered by this delta.
	Updates int64
}

// GrownTotal returns the number of vertices admitted in the delta's window.
func (vd ViewDelta) GrownTotal() int64 {
	var t int64
	for _, c := range vd.Grown {
		t += c
	}
	return t
}

// addGrown adds sign×b into a elementwise, allocating on first use; a nil
// result stands for the zero vector.
func addGrown(a, b []int64, sign int64) []int64 {
	if len(b) == 0 {
		return a
	}
	if a == nil {
		a = make([]int64, len(b))
	}
	for p, c := range b {
		a[p] += sign * c
	}
	return a
}

// DrainViewDelta returns the accumulated delta and resets the accumulators.
// Single-writer: call only from the goroutine that applies batches.
func (d *Graph) DrainViewDelta() ViewDelta {
	vd := ViewDelta{
		Net:              d.viewNet,
		Moved:            d.viewMoved,
		PlacementChanged: d.viewPlace,
		Grown:            d.viewGrow,
	}
	for _, c := range vd.Net {
		if c > 0 {
			vd.Updates += c
		} else {
			vd.Updates -= c
		}
	}
	d.viewNet = make(map[graph.Edge]int64)
	d.viewMoved = make(map[graph.VertexID]struct{})
	d.viewGrow = nil
	d.viewPlace = false
	return vd
}

// mergeMoved unions two moved sets; a nil result stands for the empty set.
func mergeMoved(a, b map[graph.VertexID]struct{}) map[graph.VertexID]struct{} {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(map[graph.VertexID]struct{}, len(a)+len(b))
	for v := range a {
		out[v] = struct{}{}
	}
	for v := range b {
		out[v] = struct{}{}
	}
	return out
}

// Merge combines vd (earlier) with later into a fresh delta covering both
// windows. Moved is the union even when the combined window contains a
// renumbering (PlacementChanged): a later re-anchor onto a view published
// after the rebuild clears PlacementChanged again, and the swaps that
// landed after the rebuild must still be there for it to trim against —
// dropping them would leave the delta claiming an identity permutation
// across a real move. Neither input is mutated.
func (vd ViewDelta) Merge(later ViewDelta) ViewDelta {
	out := ViewDelta{
		Net:              make(map[graph.Edge]int64, len(vd.Net)+len(later.Net)),
		Moved:            mergeMoved(vd.Moved, later.Moved),
		PlacementChanged: vd.PlacementChanged || later.PlacementChanged,
		Grown:            addGrown(addGrown(nil, vd.Grown, 1), later.Grown, 1),
		Updates:          vd.Updates + later.Updates,
	}
	for e, c := range vd.Net {
		out.Net[e] = c
	}
	for e, c := range later.Net {
		out.Net[e] += c
		if out.Net[e] == 0 {
			delete(out.Net, e)
		}
	}
	return out
}

// Subtract returns the delta covering this delta's window minus a prefix of
// it: Net is the exact multiset difference; Moved is the union of both
// windows' sets (a safe over-approximation — the caller can trim entries
// whose endpoint positions agree); PlacementChanged is left for the caller
// to set from renumbering epochs. Neither input is mutated.
func (vd ViewDelta) Subtract(prefix ViewDelta) ViewDelta {
	out := ViewDelta{
		Net:   make(map[graph.Edge]int64, len(vd.Net)),
		Moved: mergeMoved(vd.Moved, prefix.Moved),
		// Admissions are cumulative and prefix-closed: the prefix's
		// admissions are a per-partition prefix of this window's.
		Grown: addGrown(addGrown(nil, vd.Grown, 1), prefix.Grown, -1),
	}
	for e, c := range vd.Net {
		out.Net[e] = c
	}
	for e, c := range prefix.Net {
		out.Net[e] -= c
		if out.Net[e] == 0 {
			delete(out.Net, e)
		}
	}
	for _, c := range out.Net {
		if c > 0 {
			out.Updates += c
		} else {
			out.Updates -= c
		}
	}
	return out
}

// AddsDels expands the net delta into explicit insertion and deletion lists
// (multiplicities unrolled).
func (vd ViewDelta) AddsDels() (adds, dels []graph.Edge) {
	for e, c := range vd.Net {
		for ; c > 0; c-- {
			adds = append(adds, e)
		}
		for ; c < 0; c++ {
			dels = append(dels, e)
		}
	}
	return adds, dels
}
