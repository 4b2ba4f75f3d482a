package dynamic

import (
	"maps"
	"slices"

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
	d.viewNet = make(map[graph.Edge]int64)
	d.viewMoved = make(map[graph.VertexID]struct{})
	d.viewGrow = nil
	d.viewPlace = false
	return vd
}

// Fold folds another window's delta into vd in place: sign +1 appends a
// later window, −1 removes a prefix window folded in earlier. Net and Grown
// add exactly (zero Net entries are dropped). Moved becomes the union either
// way — after a removal that over-approximates, and the caller trims entries
// whose positions agree. It stays the union across a renumbering
// (PlacementChanged) too: a later re-anchor onto a view published after the
// renumbering clears the flag again and must still see the moves that
// landed after it to trim against. PlacementChanged is or-ed on +1 and left
// for the caller to set from renumbering epochs on −1. vd must own its maps
// and Grown slice (a Clone, or a fold started from the zero value); other is
// not mutated.
func (vd *ViewDelta) Fold(other ViewDelta, sign int64) {
	if len(other.Net) > 0 && vd.Net == nil {
		vd.Net = make(map[graph.Edge]int64, len(other.Net))
	}
	for e, c := range other.Net {
		now := vd.Net[e] + sign*c
		if now == 0 {
			delete(vd.Net, e)
		} else {
			vd.Net[e] = now
		}
	}
	if len(other.Moved) > 0 && vd.Moved == nil {
		vd.Moved = make(map[graph.VertexID]struct{}, len(other.Moved))
	}
	for v := range other.Moved {
		vd.Moved[v] = struct{}{}
	}
	vd.Grown = addGrown(vd.Grown, other.Grown, sign)
	if sign > 0 {
		vd.PlacementChanged = vd.PlacementChanged || other.PlacementChanged
	}
}

// Clone returns a copy of vd that shares no map or slice with it.
func (vd ViewDelta) Clone() ViewDelta {
	vd.Net = maps.Clone(vd.Net)
	vd.Moved = maps.Clone(vd.Moved)
	vd.Grown = slices.Clone(vd.Grown)
	return vd
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
