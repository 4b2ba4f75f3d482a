package dynamic

import "repro/internal/core"

// number renumbers the current placement through core.Number, the one
// numbering rule (Algorithm 2's phase 3). It runs at every placement change
// after New (whose compact ordering core.Reorder numbered) — a full
// rebuild, a relabeling spill — so the permutation is never stale. Swap
// repairs permute it copy-on-write themselves and Grow extends it in place,
// so between renumbering events the new IDs of unmoved vertices never
// change. A slotted ordering follows each partition's segment with reserved
// headroom slots (see headroom) that future admissions fill without
// renumbering anything; it is slotted from the first Grow on, and compact
// before, so non-growing workloads see exact permutations.
func (d *Graph) number(slotted bool) {
	counts := d.partVerts
	d.slotBase = nil
	if slotted {
		counts = make([]int64, len(d.partVerts))
		d.slotBase = make([]int64, len(d.partVerts)+1)
		for q, occ := range d.partVerts {
			counts[q] = occ + headroom(occ)
			d.slotBase[q+1] = d.slotBase[q] + counts[q]
		}
	}
	d.ordPerm = core.Number(d.degIn, d.assign, counts)
}

// Ordering returns the current placement as a core.Result: the permutation
// renumbers vertices so each partition owns a contiguous new-ID range, with
// vertices in decreasing degree order (as of the last renumbering event)
// inside it, as Algorithm 2's phase 3 does. The permutation is renumbered
// only when the placement changes (full rebuild or relabeling spill); swap
// repairs permute it copy-on-write at exactly the swapped positions, and
// degree-only epochs keep the exact numbering — which is what lets
// engine-side structures of unchanged partitions be reused — while the
// returned per-partition counts are always current. Once the vertex space
// has grown, the result is slotted (SlotCounts non-nil): each segment
// carries reserved headroom slots after its occupied prefix, the
// permutation is an injection into the slot space, and admissions fill
// slots without renumbering anyone. The Perm and PartitionOf slices are
// shared and immutable; callers must not modify them.
func (d *Graph) Ordering() *core.Result {
	return &core.Result{
		P:            d.cfg.Partitions,
		Perm:         d.ordPerm,
		PartitionOf:  d.assign,
		VertexCounts: d.VertexCounts(),
		EdgeCounts:   d.EdgeCounts(),
		SlotCounts:   d.SlotCounts(),
	}
}

// SlotCounts returns the per-partition slot capacities of the slotted
// ordering (occupied plus reserved headroom), or nil while the ordering is
// compact.
func (d *Graph) SlotCounts() []int64 {
	if d.slotBase == nil {
		return nil
	}
	counts := make([]int64, len(d.slotBase)-1)
	for q := range counts {
		counts[q] = d.slotBase[q+1] - d.slotBase[q]
	}
	return counts
}

// Headroom reports the admission headroom of the slotted ordering: free
// reserved slots and total slot capacity, summed over partitions. Both are
// zero while the ordering is compact (no Grow yet).
func (d *Graph) Headroom() (free, capacity int64) {
	if d.slotBase == nil {
		return 0, 0
	}
	capacity = d.slotBase[len(d.slotBase)-1]
	return capacity - int64(d.n), capacity
}
