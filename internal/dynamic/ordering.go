package dynamic

import (
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// ensureOrdering makes the cached permutation current. The full
// (partition, degree desc, ID) sort runs only when the numbering lineage
// broke (initial call, full rebuild, relabeling spill);
// swap repairs update the cached permutation copy-on-write themselves, and
// Grow extends it in place, so between renumbering events the new IDs of
// unmoved vertices never change. Once the vertex space has started growing,
// the sort produces a slotted ordering: each partition's segment is followed
// by reserved headroom slots (Config.headroom) that future admissions fill
// without renumbering anything; before the first Grow the ordering stays
// compact, so non-growing workloads see exact permutations.
func (d *Graph) ensureOrdering() {
	if d.ordPerm != nil {
		return
	}
	order := make([]int, d.n)
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if d.assign[a] != d.assign[b] {
			return d.assign[a] < d.assign[b]
		}
		if d.degIn[a] != d.degIn[b] {
			return d.degIn[a] > d.degIn[b]
		}
		return a < b
	})
	perm := make([]graph.VertexID, d.n)
	if d.growing {
		p := d.cfg.Partitions
		d.segCap = make([]int64, p)
		d.slotBase = make([]int64, p+1)
		for q := 0; q < p; q++ {
			d.segCap[q] = d.partVerts[q] + d.cfg.headroom(d.partVerts[q])
			d.slotBase[q+1] = d.slotBase[q] + d.segCap[q]
		}
		next := append([]int64(nil), d.slotBase[:p]...)
		// order is sorted by partition first, so assigning sequentially from
		// each partition's slot base keeps the occupied positions a
		// contiguous prefix of every segment.
		for _, v := range order {
			q := d.assign[v]
			perm[v] = graph.VertexID(next[q])
			next[q]++
		}
	} else {
		d.segCap, d.slotBase = nil, nil
		for newID, v := range order {
			perm[v] = graph.VertexID(newID)
		}
	}
	d.ordPerm = perm
}

// Ordering returns the current placement as a core.Result: the permutation
// renumbers vertices so each partition owns a contiguous new-ID range, with
// vertices in decreasing degree order (as of the last renumbering event)
// inside it, as Algorithm 2's phase 3 does. The permutation is recomputed
// only when the numbering lineage breaks (full rebuild or relabeling
// spill); swap repairs permute it copy-on-write at exactly the swapped
// positions, and degree-only epochs keep the exact numbering — which is
// what lets engine-side structures of unchanged partitions be reused —
// while the returned per-partition counts are always current. Once the
// vertex space has grown, the result is slotted (SlotCounts non-nil): each
// segment carries reserved headroom slots after its occupied prefix, the
// permutation is an injection into the slot space, and admissions fill
// slots without renumbering anyone. The Perm and PartitionOf slices are
// shared and immutable; callers must not modify them.
func (d *Graph) Ordering() *core.Result {
	d.ensureOrdering()
	return &core.Result{
		P:            d.cfg.Partitions,
		Perm:         d.ordPerm,
		PartitionOf:  d.assign,
		VertexCounts: d.VertexCounts(),
		EdgeCounts:   d.EdgeCounts(),
		SlotCounts:   d.SlotCounts(),
	}
}
