package dynamic

import (
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// headroom returns the number of reserved tail slots for a segment holding
// occ vertices: max(MinHeadroom, HeadroomFrac·occ).
func (c Config) headroom(occ int64) int64 {
	h := int64(float64(occ) * c.HeadroomFrac)
	if h < c.MinHeadroom {
		h = c.MinHeadroom
	}
	return h
}

// Grow admits count new zero-degree vertices, returning the first new
// internal ID (they are assigned densely: first, first+1, …). Each admitted
// vertex goes to the partition holding the fewest vertices among those with
// free headroom — Algorithm 1's least-loaded-bin rule applied incrementally,
// the same rule phase 2 uses for zero-degree vertices — and fills the next
// reserved slot at that partition's segment tail. The first Grow in a
// numbering lineage converts the cached ordering to slotted form (a
// relabeling epoch that reserves max(MinHeadroom, HeadroomFrac·occupied)
// free slots at every segment tail; see Config); after that, admissions
// extend the ordering in place — no copy, no shift of later segments — so
// pre-existing vertices keep their exact new IDs, the old→new injection
// across a growth epoch is the identity, and engine-side patching is
// O(delta). Only when every partition's headroom is exhausted does Grow
// spill to another relabeling epoch (Stats.HeadroomSpills,
// vebo_headroom_spill_total), which reserves fresh headroom everywhere —
// amortized O(1) per admission, vector-doubling style.
func (d *Graph) Grow(count int) graph.VertexID {
	first := graph.VertexID(d.n)
	if count <= 0 {
		return first
	}
	gstart := time.Now()
	d.growing = true
	d.ensureOrdering()
	if d.segCap == nil {
		// First growth in this lineage: the cached ordering predates growing
		// and has no reserved slots. Relabel into slotted form.
		d.spillRelabel()
	}
	spills := int64(0)
	for i := 0; i < count; i++ {
		q := d.admitTarget()
		if q < 0 {
			d.spillRelabel()
			spills++
			q = d.admitTarget()
		}
		// The admission occupies the next free slot of q's segment: appends
		// only, never a rewrite of an occupied position, so readers sharing
		// the published slices (bounded by their own lengths) are unaffected.
		slot := graph.VertexID(d.slotBase[q] + d.partVerts[q])
		d.ordPerm = append(d.ordPerm, slot)
		d.ordPartOf = append(d.ordPartOf, uint32(q))
		d.assign = append(d.assign, uint32(q))
		d.degIn = append(d.degIn, 0)
		if d.members != nil {
			d.members[q] = append(d.members[q], graph.VertexID(d.n))
		}
		d.partVerts[q]++
		d.n++
	}
	d.placeEpoch++
	d.ordPlace = d.placeEpoch
	d.stats.Admitted += int64(count)
	d.stats.Placements += int64(count)
	// A headroom admission appends a zero-degree vertex with the largest ID
	// at its segment's occupied tail, which is exactly where the
	// degree-descending (ID-ascending on ties) order wants it.
	d.touch()
	cause := "growth-headroom"
	if spills > 0 {
		cause = "growth-spill"
	}
	free, _ := d.Headroom()
	d.m.admitted.Add(int64(count))
	d.m.growNS.ObserveSince(gstart)
	d.sp.Record(obs.Span{
		Parent: d.curBatch.Context().ID, Name: "grow", Kind: "maintain",
		Cause: cause, Epoch: d.epoch, Start: gstart, Dur: time.Since(gstart),
		Attrs: map[string]int64{"admitted": int64(count), "vertices": int64(d.n),
			"spills": spills, "headroom_free": free},
	})
	d.syncGauges()
	return first
}

// admitTarget returns the partition the next admission should fill: the
// fewest-vertices partition among those with free headroom, ties broken by
// edge load. Returns -1 when every partition's headroom is exhausted (or the
// ordering is not slotted yet).
func (d *Graph) admitTarget() int {
	if d.segCap == nil {
		return -1
	}
	best := -1
	for q := range d.partVerts {
		if d.partVerts[q] >= d.segCap[q] {
			continue
		}
		if best < 0 || d.partVerts[q] < d.partVerts[best] ||
			(d.partVerts[q] == d.partVerts[best] && d.partEdges[q] < d.partEdges[best]) {
			best = q
		}
	}
	return best
}

// spillRelabel converts the ordering to freshly slotted form through a
// relabeling epoch: the numbering lineage breaks (placementChanged), and the
// rebuilt ordering reserves headroom at every segment tail, guaranteeing
// admitTarget succeeds. Called on the first growth of a lineage and on
// headroom exhaustion; only the latter counts as a spill.
func (d *Graph) spillRelabel() {
	spill := d.segCap != nil
	if spill {
		d.stats.HeadroomSpills++
		d.m.headroomSpills.Inc()
	}
	sstart := time.Now()
	d.placementChanged()
	d.ensureOrdering()
	d.sp.Record(obs.Span{
		Parent: d.curBatch.Context().ID, Name: "spill", Kind: "maintain",
		Cause: map[bool]string{true: "headroom-exhausted", false: "first-growth"}[spill],
		Epoch: d.epoch, Start: sstart, Dur: time.Since(sstart),
	})
}

// Headroom reports the admission headroom of the cached slotted ordering:
// free reserved slots and total slot capacity, summed over partitions. Both
// are zero while the ordering is compact (no Grow yet) or stale (a
// renumbering is pending and the next ensureOrdering re-reserves).
func (d *Graph) Headroom() (free, capacity int64) {
	if d.segCap == nil || d.ordPlace != d.placeEpoch {
		return 0, 0
	}
	for q, c := range d.segCap {
		capacity += c
		free += c - d.partVerts[q]
	}
	return free, capacity
}

// SlotCounts returns a copy of the per-partition slot capacities of the
// cached slotted ordering (occupied plus reserved headroom), or nil while
// the ordering is compact.
func (d *Graph) SlotCounts() []int64 {
	if d.segCap == nil {
		return nil
	}
	return append([]int64(nil), d.segCap...)
}
