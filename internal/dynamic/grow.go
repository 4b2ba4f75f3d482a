package dynamic

import (
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// headroom returns the number of reserved tail slots for a segment holding
// occ vertices: an eighth of its occupancy, at least 4 — vector-doubling
// amortization, paid once per relabeling epoch for proportionally many
// admissions.
func headroom(occ int64) int64 { return max(4, occ/8) }

// Grow admits count new zero-degree vertices, returning the first new
// internal ID (they are assigned densely: first, first+1, …). Each admitted
// vertex goes to the partition holding the fewest vertices among those with
// free headroom — Algorithm 1's least-loaded-bin rule applied incrementally,
// the same rule phase 2 uses for zero-degree vertices — and fills the next
// reserved slot at that partition's segment tail. The first Grow in a
// numbering lineage converts the ordering to slotted form (a
// relabeling epoch that reserves max(4, occupied/8) free slots at every
// segment tail; see headroom); after that, admissions
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
	if d.slotBase == nil {
		// First growth in this lineage: the ordering is compact and has no
		// reserved slots. Relabel into slotted form.
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
		d.assign = append(d.assign, uint32(q))
		d.degIn = append(d.degIn, 0)
		d.markStale(graph.VertexID(d.n))
		d.partVerts[q]++
		d.n++
	}
	d.m.placements.Add(int64(count))
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
// edge load. Returns -1 when every partition's headroom is exhausted.
func (d *Graph) admitTarget() int {
	best := -1
	for q := range d.partVerts {
		if d.partVerts[q] >= d.slotBase[q+1]-d.slotBase[q] {
			continue
		}
		if best < 0 || d.partVerts[q] < d.partVerts[best] ||
			(d.partVerts[q] == d.partVerts[best] && d.partEdges[q] < d.partEdges[best]) {
			best = q
		}
	}
	return best
}

// spillRelabel renumbers the placement into freshly slotted form through a
// relabeling epoch: the numbering lineage breaks (RenumEpoch), and the new
// ordering reserves headroom at every segment tail, guaranteeing
// admitTarget succeeds. Called on the first growth of a lineage and on
// headroom exhaustion; only the latter counts as a spill.
func (d *Graph) spillRelabel() {
	spill := d.slotBase != nil
	if spill {
		d.m.headroomSpills.Inc()
	}
	sstart := time.Now()
	d.renumEpoch++
	d.number(true)
	d.sp.Record(obs.Span{
		Parent: d.curBatch.Context().ID, Name: "spill", Kind: "maintain",
		Cause: map[bool]string{true: "headroom-exhausted", false: "first-growth"}[spill],
		Epoch: d.epoch, Start: sstart, Dur: time.Since(sstart),
	})
}
