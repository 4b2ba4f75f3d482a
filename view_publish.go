package vebo

import (
	"slices"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/obs"
)

// buildView assembles the next epoch's View. It is the type's one builder
// (frozenwrite enforces that): the returned value is fully initialized
// before publish stores it, and nothing mutates it afterwards outside the
// once-guarded lazy caches.
func (d *Dynamic) buildView(basis *View, pub obs.SpanContext) *View {
	v := &View{
		epoch:      d.inner.Epoch(),
		renumEpoch: d.inner.RenumEpoch(),
		nverts:     d.inner.NumVertices(),
		parts:      d.inner.Partitions(),
		ord:        d.inner.Ordering(),
		frozen:     d.inner.Freeze(),
		opts:       d.engOpts,
		d:          d,
		work:       d.work,
		ref:        newRefineCache(),
		published:  time.Now(),
		pubSpan:    pub,
	}
	if alloc := d.alloc.Load(); alloc != nil {
		v.exts = alloc.Externals(v.nverts)
	}
	v.basis.Store(basis)
	return v
}

// publish captures the post-batch state as a fresh View and swaps it in.
// Called only from the ingest (writer) side. received is the wall-clock
// instant the triggering batch was handed to the facade
// (ApplyBatch/IngestBatch entry); the gap to view publication is the
// vebo_publish_lag_ns sample — the freshness cost one batch pays end to
// end.
//
// Basis choice: readers register the views whose relabeled graph they
// built in latestMat, and the new view patches from the newest of them when
// its capture is at most one compaction back — the span Frozen.Since nets.
// Otherwise there is no basis and the view builds from scratch. One
// compaction generation holds at most the delta-log bound, max(8192,
// liveEdges/8) entries, so a view never nets more than about liveEdges/4 +
// 8192 raw log entries. The view's delta over its basis is a pure function
// of the two views, computed on first use (deltaOver), so a publish costs
// O(1) beyond the Freeze and epochs nobody queries never compute one.
func (d *Dynamic) publish(received time.Time) {
	// The publish span parents onto the batch span that produced this
	// epoch, extending the causal chain batch → maintenance → publish;
	// queries against the view then child-link to the publish span.
	psp := d.spans.Start("publish", "publish", d.inner.Epoch(), d.inner.LastBatchSpan())
	var basis *View
	var backlog int64
	if m := d.latestMat.Load(); d.reuse && m != nil {
		if entries, ok := d.inner.Freeze().EntriesSince(m.frozen); ok {
			basis = m
			backlog = entries + int64(d.inner.NumVertices()-m.nverts)
			// m patches from its own basis only while building artifacts
			// it hasn't built yet; dropping the link bounds the retained
			// chain.
			m.basis.Store(nil)
		}
	}
	v := d.buildView(basis, psp.Context())
	d.work.epochs.Add(1)
	d.cur.Store(v)
	lag := time.Since(received)
	d.work.publishLag.Observe(int64(lag))
	d.work.backlog.Set(backlog)
	basisEpoch := int64(-1)
	if basis != nil {
		basisEpoch = basis.epoch
	}
	psp.Attr("renum_epoch", v.renumEpoch).Attr("basis_epoch", basisEpoch).
		Attr("delta_backlog", backlog).Attr("publish_lag_ns", int64(lag)).End()
}

// viewDelta is a view's delta over its basis, computed once (deltaOver)
// and read as is by every derivation: the graph patch, the GraphGrind patch
// and the refine warm steps. seg and dirty are set only while the numbering
// lineage is intact (!placementChanged).
type viewDelta struct {
	// adds and dels are the net edge change with multiplicities unrolled —
	// Frozen.Since's lists, in original (Src, Dst, Weight) order — with
	// their endpoints relabeled in place into the view's slots.
	adds, dels []graph.Edge
	// moved holds, sorted, the pre-existing vertices (original IDs below the
	// basis vertex count) whose slot differs between the two orderings:
	// repositioned by swap repairs, which move vertices within a closed set
	// of positions and leave the segment boundaries alone. Nil when
	// placementChanged.
	moved []VertexID
	// grown is the number of vertices admitted in between. Internal IDs are
	// append-only, so they are exactly [nverts − grown, nverts).
	grown int64
	// placementChanged reports a lineage break in between (full rebuild or
	// relabeling spill): the renumbering epochs differ.
	placementChanged bool
	// seg maps each basis slot to its slot in this view: C.Perm[w] at
	// B.Perm[w] for each moved vertex w, graph.NoVertex at a basis hole a
	// mover now occupies, and the identity elsewhere. Nil when nothing
	// moved.
	seg []VertexID
	// dirty lists (unsorted, repeats allowed) the view slots whose in-edges
	// or occupant changed: the destinations of adds and dels and the
	// positions of the moved and admitted vertices.
	dirty []VertexID
}

// empty reports whether the delta changes no algorithm result: no edge
// change, no moved vertex, no admission. A placement-only delta is empty —
// renumbering moves values between slots but changes none of them.
func (d *viewDelta) empty() bool {
	return len(d.adds) == 0 && len(d.dels) == 0 && len(d.moved) == 0 && d.grown == 0
}

// touched returns the number of distinct endpoints the edge delta touches —
// the input to refinement's scratch-fallback gate (a delta touching a large
// fraction of the graph refines slower than a cold start). The relabel is
// injective, so counting slots counts vertices.
func (d *viewDelta) touched() int {
	ends := make([]VertexID, 0, 2*(len(d.adds)+len(d.dels)))
	for _, es := range [][]graph.Edge{d.adds, d.dels} {
		for _, e := range es {
			ends = append(ends, e.Src, e.Dst)
		}
	}
	slices.Sort(ends)
	return len(slices.Compact(ends))
}

// deltaOver returns the view's delta over its basis b, computing it on
// first use: the edge change netted from the two captures' log cursors and
// relabeled into the view's slots, the pre-existing vertices whose position
// differs (nil across a renumbering), the admission count, the lineage
// break, and the slot map and dirty slots derived from them. Callers pass
// the basis they loaded; the basis link only ever goes from one view to
// nil, so every caller passes the same b.
//
// Within a numbering lineage the slot space is fixed: admissions fill
// reserved headroom slots, so every basis position keeps its ID and an
// admitted slot has no basis preimage (its content arrives as adds). Only
// swap repairs move vertices, each within a closed set of positions, so
// seg is the identity outside the moved vertices' positions. A basis hole
// is an empty row: when a swap pairs a vertex admitted into it with a basis
// vertex, the basis vertex takes the hole's slot and the hole has no image
// left, which NoVertex says.
func (v *View) deltaOver(b *View) *viewDelta {
	v.deltaOnce.Do(func() {
		adds, dels, ok := v.frozen.Since(b.frozen)
		if !ok {
			// Unreachable: publish pairs a view only with a basis at most
			// one compaction back.
			panic("vebo: view basis is more than one compaction back")
		}
		perm := v.ord.Perm
		vd := &v.delta
		vd.adds, vd.dels = relabel(adds, perm), relabel(dels, perm)
		vd.grown = int64(v.nverts - b.nverts)
		vd.placementChanged = v.renumEpoch != b.renumEpoch
		if vd.placementChanged {
			return
		}
		vd.moved = dynamic.MovedBetween(b.ord.Perm, perm)
		if len(vd.moved) > 0 {
			vd.seg = make([]VertexID, b.slots())
			for s := range vd.seg {
				vd.seg[s] = VertexID(s)
			}
			for _, w := range vd.moved {
				vd.seg[b.ord.Perm[w]] = perm[w]
			}
			// A basis vertex at a mover's new slot moved too, so a slot
			// there still mapping to itself held no basis vertex: it was a
			// hole.
			for _, w := range vd.moved {
				if t := perm[w]; vd.seg[t] == t {
					vd.seg[t] = graph.NoVertex
				}
			}
		}
		for _, es := range [][]graph.Edge{vd.adds, vd.dels} {
			for _, e := range es {
				vd.dirty = append(vd.dirty, e.Dst)
			}
		}
		for _, w := range vd.moved {
			vd.dirty = append(vd.dirty, perm[w])
		}
		// Admissions are append-only in the internal space, so the vertices
		// admitted since the basis are exactly the internal tail.
		vd.dirty = append(vd.dirty, perm[v.nverts-int(vd.grown):v.nverts]...)
	})
	return &v.delta
}

// relabel maps a delta edge list's endpoints through a permutation, in
// place. Frozen.Since allocates its lists for the caller, so rewriting them
// leaves the captures' logs untouched.
func relabel(edges []graph.Edge, perm []VertexID) []graph.Edge {
	for i := range edges {
		edges[i].Src, edges[i].Dst = perm[edges[i].Src], perm[edges[i].Dst]
	}
	return edges
}

// registerMaterialized records that v built its relabeled graph, making it
// a basis candidate for future epochs; the newest such view wins.
func (d *Dynamic) registerMaterialized(v *View) {
	for {
		m := d.latestMat.Load()
		if m != nil && m.epoch >= v.epoch {
			return
		}
		if d.latestMat.CompareAndSwap(m, v) {
			return
		}
	}
}
