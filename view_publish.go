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
// Basis choice: the dynamic graph's registry (dynamic.Graph.Latest) holds
// the newest slot graph of the log generation: the relabeled graph of the
// newest view a reader built one for, or the compaction base, which every
// compaction puts back. The new view takes the entry's view as its basis;
// for a base it has none and derives from its generation's compaction
// base (Frozen.Base), the basis of last resort. One generation holds at most the delta-log bound,
// max(8192, liveEdges/8) entries, so a view never nets more than that many
// raw log entries (the backlog). The view's delta over its basis is a pure
// function of the two, computed on first use (deltaOver), so a publish
// costs O(1) beyond the Freeze and epochs nobody queries never compute one.
func (d *Dynamic) publish(received time.Time) {
	// The publish span parents onto the batch span that produced this
	// epoch, extending the causal chain batch → maintenance → publish;
	// queries against the view then child-link to the publish span.
	psp := d.spans.Start("publish", "publish", d.inner.Epoch(), d.inner.LastBatchSpan())
	var basis *View
	var backlog int64
	if d.reuse {
		f, from := d.inner.Freeze(), d.inner.Latest()
		if basis, _ = from.Owner.(*View); basis != nil {
			// The basis derives from its own basis only while building
			// artifacts it hasn't built yet; dropping the link bounds the
			// retained chain.
			basis.basis.Store(nil)
		}
		entries, _ := f.EntriesSince(from.At)
		backlog = entries + int64(f.NumVertices()-from.At.NumVertices())
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

// unchanged reports whether the delta changes no algorithm result: no edge
// change, no moved vertex, no admission. A placement-only delta is
// unchanged: renumbering moves values between slots, changing none.
func unchanged(d *graph.Delta) bool {
	return len(d.Adds) == 0 && len(d.Dels) == 0 && len(d.Moved) == 0 && len(d.Grown) == 0
}

// touched returns the number of distinct endpoints the edge delta touches —
// the input to refinement's scratch-fallback gate (a delta touching a large
// fraction of the graph refines slower than a cold start). The relabel is
// injective, so counting slots counts vertices.
func touched(d *graph.Delta) int {
	ends := make([]VertexID, 0, 2*(len(d.Adds)+len(d.Dels)))
	for _, es := range [][]graph.Edge{d.Adds, d.Dels} {
		for _, e := range es {
			ends = append(ends, e.Src, e.Dst)
		}
	}
	slices.Sort(ends)
	return len(slices.Compact(ends))
}

// slotGraph returns the view's slot graph as the view registers it: its
// relabeled graph once derived, else the derived ancestor its overlay
// reads through, which it names instead. The lineage is read first: it is
// dropped only after the graph is stored.
func (v *View) slotGraph() dynamic.SlotGraph {
	lin := v.lin.Load()
	sg := dynamic.SlotGraph{G: v.rgp.Load(), At: v.frozen, Perm: v.ord.Perm, Renum: v.renumEpoch, Owner: v}
	if sg.G == nil && lin != nil {
		sg.Anc = lin.anc
	}
	return sg
}

// basisGraph returns the slot graph the view's delta is measured from: its
// basis view's slot graph, or else its generation's compaction base, the
// basis of last resort.
func (v *View) basisGraph() dynamic.SlotGraph {
	if b := v.basis.Load(); b != nil {
		return b.slotGraph()
	}
	return v.frozen.Base()
}

// lineage is what a view's delta is measured from, and what the view
// reads its rows through until it derives its graph: the slot graph
// deltaOver measured from (without its owner, so a view never holds its
// basis view), the overlay of a basis without a graph, and the newest
// derived slot graph either leads back to. The view drops it once it
// derives, so a derived view holds no older graph.
type lineage struct {
	from  dynamic.SlotGraph
	below *graph.Overlay
	anc   *dynamic.SlotGraph
}

// deltaOver returns the view's delta over its basis (basisGraph),
// computing it on first use (Frozen.ChangeSince to the view's capture
// under its ordering) with the view's lineage. Every derivation reads the
// delta as is: the overlay and the graph patch (through ancestry), the
// GraphGrind patch and the refine seeds and warm steps. The basis link
// only ever goes from one view to nil, and only once the view has
// registered a slot graph, after it computed the delta, so every consumer
// that sees a basis view reads the delta over that view.
func (v *View) deltaOver() *graph.Delta {
	v.deltaOnce.Do(func() {
		from := v.basisGraph()
		d, ok := v.frozen.ChangeSince(from, v.ord.Perm, v.renumEpoch)
		if !ok {
			// Unreachable: publish pairs a view only with a basis of its
			// own generation.
			panic("vebo: view basis is of another log generation")
		}
		owner := from.Owner
		from.Owner = nil
		lin := &lineage{from: from, anc: from.Anc}
		if from.G != nil {
			lin.anc = &lin.from
		} else {
			// A basis registered without a graph built its overlay first.
			lin.below = owner.(*View).ov.Load()
		}
		v.delta = d
		v.lin.Store(lin)
	})
	return &v.delta
}

// ancestry returns the newest derived slot graph the view's rows lead back
// to and the view's delta over it, computing the delta on first use: the
// basis's graph and deltaOver when the basis holds one (a derived basis
// view, or the compaction base), else the basis's derived ancestor and the
// change since it. The view derives its graph from the ancestor, so only
// a derivation calls it, before the view drops its lineage.
func (v *View) ancestry() (*dynamic.SlotGraph, *graph.Delta) {
	vd := v.deltaOver()
	lin := v.lin.Load()
	v.ancOnce.Do(func() {
		if lin.from.G != nil {
			v.ancDelta = vd
			return
		}
		d, ok := v.frozen.ChangeSince(*lin.anc, v.ord.Perm, v.renumEpoch)
		if !ok {
			// Unreachable: an ancestor is of its reader's generation.
			panic("vebo: view ancestor is of another log generation")
		}
		v.ancOwn = d
		v.ancDelta = &v.ancOwn
	})
	return lin.anc, v.ancDelta
}
