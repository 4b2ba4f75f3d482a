package vebo

import (
	"time"

	"repro/internal/dynamic"
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

// deltaOver returns the view's delta over its basis b, computing it on
// first use: the edge change netted from the two captures' log cursors,
// the pre-existing vertices whose position differs (nil across a
// renumbering), the admission count and the lineage break. Callers pass
// the basis they loaded; the basis link only ever goes from one view to
// nil, so every caller passes the same b.
func (v *View) deltaOver(b *View) dynamic.ViewDelta {
	v.deltaOnce.Do(func() {
		adds, dels, ok := v.frozen.Since(b.frozen)
		if !ok {
			// Unreachable: publish pairs a view only with a basis at most
			// one compaction back.
			panic("vebo: view basis is more than one compaction back")
		}
		v.delta = dynamic.ViewDelta{
			Adds:             adds,
			Dels:             dels,
			PlacementChanged: v.renumEpoch != b.renumEpoch,
			Grown:            int64(v.nverts - b.nverts),
		}
		if !v.delta.PlacementChanged {
			v.delta.Moved = dynamic.MovedBetween(b.ord.Perm, v.ord.Perm)
		}
	})
	return v.delta
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
