package vebo

import (
	"time"

	"repro/internal/graph"
	"repro/internal/graphgrind"
	"repro/internal/obs"
)

// viewWork accumulates engine-construction work counters across a Dynamic's
// lifetime; readers add to it from whichever goroutine triggers a lazy build.
// The counters live in the Dynamic's metrics registry (the vebo_view_* and
// vebo_query_* series), so the modeled work units and the wall-clock
// latencies land side by side in one scrape; the span ring receives one
// span per graph/engine build or patch with the decision's cause.
type viewWork struct {
	reg *obs.Registry
	sp  *obs.Spans

	// The staleness plane (DESIGN.md §6): epochAge samples, at query time,
	// how old the queried view's epoch is (vebo_epoch_age_ns); publishLag
	// measures batch receipt → view publication (vebo_publish_lag_ns);
	// backlog gauges the delta the newest view carries over its basis
	// (vebo_delta_backlog).
	epochAge   *obs.Histogram
	publishLag *obs.Histogram
	backlog    *obs.Gauge

	epochs        *obs.Counter
	graphBuilds   *obs.Counter
	graphPatches  *obs.Counter
	engineBuilds  *obs.Counter
	enginePatches *obs.Counter
	rebuildEdges  *obs.Counter
	patchedEdges  *obs.Counter
	reusedEdges   *obs.Counter
	relabelEdges  *obs.Counter
	partsRebuilt  *obs.Counter
	partsReused   *obs.Counter
	partsRelabel  *obs.Counter

	refineReset    *obs.Counter
	refineFrontier *obs.Counter
}

// newViewWork wires the work counters into reg (nil-tolerant: a nil registry
// yields no-op handles, a nil span ring drops spans).
func newViewWork(reg *obs.Registry, sp *obs.Spans) *viewWork {
	return &viewWork{
		reg:           reg,
		sp:            sp,
		epochAge:      reg.Histogram("vebo_epoch_age_ns"),
		publishLag:    reg.Histogram("vebo_publish_lag_ns"),
		backlog:       reg.Gauge("vebo_delta_backlog"),
		epochs:        reg.Counter("vebo_view_epochs_total"),
		graphBuilds:   reg.Counter("vebo_view_graph_total", "path", "build"),
		graphPatches:  reg.Counter("vebo_view_graph_total", "path", "patch"),
		engineBuilds:  reg.Counter("vebo_view_engine_total", "path", "build"),
		enginePatches: reg.Counter("vebo_view_engine_total", "path", "patch"),
		rebuildEdges:  reg.Counter("vebo_view_edges_total", "path", "rebuild"),
		patchedEdges:  reg.Counter("vebo_view_edges_total", "path", "patched"),
		reusedEdges:   reg.Counter("vebo_view_edges_total", "path", "reused"),
		relabelEdges:  reg.Counter("vebo_view_edges_total", "path", "relabeled"),
		partsRebuilt:  reg.Counter("vebo_view_partitions_total", "path", "rebuilt"),
		partsReused:   reg.Counter("vebo_view_partitions_total", "path", "reused"),
		partsRelabel:  reg.Counter("vebo_view_partitions_total", "path", "relabeled"),

		refineReset:    reg.Counter("vebo_refine_vertices_total", "kind", "reset"),
		refineFrontier: reg.Counter("vebo_refine_vertices_total", "kind", "frontier"),
	}
}

// observeQuery records one algorithm run against v: a per-(alg, sys)
// latency histogram sample (vebo_query_ns) and count (vebo_queries_total),
// a staleness sample (vebo_epoch_age_ns — how old v's epoch was when this
// query read it), and a "query" span child-linked to the publish span of
// v's epoch carrying {alg, sys, epoch} and the cause "full" (a refined
// answer is recorded by observeRefine). The measured span is the whole
// user-visible call, including any lazy engine build it triggered.
func (w *viewWork) observeQuery(v *View, alg string, sys System, start time.Time) {
	since := time.Since(start)
	w.reg.Histogram("vebo_query_ns", "alg", alg, "sys", sys.String()).Observe(int64(since))
	w.reg.Counter("vebo_queries_total", "alg", alg, "sys", sys.String()).Inc()
	w.epochAge.Observe(int64(time.Since(v.published)))
	w.sp.Record(obs.Span{
		Parent: v.pubSpan.ID, Name: "query:" + alg, Kind: "query", Cause: "full",
		Sys: sys.String(), Epoch: v.epoch, Start: start, Dur: since,
	})
}

// emitGraph records one snapshot/relabeled-graph materialization decision:
// the per-cause latency histogram sample and a "graph" build span
// child-linked to v's publish span. A row patch's stats st (nil for a
// scratch build) add whether it folded, counted by cause in
// vebo_graph_folds_total, and the edges it wrote. A relabeled graph's span
// carries why it was derived (why, one of the derive* causes) as its cause
// label; a snapshot's passes "".
func (w *viewWork) emitGraph(v *View, cause, why string, start time.Time, touched, reused int64, st *graph.PatchStats) {
	w.reg.Histogram("vebo_graph_build_ns", "cause", cause).ObserveSince(start)
	attrs := map[string]int64{"edges_touched": touched, "edges_reused": reused}
	if st != nil {
		attrs["fold"], attrs["written_edges"] = 0, st.EdgesWritten
		if st.Fold != "" {
			attrs["fold"] = 1
			w.reg.Counter("vebo_graph_folds_total", "cause", st.Fold).Inc()
		}
	}
	sp := obs.Span{
		Parent: v.pubSpan.ID, Name: "graph", Kind: "build", Cause: cause,
		Epoch: v.epoch, Start: start, Dur: time.Since(start), Attrs: attrs,
	}
	if why != "" {
		sp.Labels = map[string]string{"cause": why}
	}
	w.sp.Record(sp)
}

// emitEngine records one engine construction decision ("patch" versus
// "build"): the per-(mode, sys) latency histogram sample and an
// "engine" build span child-linked to v's publish span.
func (w *viewWork) emitEngine(v *View, cause string, sys System, start time.Time) {
	w.reg.Histogram("vebo_engine_build_ns", "mode", cause, "sys", sys.String()).ObserveSince(start)
	w.sp.Record(obs.Span{
		Parent: v.pubSpan.ID, Name: "engine", Kind: "build", Cause: cause,
		Sys: sys.String(), Epoch: v.epoch, Start: start, Dur: time.Since(start),
	})
}

// ViewWork is a snapshot of the engine-construction work a Dynamic's views
// have done. Edges are the unit: RebuildEdges counts edges processed by
// from-scratch construction (snapshot materialization, relabeling, Polymer
// and GraphGrind engine builds; a Ligra build traverses the relabeled graph
// as-is and adds none), PatchedEdges counts edges reprocessed by the patch
// paths (merged adjacency rows, rebuilt dirty GraphGrind partitions),
// RelabeledEdges counts edges rewritten by segment-local renumbering remaps
// after a placement-preserving repair (a linear ID rewrite, cheaper than a
// patch merge), and ReusedEdges counts edges carried over untouched (shared
// COO pointers, block-copied rows) — work avoided relative to rebuilding.
// GraphGrind is the only engine patched from a basis, so EnginePatches and
// the Partitions* counts are GraphGrind's alone; every Ligra and Polymer
// engine counts in EngineBuilds.
type ViewWork struct {
	Epochs                      int64
	GraphBuilds, GraphPatches   int64
	EngineBuilds, EnginePatches int64
	RebuildEdges                int64
	PatchedEdges                int64
	RelabeledEdges              int64
	ReusedEdges                 int64
	PartitionsRebuilt           int64
	PartitionsReused            int64
	PartitionsRelabeled         int64
}

func (w *viewWork) snapshot() ViewWork {
	return ViewWork{
		Epochs:              w.epochs.Value(),
		GraphBuilds:         w.graphBuilds.Value(),
		GraphPatches:        w.graphPatches.Value(),
		EngineBuilds:        w.engineBuilds.Value(),
		EnginePatches:       w.enginePatches.Value(),
		RebuildEdges:        w.rebuildEdges.Value(),
		PatchedEdges:        w.patchedEdges.Value(),
		RelabeledEdges:      w.relabelEdges.Value(),
		ReusedEdges:         w.reusedEdges.Value(),
		PartitionsRebuilt:   w.partsRebuilt.Value(),
		PartitionsReused:    w.partsReused.Value(),
		PartitionsRelabeled: w.partsRelabel.Value(),
	}
}

// ViewWork returns the accumulated engine-construction work counters.
func (d *Dynamic) ViewWork() ViewWork { return d.work.snapshot() }

// observeRefine records one Refine* query: per-(alg, path) counters, a
// per-(alg, sys) latency histogram, a staleness sample, and a "query" span
// child-linked to the publish span of v's epoch whose cause names the
// answer path (cached/scratch-seed/refined/scratch-fallback). A query
// answered through an overlay (ov, nil otherwise) adds the overlay's dirty
// row count as overlay_rows.
func (w *viewWork) observeRefine(v *View, alg string, sys System, start time.Time, st RefineStats, ov *graph.Overlay) {
	since := time.Since(start)
	w.reg.Counter("vebo_refine_total", "alg", alg, "path", st.Path).Inc()
	w.reg.Histogram("vebo_refine_ns", "alg", alg, "sys", sys.String()).Observe(int64(since))
	w.refineReset.Add(int64(st.ResetVertices))
	w.refineFrontier.Add(int64(st.FrontierVertices))
	w.epochAge.Observe(int64(time.Since(v.published)))
	attrs := map[string]int64{"reset": int64(st.ResetVertices),
		"frontier": int64(st.FrontierVertices), "seed_epoch": st.SeedEpoch}
	if ov != nil {
		attrs["overlay_rows"] = int64(ov.DirtyRows())
	}
	w.sp.Record(obs.Span{
		Parent: v.pubSpan.ID, Name: "query:refine-" + alg, Kind: "query", Cause: st.Path,
		Sys: sys.String(), Epoch: v.epoch, Start: start, Dur: since, Attrs: attrs,
	})
}

func (v *View) recordPatch(st graphgrind.PatchStats) {
	v.work.enginePatches.Add(1)
	v.work.patchedEdges.Add(st.EdgesRebuilt)
	v.work.reusedEdges.Add(st.EdgesReused)
	v.work.relabelEdges.Add(st.EdgesRemapped)
	v.work.partsRebuilt.Add(int64(st.PartsRebuilt))
	v.work.partsReused.Add(int64(st.PartsReused))
	v.work.partsRelabel.Add(int64(st.PartsRemapped))
}
