package vebo

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphgrind"
	"repro/internal/ligra"
)

// Snapshot builds (once, lazily) the view's graph in original vertex IDs:
// graph.FromEdges over its capture's live multiset (Frozen.Snapshot), one
// counted build. It is the first pass of the DisableViewReuse ablation,
// and shares no code with the slot derivations. The result is immutable
// and safe to share.
func (v *View) Snapshot() *Graph {
	v.snapOnce.Do(func() {
		start := time.Now()
		v.snap = v.frozen.Snapshot()
		v.work.rebuildEdges.Add(v.frozen.NumEdges())
		v.work.graphBuilds.Add(1)
		v.work.emitGraph(v, "snapshot-build", "", start, v.frozen.NumEdges(), 0, nil)
	})
	return v.snap
}

// Reordered returns (deriving once, lazily) the view's graph relabeled with
// its VEBO ordering — the graph the cached engines traverse (derive).
// Under DisableViewReuse it is built from scratch instead
// (scratchReordered). Once derived, the graph is registered with the
// dynamic graph (dynamic.Graph.Register), the next views' basis and the
// next compaction's starting point.
func (v *View) Reordered() (*Graph, error) { return v.reordered(deriveQuery) }

// Why a view derives its relabeled graph: the cause label of the graph
// span of the derivation (DESIGN.md §6). A view that refines on Ligra reads
// its rows through an overlay instead (refineEngine) until one of the
// others needs the graph.
const (
	// deriveQuery: a full query, Engine or Reordered needs the graph.
	deriveQuery = "query"
	// deriveDenseStep: a warm refinement step through the overlay went
	// dense.
	deriveDenseStep = "dense-step"
	// deriveBound: the overlay would stack overlayEpochs deep, or reach
	// across a lineage break.
	deriveBound = "bound"
	// deriveCold: a refine query computes cold, on its scratch or fallback
	// path.
	deriveCold = "cold"
)

// reordered is Reordered, with why as the cause of the derivation if this
// call runs it.
func (v *View) reordered(why string) (*Graph, error) {
	v.rgOnce.Do(func() {
		build := v.derive
		if !v.d.reuse {
			build = v.scratchReordered
		}
		rg, err := build(time.Now(), why)
		if err != nil {
			v.rgErr = err
			return
		}
		v.rgp.Store(rg)
		v.lin.Store(nil)
		sg := v.slotGraph()
		v.d.inner.Register(&sg)
		v.dropSpentBasis()
	})
	if rg := v.rgp.Load(); rg != nil {
		return rg, nil
	}
	return nil, v.rgErr
}

// derive derives the view's relabeled graph from the derived slot graph
// its rows are read through (ancestry): its basis view's relabeled graph,
// the basis's own ancestor when the basis read through an overlay, or else
// the compaction base, by the view's delta over it. Within a numbering
// lineage the derivation patches the rows the delta touches; across a
// lineage break the slot map is a full one and the derivation renumbers. A
// derivation that fails returns its error.
func (v *View) derive(start time.Time, why string) (*Graph, error) {
	anc, vd := v.ancestry()
	rg, st, err := anc.G.Patch(v.slots(), *vd)
	if err != nil {
		return nil, fmt.Errorf("vebo: deriving the epoch %d graph: %w", v.epoch, err)
	}
	v.work.graphPatches.Add(1)
	v.work.patchedEdges.Add(st.EdgesMerged)
	if vd.Broken {
		// A renumbering rewrites every edge: the relabel a scratch build
		// pays.
		v.work.rebuildEdges.Add(rg.NumEdges())
	} else {
		v.work.relabelEdges.Add(st.EdgesRemapped)
		v.work.reusedEdges.Add(st.EdgesCopied)
	}
	v.work.emitGraph(v, "reorder-patch", why, start, st.EdgesMerged, st.EdgesCopied, &st)
	return rg, nil
}

// scratchReordered builds the view's relabeled graph from scratch: its
// Snapshot, then core.Apply of the ordering, two counted construction
// passes. It is the DisableViewReuse ablation's derivation, the cost a
// reader without reuse pays.
func (v *View) scratchReordered(start time.Time, why string) (*Graph, error) {
	rg, err := core.Apply(v.Snapshot(), v.ord)
	if err != nil {
		return nil, err
	}
	v.work.graphBuilds.Add(1)
	v.work.rebuildEdges.Add(rg.NumEdges())
	v.work.emitGraph(v, "reorder-build", why, start, rg.NumEdges(), 0, nil)
	return rg, nil
}

// overlayEpochs bounds the overlay: the overlay of a view reads through
// those of the views before it back to the newest derived graph, one
// epoch's delta each (graph.Overlay.Extend), and a view whose stack would
// reach overlayEpochs deep derives its graph instead, so a graph is
// derived at least every overlayEpochs epochs. A derivation's cost is
// mostly fixed — the delta's netting, the degree prefixes and extent
// arrays, and the folds — so deriving every K-th epoch instead of every
// epoch cuts it almost K-fold. On the grow_refine benchmark stream (seed
// 1, 1500 epochs of 128 updates, one 2-vCPU Xeon, GOMAXPROCS=1) the
// derivations took 1.02 s at K=1, 0.74 s at 2, 0.64 s at 4, 0.47 s at 8,
// 0.28 s at 16 and 0.19 s at 32, while a refined query read ~120 rows and
// took a dense step, which derives anyway, in 2.6% of queries; 16 takes
// most of the gain and bounds the stack a read walks.
const overlayEpochs = 16

// refineEngine returns the engine a refine query's warm step runs on. On
// Ligra, a view that has not derived its graph answers through an engine
// over its overlay (buildOverlayEngine), the view's Ligra engine from then
// on, unless the view's delta breaks the lineage, its slot space is not
// its ancestor's, or its overlay would stack overlayEpochs deep, when it
// derives (cause bound). Every other case is Engine's.
func (v *View) refineEngine(sys System) (Engine, error) {
	if sys != Ligra || !v.d.reuse || v.rgp.Load() != nil {
		return v.Engine(sys)
	}
	if e := v.eng[sys].peek(); e != nil {
		return e, nil
	}
	vd := v.deltaOver()
	lin := v.lin.Load()
	if lin == nil { // derived since
		return v.Engine(sys)
	}
	if vd.Broken || lin.anc.G.NumVertices() != v.slots() || lin.below != nil && lin.below.Depth() >= overlayEpochs-1 {
		return v.engineFor(sys, deriveBound)
	}
	return v.engine(&v.eng, sys, v.buildOverlayEngine, func() {})
}

// buildOverlayEngine builds the view's Ligra engine over its overlay: the
// rows of its basis's graph, or of the overlay its basis reads through,
// patched by its delta, read without deriving (graph.Overlay). The view
// registers as the newest slot graph of its generation, naming its
// derived ancestor, so the next view's basis — its refine seed and delta —
// stays one epoch back, and the next view's overlay extends this one. The
// engine derives the graph for its first dense step (cause dense-step),
// and Engine derives it before returning this engine.
func (v *View) buildOverlayEngine(sys System) (Engine, error) {
	start := time.Now()
	vd := v.deltaOver()
	lin := v.lin.Load()
	if lin == nil { // derived since
		return v.buildEngine(sys)
	}
	var ov *graph.Overlay
	var err error
	if lin.below != nil {
		ov, err = lin.below.Extend(v.slots(), *vd)
	} else {
		ov, err = graph.NewOverlay(lin.from.G, v.slots(), *vd)
	}
	if err != nil {
		return nil, fmt.Errorf("vebo: reading the epoch %d graph through its overlay: %w", v.epoch, err)
	}
	v.ov.Store(ov)
	sg := v.slotGraph()
	v.d.inner.Register(&sg)
	v.work.engineBuilds.Add(1)
	defer v.work.emitEngine(v, "build", sys, start)
	return ligra.Lazy(ov, func() *graph.Graph {
		rg, err := v.reordered(deriveDenseStep)
		if err != nil {
			// Unreachable: the overlay of the same change was built, and
			// its deletions name live occurrences (Frozen.ChangeSince).
			panic(err)
		}
		return rg
	}, v.opts.topology()), nil
}

// dropSpentBasis drops the basis link once this view holds everything the
// basis could seed: its own relabeled graph, its GraphGrind engine if the
// basis built one, and every result capture the basis holds. Until then the
// link keeps the basis's graph, engine and captures live; without this they
// would stay live until the next publish, so a view being queried would
// hold two epochs of artifacts. Ligra, Polymer and transposed engines are
// always built from scratch, so they do not count.
func (v *View) dropSpentBasis() {
	b := v.basis.Load()
	if b == nil || v.rgp.Load() == nil {
		return
	}
	if b.eng[GraphGrind].peek() != nil && v.eng[GraphGrind].peek() == nil {
		return
	}
	if v.ref.covers(b.ref) {
		v.basis.CompareAndSwap(b, nil)
	}
}

// buildEngine builds the view's engine for sys over its relabeled graph.
// Ligra's scheduling units and Polymer's socket partitions depend only on
// the vertex count and degree offsets, so both are always one NewEngine.
// GraphGrind's per-partition COOs are derived from the basis view's engine
// while the numbering lineage is intact: dirty partitions, and partitions
// whose stored source IDs moved, are merged from the basis COOs, and the
// rest are shared. Partition boundaries never change within a lineage — the slot
// space is fixed and admissions fill reserved headroom slots inside existing
// segment boundaries — so only a spill, which breaks the lineage, changes
// them.
func (v *View) buildEngine(sys System) (Engine, error) {
	rg, err := v.Reordered()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if b := v.basis.Load(); sys == GraphGrind && b != nil && !v.deltaOver().Broken {
		if be, ok := b.eng[sys].peek().(*graphgrind.GraphGrind); ok {
			e, st, err := be.Patch(rg, *v.deltaOver())
			if err != nil {
				return nil, fmt.Errorf("vebo: deriving the epoch %d GraphGrind engine: %w", v.epoch, err)
			}
			v.recordPatch(st)
			v.work.emitEngine(v, "patch", sys, start)
			return e, nil
		}
	}
	defer v.work.emitEngine(v, "build", sys, start)
	v.work.engineBuilds.Add(1)
	opts := v.opts
	opts.Partitions = v.parts
	if sys != Ligra {
		v.work.rebuildEdges.Add(rg.NumEdges())
		opts.Bounds = v.ord.Boundaries()
	}
	return NewEngine(sys, rg, opts)
}

func (v *View) buildTransposeEngine(sys System) (Engine, error) {
	rg, err := v.Reordered()
	if err != nil {
		return nil, err
	}
	// Transposition shares the CSR and CSC arrays: an O(1) header swap.
	rgT := rg.Transpose()
	v.work.engineBuilds.Add(1)
	if sys != Ligra {
		v.work.rebuildEdges.Add(rgT.NumEdges())
	}
	opts := v.opts
	opts.Partitions = v.parts
	opts.Bounds = nil
	return NewEngine(sys, rgT, opts)
}
