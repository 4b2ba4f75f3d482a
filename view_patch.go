package vebo

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graphgrind"
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
		v.work.emitGraph(v, "snapshot-build", start, v.frozen.NumEdges(), 0, nil)
	})
	return v.snap
}

// Reordered returns (deriving once, lazily) the view's graph relabeled with
// its VEBO ordering — the graph the cached engines traverse (derive).
// Under DisableViewReuse it is built from scratch instead
// (scratchReordered). Once derived, the graph is registered with the
// dynamic graph (dynamic.Graph.Register), the next views' basis and the
// next compaction's starting point.
func (v *View) Reordered() (*Graph, error) {
	v.rgOnce.Do(func() {
		build := v.derive
		if !v.d.reuse {
			build = v.scratchReordered
		}
		rg, err := build(time.Now())
		if err != nil {
			v.rgErr = err
			return
		}
		v.rgp.Store(rg)
		sg := v.slotGraph()
		v.d.inner.Register(&sg)
		v.dropSpentBasis()
	})
	if rg := v.rgp.Load(); rg != nil {
		return rg, nil
	}
	return nil, v.rgErr
}

// derive derives the view's relabeled graph from the newest slot graph of
// its log generation, its basis view's relabeled graph or else the
// compaction base, by the view's delta over it (deltaOver). Within a
// numbering lineage the derivation patches the rows the delta touches;
// across a lineage break the slot map is a full one and the derivation
// renumbers. A derivation that fails returns its error.
func (v *View) derive(start time.Time) (*Graph, error) {
	// The basis link cannot drop before the view holds its relabeled graph,
	// so basisGraph is the graph deltaOver measured from.
	vd := v.deltaOver()
	rg, st, err := v.basisGraph().G.PatchEdgesPermN(v.slots(), vd.Adds, vd.Dels, vd.Seg)
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
	v.work.emitGraph(v, "reorder-patch", start, st.EdgesMerged, st.EdgesCopied, &st)
	return rg, nil
}

// scratchReordered builds the view's relabeled graph from scratch: its
// Snapshot, then core.Apply of the ordering, two counted construction
// passes. It is the DisableViewReuse ablation's derivation, the cost a
// reader without reuse pays.
func (v *View) scratchReordered(start time.Time) (*Graph, error) {
	rg, err := core.Apply(v.Snapshot(), v.ord)
	if err != nil {
		return nil, err
	}
	v.work.graphBuilds.Add(1)
	v.work.rebuildEdges.Add(rg.NumEdges())
	v.work.emitGraph(v, "reorder-build", start, rg.NumEdges(), 0, nil)
	return rg, nil
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
