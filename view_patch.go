package vebo

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphgrind"
)

// Snapshot materializes (once, lazily) the view's graph in original vertex
// IDs. Frozen.Materialize is already a row patch of the capture's
// compaction base with the netted delta log: it shares the base's clean
// rows and writes only the rows the log touches. The result is immutable
// and safe to share.
func (v *View) Snapshot() *Graph {
	v.snapOnce.Do(func() {
		start := time.Now()
		var st graph.PatchStats
		v.snap, st = v.frozen.Materialize()
		v.work.rebuildEdges.Add(v.frozen.NumEdges())
		v.work.graphBuilds.Add(1)
		v.work.emitGraph(v, "snapshot-build", start, v.frozen.NumEdges(), 0, &st)
	})
	return v.snap
}

// Reordered returns (building once, lazily) the view's graph relabeled with
// its VEBO ordering — the graph the cached engines traverse. When the
// previous materialized view shares the same numbering lineage (identical
// placement, or placement-preserving repairs whose segment-local
// permutation is known), the graph is patched row-wise from it instead of
// being rebuilt from a fresh snapshot.
func (v *View) Reordered() (*Graph, error) {
	v.rgOnce.Do(func() {
		start := time.Now()
		if b := v.basis.Load(); b != nil && !v.deltaOver(b).placementChanged {
			if brg := b.rgp.Load(); brg != nil {
				vd := v.deltaOver(b)
				rg, st, err := brg.PatchEdgesPermN(v.slots(), vd.adds, vd.dels, vd.seg)
				if err == nil {
					v.work.graphPatches.Add(1)
					v.work.patchedEdges.Add(st.EdgesMerged)
					v.work.relabelEdges.Add(st.EdgesRemapped)
					v.work.reusedEdges.Add(st.EdgesCopied)
					v.rgp.Store(rg)
					v.work.emitGraph(v, "reorder-patch", start, st.EdgesMerged, st.EdgesCopied, &st)
					return
				}
				// Unreachable for deltas recorded by the dynamic subsystem;
				// fall back to a scratch build if it ever happens.
				v.work.fallbackReorder.Inc()
			}
		}
		rg, err := core.Apply(v.Snapshot(), v.ord)
		if err != nil {
			v.rgErr = err
			return
		}
		v.work.graphBuilds.Add(1)
		v.work.rebuildEdges.Add(rg.NumEdges())
		v.rgp.Store(rg)
		v.work.emitGraph(v, "reorder-build", start, rg.NumEdges(), 0, nil)
	})
	if rg := v.rgp.Load(); rg != nil {
		v.d.registerMaterialized(v)
		v.dropSpentBasis()
		return rg, nil
	}
	return nil, v.rgErr
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
	if b := v.basis.Load(); sys == GraphGrind && b != nil && !v.deltaOver(b).placementChanged {
		if be, ok := b.eng[sys].peek().(*graphgrind.GraphGrind); ok {
			vd := v.deltaOver(b)
			e, st, err := be.Patch(rg, vd.seg, vd.dirty)
			if err == nil {
				v.recordPatch(st)
				v.work.emitEngine(v, "patch", sys, start)
				return e, nil
			}
			// Unreachable for deltas recorded by the dynamic subsystem;
			// fall back to a scratch build if it ever happens.
			v.work.fallbackEngine.Inc()
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
