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

// slotDelta is a view's delta over its basis in the view's slot space,
// computed once (slotDeltaOver) and read as is by every derivation: the
// graph patch, the GraphGrind patch and the refine warm steps. seg and
// dirty are set only while the numbering lineage is intact
// (!delta.PlacementChanged).
type slotDelta struct {
	// adds and dels are the net edge change with endpoints relabeled into
	// the view's slots; the view's ViewDelta keeps the original-ID copy.
	adds, dels []graph.Edge
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

// slotDeltaOver returns the view's slot-space delta over its basis b,
// computing it on first use from deltaOver(b).
//
// Within a numbering lineage the slot space is fixed: admissions fill
// reserved headroom slots, so every basis position keeps its ID and an
// admitted slot has no basis preimage (its content arrives as adds). Only
// swap repairs move vertices, each within a closed set of positions, so
// seg is the identity outside the moved vertices' positions. A basis hole
// is an empty row: when a swap pairs a vertex admitted into it with a basis
// vertex, the basis vertex takes the hole's slot and the hole has no image
// left, which NoVertex says.
func (v *View) slotDeltaOver(b *View) *slotDelta {
	v.slotOnce.Do(func() {
		vd := v.deltaOver(b)
		perm := v.ord.Perm
		sd := &v.slot
		sd.adds, sd.dels = relabel(vd.Adds, perm), relabel(vd.Dels, perm)
		if vd.PlacementChanged {
			return
		}
		if len(vd.Moved) > 0 {
			sd.seg = make([]VertexID, b.slots())
			for s := range sd.seg {
				sd.seg[s] = VertexID(s)
			}
			for _, w := range vd.Moved {
				sd.seg[b.ord.Perm[w]] = perm[w]
			}
			// A basis vertex at a mover's new slot moved too, so a slot
			// there still mapping to itself held no basis vertex: it was a
			// hole.
			for _, w := range vd.Moved {
				if t := perm[w]; sd.seg[t] == t {
					sd.seg[t] = graph.NoVertex
				}
			}
		}
		for _, es := range [][]graph.Edge{sd.adds, sd.dels} {
			for _, e := range es {
				sd.dirty = append(sd.dirty, e.Dst)
			}
		}
		for _, w := range vd.Moved {
			sd.dirty = append(sd.dirty, perm[w])
		}
		// Admissions are append-only in the internal space, so the vertices
		// admitted since the basis are exactly the internal tail.
		sd.dirty = append(sd.dirty, perm[v.nverts-int(vd.Grown):v.nverts]...)
	})
	return &v.slot
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
		if b := v.basis.Load(); b != nil && !v.deltaOver(b).PlacementChanged {
			if brg := b.rgp.Load(); brg != nil {
				sd := v.slotDeltaOver(b)
				rg, st, err := brg.PatchEdgesPermN(v.slots(), sd.adds, sd.dels, sd.seg)
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

// relabel returns a copy of a delta edge list with its endpoints mapped
// through a permutation. The delta is shared by every consumer of the view,
// so it is never rewritten in place.
func relabel(edges []graph.Edge, perm []VertexID) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		e.Src, e.Dst = perm[e.Src], perm[e.Dst]
		out[i] = e
	}
	return out
}

// buildEngine builds the view's engine for sys over its relabeled graph.
// Ligra's scheduling units and Polymer's socket partitions depend only on
// the vertex count and degree offsets, so both are always one NewEngine.
// GraphGrind's per-partition COOs are derived from the basis view's engine
// while the numbering lineage is intact: dirty partitions are re-gathered,
// partitions whose stored source IDs moved are remapped, and the rest are
// shared. Partition boundaries never change within a lineage — the slot
// space is fixed and admissions fill reserved headroom slots inside existing
// segment boundaries — so only a spill, which breaks the lineage, changes
// them.
func (v *View) buildEngine(sys System) (Engine, error) {
	rg, err := v.Reordered()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if b := v.basis.Load(); sys == GraphGrind && b != nil && !v.deltaOver(b).PlacementChanged {
		if be, ok := b.eng[sys].peek().(*graphgrind.GraphGrind); ok {
			sd := v.slotDeltaOver(b)
			e, st, err := be.Patch(rg, sd.seg, sd.dirty)
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
	switch sys {
	case Polymer:
		v.work.rebuildEdges.Add(rg.NumEdges())
		opts.Bounds = core.CoarsenBounds(v.ord.Boundaries(), opts.topology().Sockets)
	case GraphGrind:
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
