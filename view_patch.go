package vebo

import (
	"slices"
	"sort"
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
		v.snap = v.frozen.Materialize()
		v.work.rebuildEdges.Add(v.frozen.NumEdges())
		v.work.graphBuilds.Add(1)
		v.work.emitGraph(v, "snapshot-build", start, v.frozen.NumEdges(), 0)
	})
	return v.snap
}

// segPerm returns the segment-local injection mapping the basis view's
// new-ID space into this view's, or nil for the identity. Growth alone no
// longer produces an injection at all: within a numbering lineage the slot
// space is fixed and admissions fill reserved headroom slots, so every
// basis position keeps its ID — identity outside the grown segments, and
// the identity on them too (admitted slots have no basis preimage; their
// content arrives as explicit adds). Only placement-preserving moves (swap
// repairs) yield a real map: identity everywhere except the moved
// vertices' positions. Valid only while the numbering lineage is intact
// (!delta.PlacementChanged).
func (v *View) segPerm(b *View) []VertexID {
	v.segOnce.Do(func() {
		if len(v.deltaOver(b).Moved) == 0 {
			return
		}
		// Internal IDs are append-only, so the basis's internal space is
		// exactly the prefix [0, b.nverts) of this view's; composing the
		// two orderings over it yields the basis-position → this-position
		// map directly. The map spans the basis engine's whole slot space:
		// reserved-headroom holes carry empty rows but still need injective
		// targets — identity where that slot is still free, a leftover free
		// slot otherwise. A hole's own slot is not always free: a vertex
		// admitted since the basis fills a basis hole, and a swap repair
		// that pairs it with a basis vertex moves the basis vertex into
		// that slot, so the hole must take one of the slots left over.
		bSlots := int(b.ord.Slots())
		vSlots := int(v.ord.Slots())
		seg := make([]VertexID, bSlots)
		src := make([]bool, bSlots)
		taken := make([]bool, vSlots)
		for w := 0; w < b.nverts; w++ {
			s, t := b.ord.Perm[w], v.ord.Perm[w]
			seg[s] = t
			src[s] = true
			taken[t] = true
		}
		free := 0
		for s := 0; s < bSlots; s++ {
			if src[s] {
				continue
			}
			if s < vSlots && !taken[s] {
				seg[s] = VertexID(s)
				taken[s] = true
				continue
			}
			for taken[free] {
				free++
			}
			seg[s] = VertexID(free)
			taken[free] = true
		}
		v.seg = seg
	})
	return v.seg
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
				vd := v.deltaOver(b)
				adds, dels := relabel(vd.Adds, v.ord.Perm), relabel(vd.Dels, v.ord.Perm)
				rg, st, err := brg.PatchEdgesPermN(v.slots(), adds, dels, v.segPerm(b))
				if err == nil {
					v.work.graphPatches.Add(1)
					v.work.patchedEdges.Add(st.EdgesMerged)
					v.work.relabelEdges.Add(st.EdgesRemapped)
					v.work.reusedEdges.Add(st.EdgesCopied)
					v.rgp.Store(rg)
					v.work.emitGraph(v, "reorder-patch", start, st.EdgesMerged, st.EdgesCopied)
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
		v.work.emitGraph(v, "reorder-build", start, rg.NumEdges(), 0)
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

// rangePredicate turns a sorted ID list into a "does [lo, hi) contain any
// of them" predicate.
func rangePredicate(ids []VertexID) func(lo, hi VertexID) bool {
	return func(lo, hi VertexID) bool {
		i := sort.Search(len(ids), func(i int) bool { return ids[i] >= lo })
		return i < len(ids) && ids[i] < hi
	}
}

// dirtyPredicate reports whether a destination-vertex range owns any edge
// that changed since the basis view, contains a vertex repositioned by a
// placement-preserving repair, or contains a vertex admitted since the
// basis. GraphGrind's destination-partitioned structures (COOs, partition
// metadata) depend only on the in-edges of their range, so the exact dirty
// set is the net delta's destination endpoints, the moved vertices'
// positions and the admitted vertices' positions, mapped into the view's
// relabeled space. (Moves permute IDs within a closed position set — a
// swap always parks an incoming vertex where an outgoing one sat — so
// flagging the current positions covers every partition whose membership
// changed.)
func (v *View) dirtyPredicate(b *View) func(lo, hi VertexID) bool {
	perm := v.ord.Perm
	vd := v.deltaOver(b)
	dirty := make([]VertexID, 0, len(vd.Adds)+len(vd.Dels)+len(vd.Moved)+int(vd.Grown))
	for _, es := range [][]graph.Edge{vd.Adds, vd.Dels} {
		for _, e := range es {
			dirty = append(dirty, perm[e.Dst])
		}
	}
	for _, w := range vd.Moved {
		dirty = append(dirty, perm[w])
	}
	// Admissions are append-only in the internal space, so the vertices
	// admitted since the basis are exactly the internal tail.
	for w := v.nverts - int(vd.Grown); w < v.nverts; w++ {
		dirty = append(dirty, perm[w])
	}
	slices.Sort(dirty)
	return rangePredicate(slices.Compact(dirty))
}

// srcMovedPredicate reports whether a destination-vertex range owns an edge
// whose source vertex was repositioned since the basis view. Such a range's
// in-edge content is unchanged, but engine structures that store source IDs
// (GraphGrind's COOs) hold stale references and must be remapped through
// the segment permutation. The set is the destinations of the moved
// vertices' current out-edges; edges they lost since the basis appear in
// the net delta and dirty their destinations through dirtyPredicate.
// Growth does not enter: admissions fill reserved headroom slots, so no
// pre-existing source ID ever shifts — a grown epoch without repairs leaves
// this set empty and every clean partition's COO is shared outright.
func (v *View) srcMovedPredicate(b *View, rg *Graph) func(lo, hi VertexID) bool {
	perm := v.ord.Perm
	var list []VertexID
	for _, w := range v.deltaOver(b).Moved {
		list = append(list, rg.OutNeighbors(perm[w])...)
	}
	slices.Sort(list)
	return rangePredicate(slices.Compact(list))
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
			e, st, err := be.Patch(rg, v.segPerm(b), v.dirtyPredicate(b), v.srcMovedPredicate(b, rg))
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
