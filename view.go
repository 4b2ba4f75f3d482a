package vebo

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/graphgrind"
	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/polymer"
)

// View is an immutable, epoch-pinned capture of a Dynamic graph: a consistent
// snapshot, its VEBO ordering, and lazily built, cached engines for all three
// framework models (plus their transposes, for BC). Views are published by
// the ingest side with a lock-free pointer swap; any number of reader
// goroutines may hold one View and run algorithms on it while ApplyBatch
// keeps mutating the Dynamic underneath. All algorithm inputs and outputs use
// original vertex IDs — the internal relabeling is invisible.
//
// Engine state is reused across epochs: when a new View's numbering lineage
// is intact relative to the previous materialized View — identical
// placement, or a placement-preserving swap repair that only permuted IDs
// inside the affected partitions' segments (dynamic.ViewDelta.Moved) — its
// relabeled graph is patched row-wise from the predecessor's through the
// segment-local permutation, and per-partition engine structures
// (GraphGrind COOs, Polymer scheduling units, partition metadata) are
// rebuilt only for partitions whose edge content changed or that touch a
// moved vertex. The snapshot in original vertex IDs is likewise patched
// from the basis view's snapshot (original IDs never change, so snapshot
// patching survives even full renumberings). ViewWork reports the
// resulting rebuild-versus-patch-versus-relabel work split.
//
//vebo:frozen
type View struct {
	epoch      int64
	renumEpoch int64 // numbering lineage (dynamic.RenumEpoch) at publish
	nverts     int
	parts      int
	exts       []uint64     // internal → external IDs (nil without external ingest)
	ord        *core.Result // shared immutable Perm/PartitionOf, counts frozen at publish
	frozen     dynamic.Frozen
	opts       EngineOptions
	basis      atomic.Pointer[View] // materialized view this one patches from; nil forces scratch builds
	d          *Dynamic
	work       *viewWork
	ref        *refineCache    // lineage-keyed Refined captures (refine_view.go)
	published  time.Time       // publication instant — the base of the staleness clock
	pubSpan    obs.SpanContext // the publish span queries child-link their spans to

	deltaOnce sync.Once
	delta     dynamic.ViewDelta // the changes since the basis (deltaOver)

	snapOnce sync.Once
	snapP    atomic.Pointer[Graph]

	rgOnce sync.Once
	rgp    atomic.Pointer[Graph]
	rgErr  error

	rgTOnce sync.Once
	rgT     *Graph
	rgTErr  error

	invOnce sync.Once
	inv     []VertexID // new ID -> original ID

	dirtyOnce sync.Once
	dirtyIDs  []VertexID // sorted dirty destinations + moved positions, relabeled space

	srcOnce  sync.Once
	srcDirty []VertexID // sorted dests of edges whose source moved, relabeled space

	segOnce sync.Once
	seg     []VertexID // basis new-ID -> this view's new-ID; nil when nothing moved

	eng  [3]engineSlot
	engT [3]engineSlot
}

// engineSlot lazily holds one framework engine. The atomic value lets the
// next epoch's view check "already built?" without forcing a build.
type engineSlot struct {
	once  sync.Once
	val   atomic.Value // Engine
	built Engine
	err   error
}

func (s *engineSlot) peek() Engine {
	if e, ok := s.val.Load().(Engine); ok {
		return e
	}
	return nil
}

// View returns the most recently published epoch-pinned view. The call is a
// single atomic load and never blocks the ingest side; it is safe from any
// goroutine. Successive calls may return different views as batches land;
// one View is forever consistent.
func (d *Dynamic) View() *View {
	return d.cur.Load()
}

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
// Basis choice: readers register the views they materialize in latestMat,
// and the new view patches from the newest of them when its capture is at
// most one compaction back — the span Frozen.Since nets. Otherwise there is
// no basis and the view builds from scratch. One compaction generation
// holds at most the delta-log bound, max(8192, liveEdges/8) entries, so a
// view never nets more than about liveEdges/4 + 8192 raw log entries. The
// view's delta over its basis is a pure function of the two views,
// computed on first use (deltaOver), so a publish costs O(1) beyond the
// Freeze and epochs nobody queries never compute one.
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

// registerMaterialized below and the basis tracking in publish treat a view
// as a patching basis once it built either its relabeled graph or its
// original-ID snapshot; whichever artifacts the basis actually holds are
// patched, the rest build from scratch.

// registerMaterialized records that v built a patchable artifact (relabeled
// graph or snapshot), making it a basis candidate for future epochs. Keeps
// the newest such view, but never trades a basis holding the relabeled
// graph for a snapshot-only one: engine patching would silently degrade to
// scratch builds in workloads that interleave snapshot-only readers with
// engine readers. (If v builds its relabeled graph later, Reordered
// re-registers it.)
func (d *Dynamic) registerMaterialized(v *View) {
	for {
		m := d.latestMat.Load()
		if m != nil && m.epoch >= v.epoch {
			return
		}
		if m != nil && m.rgp.Load() != nil && v.rgp.Load() == nil {
			return
		}
		if d.latestMat.CompareAndSwap(m, v) {
			return
		}
	}
}

// Epoch identifies the mutation epoch the view is pinned to; it increases
// monotonically across published views.
func (v *View) Epoch() int64 { return v.epoch }

// NumVertices reports the vertex count at the view's epoch. Internal
// (original) vertex IDs are append-only across epochs: a vertex keeps its ID
// forever, and views of later epochs extend earlier result arrays
// position-for-position.
func (v *View) NumVertices() int { return v.nverts }

// ExternalIDs returns the internal→external ID table of the view's epoch
// (index = the original vertex ID every algorithm result array is keyed by),
// or nil when the graph was never fed through external ingest
// (Dynamic.IngestBatch). The slice is immutable and safe to retain.
func (v *View) ExternalIDs() []uint64 { return v.exts }

// External resolves an internal (original) vertex ID to its external ID;
// ok is false when the view predates external ingest or id is out of range.
func (v *View) External(id VertexID) (ext uint64, ok bool) {
	if v.exts == nil || int(id) >= len(v.exts) {
		return 0, false
	}
	return v.exts[id], true
}

// Resolve maps an external vertex ID to the internal (original) ID all
// algorithm inputs and outputs use; ok is false when the external ID was
// unknown at the view's epoch (it may exist in later views) or the view
// predates external ingest entirely (ExternalIDs() == nil, so Resolve
// stays consistent with External on the same view).
func (v *View) Resolve(ext uint64) (VertexID, bool) {
	if v.exts == nil || v.d == nil {
		return 0, false
	}
	alloc := v.d.alloc.Load()
	if alloc == nil {
		return 0, false
	}
	// The allocator is append-only, so its lookup agrees with the pinned
	// exts table for every ID below the view's vertex count.
	id, ok := alloc.Lookup(ext)
	if !ok || int(id) >= v.nverts {
		return 0, false
	}
	return id, true
}

// NumEdges reports the live edge count at the view's epoch.
func (v *View) NumEdges() int64 { return v.frozen.NumEdges() }

// Ordering returns the view's VEBO ordering.
func (v *View) Ordering() *Result { return &Result{inner: v.ord} }

// Snapshot materializes (once, lazily) the view's graph in original vertex
// IDs. When the basis view already materialized its snapshot, this view's
// is patched from it row-wise through the identity ordering — original IDs
// never change and admitted vertices only extend the row array, so snapshot
// patching works across repair, growth and even rebuild epochs — instead of
// being materialized from the delta log in O(m). The result is immutable
// and safe to share.
func (v *View) Snapshot() *Graph {
	v.snapOnce.Do(func() {
		start := time.Now()
		if b := v.basis.Load(); b != nil {
			if bs := b.snapP.Load(); bs != nil {
				vd := v.deltaOver(b)
				if s, st, err := bs.PatchEdgesN(v.nverts, vd.Adds, vd.Dels); err == nil {
					v.work.graphPatches.Add(1)
					v.work.patchedEdges.Add(st.EdgesMerged)
					v.work.relabelEdges.Add(st.EdgesRemapped)
					v.work.reusedEdges.Add(st.EdgesCopied)
					v.snapP.Store(s)
					v.work.emitGraph(v, "snapshot-patch", start, st.EdgesMerged, st.EdgesCopied)
					return
				}
				// Unreachable for deltas recorded by the dynamic subsystem;
				// fall back to a scratch materialization if it ever happens.
			}
		}
		v.snapP.Store(v.frozen.Materialize())
		v.work.rebuildEdges.Add(v.frozen.NumEdges())
		v.work.graphBuilds.Add(1)
		v.work.emitGraph(v, "snapshot-build", start, v.frozen.NumEdges(), 0)
	})
	snap := v.snapP.Load()
	v.d.registerMaterialized(v)
	return snap
}

// segPerm returns the segment-local injection mapping the basis view's
// new-ID space into this view's, or nil for the identity. Growth alone no
// longer produces an injection at all: within a numbering lineage the slot
// space is fixed and admissions fill reserved headroom slots, so every
// basis position keeps its ID — identity outside the grown segments, and
// the identity on them too (admitted slots have no basis preimage; their
// content arrives as explicit adds). Only placement-preserving moves (swap
// repairs and segment re-sorts) yield a real map: identity
// everywhere except the moved vertices' positions. Valid only while the
// numbering lineage is intact (!delta.PlacementChanged).
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
		// targets — identity where free (in-lineage moves only exchange
		// occupied positions, so it always is), matched to leftover free
		// slots otherwise.
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
				adds, dels := slices.Clone(vd.Adds), slices.Clone(vd.Dels)
				perm := v.ord.Perm
				mapEndpoints(adds, perm)
				mapEndpoints(dels, perm)
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
		return rg, nil
	}
	return nil, v.rgErr
}

// mapEndpoints rewrites edge endpoints through a permutation in place.
func mapEndpoints(edges []graph.Edge, perm []VertexID) {
	for i := range edges {
		edges[i].Src = perm[edges[i].Src]
		edges[i].Dst = perm[edges[i].Dst]
	}
}

// transposed returns (building once, lazily) the transpose of the reordered
// graph, which BC's backward sweep traverses. Transposition shares the CSR
// and CSC arrays, so this costs O(1) on top of Reordered.
func (v *View) transposed() (*Graph, error) {
	v.rgTOnce.Do(func() {
		rg, err := v.Reordered()
		if err != nil {
			v.rgTErr = err
			return
		}
		v.rgT = rg.Transpose()
	})
	return v.rgT, v.rgTErr
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
// basis. Destination-partitioned engine structures (COOs, partition
// metadata, scheduling units) depend only on the in-edges of their range,
// so the exact dirty set is the net delta's destination endpoints, the
// moved vertices' positions and the admitted vertices' positions, mapped
// into the view's relabeled space. (Moves permute IDs within a closed
// position set — a swap or re-sort always parks an incoming
// vertex where an outgoing one sat — so flagging the current positions
// covers every partition whose membership changed.)
func (v *View) dirtyPredicate(b *View) func(lo, hi VertexID) bool {
	v.dirtyOnce.Do(func() {
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
		v.dirtyIDs = slices.Compact(dirty)
	})
	return rangePredicate(v.dirtyIDs)
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
	v.srcOnce.Do(func() {
		perm := v.ord.Perm
		var list []VertexID
		for _, w := range v.deltaOver(b).Moved {
			list = append(list, rg.OutNeighbors(perm[w])...)
		}
		slices.Sort(list)
		v.srcDirty = slices.Compact(list)
	})
	return rangePredicate(v.srcDirty)
}

// Engine returns (building once, lazily) the cached engine for the selected
// framework model. The engine traverses the reordered graph, partitioned on
// the view's VEBO boundaries (coarsened per socket for Polymer). When the
// basis view already built the same engine and the placement is unchanged,
// the engine is patched: structures of clean partitions are shared, dirty
// ones rebuilt.
func (v *View) Engine(sys System) (Engine, error) {
	if sys < Ligra || sys > GraphGrind {
		return nil, fmt.Errorf("vebo: unknown system %v", sys)
	}
	s := &v.eng[sys]
	s.once.Do(func() {
		s.built, s.err = v.buildEngine(sys)
		if s.err == nil {
			s.val.Store(s.built)
		}
	})
	return s.built, s.err
}

// TransposeEngine returns (building once, lazily) the cached engine over the
// transpose of the reordered graph, partitioned by the paper's Algorithm 1
// (VEBO boundaries balance in-edges, which are out-edges in the transpose).
func (v *View) TransposeEngine(sys System) (Engine, error) {
	if sys < Ligra || sys > GraphGrind {
		return nil, fmt.Errorf("vebo: unknown system %v", sys)
	}
	s := &v.engT[sys]
	s.once.Do(func() {
		s.built, s.err = v.buildTransposeEngine(sys)
		if s.err == nil {
			s.val.Store(s.built)
		}
	})
	return s.built, s.err
}

func (v *View) buildEngine(sys System) (Engine, error) {
	rg, err := v.Reordered()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// Ligra keeps no ID-bearing partitioned state, so its rebind survives
	// even full renumberings; the partitioned engines patch only while the
	// numbering lineage is intact (segment-local moves at most).
	if b := v.basis.Load(); b != nil && (sys == Ligra || !v.deltaOver(b).PlacementChanged) {
		if be := b.eng[sys].peek(); be != nil {
			if e, ok := v.patchEngine(sys, b, be, rg); ok {
				cause := "patch"
				if sys == Ligra {
					cause = "rebind"
				}
				v.work.emitEngine(v, cause, sys, start)
				return e, nil
			}
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

// patchEngine derives this view's engine from the basis view b's by
// rebuilding only dirty partitions, remapping partitions whose stored
// source IDs moved, and sharing the rest. Partition boundaries are always
// passed as nil ("unchanged"): within a numbering lineage the slot space is
// fixed — admissions fill reserved headroom slots inside existing segment
// boundaries — so the engines share ranges and partition lookup tables
// outright even across grown epochs, and only a spill (which breaks the
// lineage and forces scratch builds) ever changes the boundaries. Reports
// ok=false to fall back to a scratch build.
func (v *View) patchEngine(sys System, b *View, base Engine, rg *Graph) (Engine, bool) {
	switch sys {
	case Ligra:
		le, ok := base.(*ligra.Ligra)
		if !ok {
			return nil, false
		}
		// Ligra has no partitioned state: reuse the relabeled graph and the
		// vertex-count-derived scheduling units as-is (the slot space is
		// constant within a lineage, so Rebind reuses the units even across
		// grown epochs).
		v.work.enginePatches.Add(1)
		v.work.reusedEdges.Add(rg.NumEdges())
		return le.Rebind(rg), true
	case Polymer:
		pe, ok := base.(*polymer.Polymer)
		if !ok {
			return nil, false
		}
		e, st, err := pe.Patch(rg, v.segPerm(b), nil, v.dirtyPredicate(b))
		if err != nil {
			return nil, false
		}
		v.recordPatch(st)
		return e, true
	default:
		ge, ok := base.(*graphgrind.GraphGrind)
		if !ok {
			return nil, false
		}
		e, st, err := ge.Patch(rg, v.segPerm(b), nil, v.dirtyPredicate(b), v.srcMovedPredicate(b, rg))
		if err != nil {
			return nil, false
		}
		v.recordPatch(st)
		return e, true
	}
}

func (v *View) buildTransposeEngine(sys System) (Engine, error) {
	rgT, err := v.transposed()
	if err != nil {
		return nil, err
	}
	v.work.engineBuilds.Add(1)
	if sys != Ligra {
		v.work.rebuildEdges.Add(rgT.NumEdges())
	}
	opts := v.opts
	opts.Partitions = v.parts
	opts.Bounds = nil
	return NewEngine(sys, rgT, opts)
}

// slots returns the size of the view's engine vertex space: the slot count
// of its (possibly slotted) ordering, ≥ nverts. Engine-space arrays are
// sized by it; original-ID arrays by nverts.
func (v *View) slots() int { return int(v.ord.Slots()) }

// invPerm returns the new-ID → original-ID map, computed once. Reserved
// headroom slots have no original vertex; their entries are zero and must
// not be consulted (algorithm results at hole positions are dropped by
// unpermute before any inv lookup).
func (v *View) invPerm() []VertexID {
	v.invOnce.Do(func() {
		v.inv = make([]VertexID, v.slots())
		for old, nw := range v.ord.Perm {
			v.inv[nw] = VertexID(old)
		}
	})
	return v.inv
}

func (v *View) checkRoot(root VertexID) error {
	if int(root) >= v.nverts {
		return fmt.Errorf("vebo: root %d out of range n=%d", root, v.nverts)
	}
	return nil
}

// unpermute reindexes an engine-space value array back to original IDs. The
// result has one entry per original vertex (len(perm)); values at reserved
// headroom slots — engine positions with no original vertex — are dropped.
func unpermute[T any](perm []VertexID, res []T) []T {
	out := make([]T, len(perm))
	for old, nw := range perm {
		out[old] = res[nw]
	}
	return out
}

// permuteIn reindexes an original-ID value array into an engine space of n
// positions (≥ len(xs) on slotted orderings). Reserved headroom slots take
// the zero value; callers for whom zero is not inert must overwrite them.
func permuteIn[T any](perm []VertexID, xs []T, n int) []T {
	out := make([]T, n)
	for old, nw := range perm {
		out[nw] = xs[old]
	}
	return out
}

// PageRank runs power-method PageRank for iters iterations on the selected
// framework model; ranks are indexed by original vertex ID.
func (v *View) PageRank(sys System, iters int) ([]float64, error) {
	start := time.Now()
	e, err := v.Engine(sys)
	if err != nil {
		return nil, err
	}
	ranks := unpermute(v.ord.Perm, algorithms.PageRankN(e, iters, v.nverts))
	v.work.observeQuery(v, "pagerank", "full", sys, start)
	return ranks, nil
}

// PageRankDelta runs delta-update PageRank; ranks are indexed by original
// vertex ID.
func (v *View) PageRankDelta(sys System, iters int, eps float64) ([]float64, error) {
	start := time.Now()
	e, err := v.Engine(sys)
	if err != nil {
		return nil, err
	}
	ranks := unpermute(v.ord.Perm, algorithms.PageRankDeltaN(e, iters, eps, v.nverts))
	v.work.observeQuery(v, "pagerankdelta", "full", sys, start)
	return ranks, nil
}

// BFS returns the breadth-first parent array from root; both the indices and
// the stored parents are original vertex IDs (-1 marks unreached vertices).
func (v *View) BFS(sys System, root VertexID) ([]int32, error) {
	if err := v.checkRoot(root); err != nil {
		return nil, err
	}
	start := time.Now()
	e, err := v.Engine(sys)
	if err != nil {
		return nil, err
	}
	parents := unpermute(v.ord.Perm, algorithms.BFS(e, v.ord.Perm[root]))
	inv := v.invPerm()
	for i, p := range parents {
		if p >= 0 {
			parents[i] = int32(inv[p])
		}
	}
	v.work.observeQuery(v, "bfs", "full", sys, start)
	return parents, nil
}

// CC returns connected-component labels indexed by original vertex ID. Two
// vertices share a component iff their labels are equal; label values are
// otherwise opaque.
func (v *View) CC(sys System) ([]uint32, error) {
	start := time.Now()
	e, err := v.Engine(sys)
	if err != nil {
		return nil, err
	}
	labels := unpermute(v.ord.Perm, algorithms.CC(e))
	inv := v.invPerm()
	for i, l := range labels {
		labels[i] = inv[l]
	}
	v.work.observeQuery(v, "cc", "full", sys, start)
	return labels, nil
}

// SPMV multiplies the adjacency matrix with x; both x and the result are
// indexed by original vertex ID.
func (v *View) SPMV(sys System, x []float64) ([]float64, error) {
	if len(x) != v.nverts {
		return nil, fmt.Errorf("vebo: SPMV input length %d != n %d", len(x), v.nverts)
	}
	start := time.Now()
	e, err := v.Engine(sys)
	if err != nil {
		return nil, err
	}
	y := unpermute(v.ord.Perm, algorithms.SPMV(e, permuteIn(v.ord.Perm, x, v.slots())))
	v.work.observeQuery(v, "spmv", "full", sys, start)
	return y, nil
}

// BellmanFord returns single-source shortest-path distances from root,
// indexed by original vertex ID.
func (v *View) BellmanFord(sys System, root VertexID) ([]int64, error) {
	if err := v.checkRoot(root); err != nil {
		return nil, err
	}
	start := time.Now()
	e, err := v.Engine(sys)
	if err != nil {
		return nil, err
	}
	dists := unpermute(v.ord.Perm, algorithms.BellmanFord(e, v.ord.Perm[root]))
	v.work.observeQuery(v, "bellmanford", "full", sys, start)
	return dists, nil
}

// BC returns single-source betweenness-centrality scores from root, indexed
// by original vertex ID. The transpose engine for the backward sweep is
// built and cached internally.
func (v *View) BC(sys System, root VertexID) ([]float64, error) {
	if err := v.checkRoot(root); err != nil {
		return nil, err
	}
	start := time.Now()
	e, err := v.Engine(sys)
	if err != nil {
		return nil, err
	}
	eT, err := v.TransposeEngine(sys)
	if err != nil {
		return nil, err
	}
	scores := unpermute(v.ord.Perm, algorithms.BC(e, eT, v.ord.Perm[root]))
	v.work.observeQuery(v, "bc", "full", sys, start)
	return scores, nil
}

// BP runs the belief-propagation workload for iters iterations; prior and
// the result are indexed by original vertex ID.
func (v *View) BP(sys System, iters int, prior []float64) ([]float64, error) {
	if len(prior) != v.nverts {
		return nil, fmt.Errorf("vebo: BP prior length %d != n %d", len(prior), v.nverts)
	}
	start := time.Now()
	e, err := v.Engine(sys)
	if err != nil {
		return nil, err
	}
	beliefs := unpermute(v.ord.Perm, algorithms.BP(e, iters, permuteIn(v.ord.Perm, prior, v.slots())))
	v.work.observeQuery(v, "bp", "full", sys, start)
	return beliefs, nil
}
