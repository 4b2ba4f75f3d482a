package vebo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/obs"
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
// moved vertex. The relabeled graph is the only artifact patched across
// epochs; the snapshot in original vertex IDs is materialized from the
// view's own capture. ViewWork reports the resulting
// rebuild-versus-patch-versus-relabel work split.
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
	snap     *Graph

	rgOnce sync.Once
	rgp    atomic.Pointer[Graph] // read by later views choosing what to patch from
	rgErr  error

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
			v.dropSpentBasis()
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
