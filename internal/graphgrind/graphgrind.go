// Package graphgrind models the GraphGrind framework (Sun, Vandierendonck &
// Nikolopoulos, ICS'17): the graph is cut into many more partitions than
// threads (384 by default), partitions are statically bound to sockets and
// processed dynamically within a socket, and dense frontiers traverse a
// per-partition COO whose edge order is either the Hilbert space-filling
// curve (GraphGrind's default) or CSR order (the paper's Section V-G
// finding: CSR order is superior once VEBO equalizes the per-partition
// degree mix).
package graphgrind

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/partition"
)

// DefaultPartitions is the partition count the GraphGrind paper recommends
// and this paper uses throughout.
const DefaultPartitions = 384

// Config parameterizes the GraphGrind model.
type Config struct {
	Engine engine.Config
	// Partitions is the partition count (default 384).
	Partitions int
	// Order is the COO edge order for dense traversal: layout.HilbertOrder
	// (GraphGrind's default) or layout.CSROrder (best with VEBO).
	Order layout.Order
	// Bounds optionally supplies partition boundaries (Partitions+1
	// entries), e.g. VEBO's Result.Boundaries; nil selects Algorithm 1.
	Bounds []int64
}

// GraphGrind is an Engine with GraphGrind's partitioning and scheduling.
type GraphGrind struct {
	g       *graph.Graph
	cfg     Config
	parts   []partition.Partition
	ranges  []engine.Range
	coos    []*layout.COO
	partOf  []uint32 // destination vertex -> partition index
	metrics engine.Metrics
}

// New builds a GraphGrind engine, materializing one COO per partition.
func New(g *graph.Graph, cfg Config) (*GraphGrind, error) {
	cfg.Engine = cfg.Engine.WithDefaults()
	if cfg.Partitions <= 0 {
		cfg.Partitions = DefaultPartitions
	}
	var parts []partition.Partition
	var err error
	if cfg.Bounds != nil {
		if len(cfg.Bounds) != cfg.Partitions+1 {
			return nil, fmt.Errorf("graphgrind: bounds must have %d entries, got %d",
				cfg.Partitions+1, len(cfg.Bounds))
		}
		parts, err = partition.ByVertexRanges(g, cfg.Bounds)
	} else {
		parts, err = partition.ByDestination(g, cfg.Partitions)
	}
	if err != nil {
		return nil, err
	}
	ranges := make([]engine.Range, len(parts))
	for i, pt := range parts {
		ranges[i] = engine.Range{Lo: pt.Lo, Hi: pt.Hi}
	}
	coos, err := engine.BuildPartitionCOOs(g, ranges, cfg.Order, cfg.Engine.Topology.Threads())
	if err != nil {
		return nil, err
	}
	partOf := make([]uint32, g.NumVertices())
	for i, pt := range parts {
		for v := pt.Lo; v < pt.Hi; v++ {
			partOf[v] = uint32(i)
		}
	}
	return &GraphGrind{g: g, cfg: cfg, parts: parts, ranges: ranges, coos: coos, partOf: partOf}, nil
}

// Patch builds a GraphGrind engine over g — a graph whose edge content
// differs from gg's only inside partitions for which dirty reports true —
// reusing gg's materialized per-partition COOs and metadata for every clean
// partition. The caller guarantees that gg's partition structure still
// applies to g in one of two shapes. With bounds == nil, g has the same
// vertex count and the boundaries are unchanged: either the vertex
// placement did not change between the two graphs (perm == nil), or it
// changed by a segment-local permutation perm (old ID → new ID, identity
// outside the moved vertices) that kept every partition's vertex count —
// and therefore the boundaries — fixed. Headroom growth (dynamic.Graph
// admitting vertices into reserved slots at a segment's tail) is the
// bounds == nil, perm == nil case: the slot-space boundaries are constant
// across the lineage and the admitted rows appear inside their partition's
// fixed range, so only the grown partitions are dirty and the COO rewrite
// is confined to them — every other partition shares its COO outright with
// no remap pass. With non-nil bounds (len(parts)+1 entries), the vertex
// space may additionally have grown with moved boundaries: bounds are the
// new partition boundaries, perm is an injection of the old ID space into
// [0, bounds[last]) (the pre-headroom segment-growth shape: a
// per-partition shift plus swaps), and g has bounds[last] vertices. The
// caller must flag partitions owning a moved or admitted vertex as dirty,
// and partitions whose COO references a moved source vertex via srcMoved
// (nil = none). Dirty and grown partitions are rebuilt from g; partitions
// that merely shifted or hold stale source references are remapped — a
// linear copy with IDs rewritten through perm — and everything else shares
// the previous epoch's structures outright.
//
// Remapped COOs keep their entry order, so a Hilbert- or CSR-ordered COO is
// no longer strictly sorted at the handful of rewritten entries. Entry
// order only shapes the modeled memory-access locality (dense traversal
// applies the kernel per edge regardless of order), so correctness is
// unaffected; the order fully heals at the partition's next rebuild.
func (gg *GraphGrind) Patch(g *graph.Graph, perm []graph.VertexID, bounds []int64, dirty, srcMoved func(lo, hi graph.VertexID) bool) (*GraphGrind, engine.PatchStats, error) {
	var st engine.PatchStats
	nNew := gg.g.NumVertices()
	if bounds != nil {
		if len(bounds) != len(gg.parts)+1 {
			return nil, st, fmt.Errorf("graphgrind: patch bounds must have %d entries, got %d", len(gg.parts)+1, len(bounds))
		}
		nNew = int(bounds[len(bounds)-1])
	}
	if g.NumVertices() != nNew {
		return nil, st, fmt.Errorf("graphgrind: patch vertex count %d != %d", g.NumVertices(), nNew)
	}
	parts := make([]partition.Partition, len(gg.parts))
	coos := make([]*layout.COO, len(gg.coos))
	var rebuild []int // built in one parallel pass below, as New builds
	for i, pt := range gg.parts {
		newLo, newHi := pt.Lo, pt.Hi
		if bounds != nil {
			newLo, newHi = graph.VertexID(bounds[i]), graph.VertexID(bounds[i+1])
		}
		parts[i] = partition.Partition{Lo: newLo, Hi: newHi, Edges: pt.Edges}
		shifted := newLo != pt.Lo
		grown := newHi-newLo != pt.Hi-pt.Lo
		if dirty(newLo, newHi) || grown || (shifted && perm == nil) {
			rebuild = append(rebuild, i)
			continue
		}
		if perm != nil && (shifted || (srcMoved != nil && srcMoved(newLo, newHi))) {
			c, rewritten, ok := remapCOO(gg.coos[i], perm, int64(newLo)-int64(pt.Lo))
			if !ok {
				// A destination moved (or a vertex was admitted) inside a
				// partition the caller claimed clean; rebuild defensively
				// rather than trust the contract.
				rebuild = append(rebuild, i)
				continue
			}
			coos[i] = c
			st.PartsRemapped++
			st.EdgesRemapped += rewritten
			st.EdgesReused += pt.Edges - rewritten
			continue
		}
		coos[i] = gg.coos[i]
		st.PartsReused++
		st.EdgesReused += pt.Edges
	}
	rebuildRanges := make([]engine.Range, len(rebuild))
	for j, i := range rebuild {
		rebuildRanges[j] = engine.Range{Lo: parts[i].Lo, Hi: parts[i].Hi}
	}
	built, err := engine.BuildPartitionCOOs(g, rebuildRanges, gg.cfg.Order, gg.cfg.Engine.Topology.Threads())
	if err != nil {
		return nil, st, err
	}
	off := g.InOffsets()
	for j, i := range rebuild {
		parts[i].Edges = off[parts[i].Hi] - off[parts[i].Lo]
		coos[i] = built[j]
		st.PartsRebuilt++
		st.EdgesRebuilt += parts[i].Edges
	}
	ranges := gg.ranges
	partOf := gg.partOf
	if bounds != nil {
		ranges = make([]engine.Range, len(parts))
		partOf = make([]uint32, nNew)
		for i, pt := range parts {
			ranges[i] = engine.Range{Lo: pt.Lo, Hi: pt.Hi}
			for v := pt.Lo; v < pt.Hi; v++ {
				partOf[v] = uint32(i)
			}
		}
	}
	return &GraphGrind{
		g:      g,
		cfg:    gg.cfg,
		parts:  parts,
		ranges: ranges,
		coos:   coos,
		partOf: partOf,
	}, st, nil
}

// remapCOO copies c with stale endpoint IDs rewritten through perm. A clean
// partition's in-edge content is unchanged, so its destinations must map
// uniformly by the partition's shift delta (a swapped or admitted
// destination would mean the content changed); ok=false reports a violation
// so the caller can rebuild. Source vertices may move arbitrarily.
// rewritten counts the entries whose stored IDs actually changed — with a
// zero delta that is only the entries referencing a moved source, and the
// rewrite is restricted to them: identity entries block-copy, the
// destination array is shared, and a COO with no stale entry at all is
// shared outright without allocating. The weight array is always shared
// with c, which is immutable.
func remapCOO(c *layout.COO, perm []graph.VertexID, delta int64) (*layout.COO, int64, bool) {
	for _, d := range c.Dst {
		if int(d) >= len(perm) || int64(perm[d]) != int64(d)+delta {
			return nil, 0, false
		}
	}
	var stale int64
	for _, s := range c.Src {
		if int(s) >= len(perm) {
			return nil, 0, false
		}
		if perm[s] != s {
			stale++
		}
	}
	if delta == 0 && stale == 0 {
		return c, 0, true
	}
	src := make([]graph.VertexID, len(c.Src))
	for i, s := range c.Src {
		src[i] = perm[s]
	}
	dst := c.Dst
	rewritten := stale
	if delta != 0 {
		dst = make([]graph.VertexID, len(c.Dst))
		for i, d := range c.Dst {
			dst[i] = graph.VertexID(int64(d) + delta)
		}
		rewritten = int64(len(c.Src))
	}
	return &layout.COO{Src: src, Dst: dst, Weight: c.Weight, Ordering: c.Ordering}, rewritten, true
}

// Name implements Engine.
func (gg *GraphGrind) Name() string { return "graphgrind" }

// Graph implements Engine.
func (gg *GraphGrind) Graph() *graph.Graph { return gg.g }

// Metrics implements Engine.
func (gg *GraphGrind) Metrics() *engine.Metrics { return &gg.metrics }

// Partitions returns the partition list.
func (gg *GraphGrind) Partitions() []partition.Partition { return gg.parts }

// EdgeOrder returns the dense-traversal COO order in use.
func (gg *GraphGrind) EdgeOrder() layout.Order { return gg.cfg.Order }

// EdgeMap implements Engine. Dense frontiers traverse per-partition COOs
// with two-level (static-across-sockets, dynamic-within) scheduling; sparse
// frontiers push with intra-socket dynamic scheduling.
func (gg *GraphGrind) EdgeMap(f *frontier.Frontier, k engine.EdgeKernel) *frontier.Frontier {
	top := gg.cfg.Engine.Topology
	if f.ShouldBeDense(gg.g.NumEdges()) {
		out, costs := engine.DenseCOO(gg.g, f, k, gg.coos, gg.ranges, top.Threads())
		gg.metrics.Add(engine.Step{
			Kind:           engine.StepEdgeMapDense,
			ActiveVertices: f.Count(),
			ActiveEdges:    f.OutEdges(),
			TotalCost:      engine.Sum(costs),
			Makespan:       engine.MakespanGrouped(costs, top.Sockets, top.ThreadsPerSocket),
			UnitCosts:      costs,
			PartitionCosts: costs,
		})
		return out
	}
	// Sparse traversal still pushes along the frontier's out-edges, but
	// GraphGrind's work is bound to the destination partitions, which are
	// statically assigned to sockets: a sparse iteration whose active edges
	// concentrate in few partitions serializes on their sockets. This is
	// exactly the effect the paper's Table IV measures — VEBO's uniform
	// distribution of high- and low-degree vertices over partitions raises
	// the per-partition minimum and cuts the spread.
	out, _ := engine.SparsePush(gg.g, f, k, gg.cfg.Engine.SparseChunk, top.Threads())
	partCosts := make([]int64, len(gg.parts))
	for _, s := range f.Sparse() {
		for _, d := range gg.g.OutNeighbors(s) {
			partCosts[gg.partOf[d]] += engine.CostEdge
		}
	}
	gg.metrics.Add(engine.Step{
		Kind:           engine.StepEdgeMapSparse,
		ActiveVertices: f.Count(),
		ActiveEdges:    f.OutEdges(),
		TotalCost:      engine.Sum(partCosts),
		Makespan:       engine.MakespanGrouped(partCosts, top.Sockets, top.ThreadsPerSocket),
		UnitCosts:      partCosts,
		PartitionCosts: partCosts,
	})
	return out
}

// VertexMap implements Engine: iterations spread statically over all
// threads, as in Polymer.
func (gg *GraphGrind) VertexMap(f *frontier.Frontier, fn func(v graph.VertexID) bool) *frontier.Frontier {
	threads := gg.cfg.Engine.Topology.Threads()
	out, costs := engine.VertexMapStatic(gg.g, f, fn, threads, threads)
	gg.metrics.Add(engine.Step{
		Kind:           engine.StepVertexMap,
		ActiveVertices: f.Count(),
		ActiveEdges:    f.OutEdges(),
		TotalCost:      engine.Sum(costs),
		Makespan:       engine.MakespanStatic(costs, threads),
		UnitCosts:      costs,
	})
	return out
}
