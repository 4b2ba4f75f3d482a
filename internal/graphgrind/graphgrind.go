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
	"slices"

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
	ones    []int32  // unweighted: all ones; the lineage's COO weights are its prefixes
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
	coos, ones, err := layout.BuildRanges(g, ranges, cfg.Order, cfg.Engine.Topology.Threads(), nil)
	if err != nil {
		return nil, err
	}
	partOf := make([]uint32, g.NumVertices())
	for i, pt := range parts {
		for v := pt.Lo; v < pt.Hi; v++ {
			partOf[v] = uint32(i)
		}
	}
	return &GraphGrind{g: g, cfg: cfg, parts: parts, ranges: ranges, coos: coos, ones: ones, partOf: partOf}, nil
}

// PatchStats reports how much of an engine rebuild Patch avoided:
// partitions whose COOs and metadata were carried over from the previous
// epoch's engine versus rebuilt, and the edges owned by each group.
// Remapped partitions sit in between: their edge content is unchanged but a
// segment-local renumbering moved some referenced source IDs. Only the
// entries naming a moved vertex count as EdgesRemapped, the modeled cost of
// rewriting them; the rest count as reused, however the result is
// materialized.
type PatchStats struct {
	PartsRebuilt, PartsReused int
	PartsRemapped             int
	EdgesRebuilt, EdgesReused int64
	EdgesRemapped             int64
}

// Patch builds a GraphGrind engine over g — a graph whose edge content
// differs from gg's only inside partitions for which dirty reports true —
// reusing gg's materialized per-partition COOs and metadata for every clean
// partition. g has gg's vertex count and partition boundaries: either the
// vertex placement did not change (perm == nil), or it changed by a
// segment-local permutation perm (old ID → new ID, identity outside the
// moved vertices) that kept every partition's vertex count. Headroom growth
// is the perm == nil case: admitted rows appear inside their partition's
// fixed slot range, so only the grown partitions are dirty. The caller must
// flag partitions owning a moved or admitted vertex as dirty, and
// partitions whose COO references a moved source vertex via srcMoved (nil =
// none).
//
// Dirty partitions count as rebuilt. A source-stale partition (srcMoved,
// not dirty) counts as remapped: its edge content is unchanged, and only
// its entries naming a moved source count as EdgesRemapped, the modeled
// cost of rewriting them through perm. Both are re-gathered from g in one
// layout.BuildRanges pass (a source-stale partition with no such entry
// needs none), and every other partition shares gg's COO, so the patched
// engine is byte-identical to New over g.
func (gg *GraphGrind) Patch(g *graph.Graph, perm []graph.VertexID, dirty, srcMoved func(lo, hi graph.VertexID) bool) (*GraphGrind, PatchStats, error) {
	var st PatchStats
	if g.NumVertices() != gg.g.NumVertices() {
		return nil, st, fmt.Errorf("graphgrind: patch vertex count %d != %d", g.NumVertices(), gg.g.NumVertices())
	}
	if perm != nil && len(perm) != g.NumVertices() {
		return nil, st, fmt.Errorf("graphgrind: patch permutation has %d entries, want %d", len(perm), g.NumVertices())
	}
	off := g.InOffsets()
	parts := slices.Clone(gg.parts)
	coos := slices.Clone(gg.coos)
	var gather []int // partitions re-gathered from g
	for i, pt := range parts {
		switch {
		case dirty(pt.Lo, pt.Hi):
			parts[i].Edges = off[pt.Hi] - off[pt.Lo]
			st.PartsRebuilt++
			st.EdgesRebuilt += parts[i].Edges
			gather = append(gather, i)
		case perm != nil && srcMoved != nil && srcMoved(pt.Lo, pt.Hi):
			var stale int64
			for _, s := range gg.coos[i].Src {
				if perm[s] != s {
					stale++
				}
			}
			st.PartsRemapped++
			st.EdgesRemapped += stale
			st.EdgesReused += pt.Edges - stale
			if stale > 0 {
				gather = append(gather, i)
			}
		default:
			st.PartsReused++
			st.EdgesReused += pt.Edges
		}
	}
	ranges := make([]engine.Range, len(gather))
	for j, i := range gather {
		ranges[j] = gg.ranges[i]
	}
	built, ones, err := layout.BuildRanges(g, ranges, gg.cfg.Order, gg.cfg.Engine.Topology.Threads(), gg.ones)
	if err != nil {
		return nil, st, err
	}
	for j, i := range gather {
		coos[i] = built[j]
	}
	return &GraphGrind{
		g:      g,
		cfg:    gg.cfg,
		parts:  parts,
		ranges: gg.ranges,
		coos:   coos,
		ones:   ones,
		partOf: gg.partOf,
	}, st, nil
}

// Name implements Engine.
func (gg *GraphGrind) Name() string { return "graphgrind" }

// Graph implements Engine.
func (gg *GraphGrind) Graph() *graph.Graph { return gg.g }

// Metrics implements Engine.
func (gg *GraphGrind) Metrics() *engine.Metrics { return &gg.metrics }

// Partitions returns the partition list.
func (gg *GraphGrind) Partitions() []partition.Partition { return gg.parts }

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
	out, _ := engine.SparsePush(gg.g, f, k, engine.SparseChunk, top.Threads())
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
