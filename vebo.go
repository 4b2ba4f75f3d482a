// Package vebo is the public facade of the VEBO reproduction: a Go
// implementation of "VEBO: A Vertex- and Edge-Balanced Ordering Heuristic to
// Load Balance Parallel Graph Processing" (Sun, Vandierendonck,
// Nikolopoulos; PPoPP 2019), together with the three shared-memory
// graph-processing framework models (Ligra, Polymer, GraphGrind styles) the
// paper evaluates on, eight graph algorithms, baseline orderings and a
// benchmark harness regenerating every table and figure of the paper.
//
// The typical pipeline mirrors the paper's Figure 2:
//
//	g, _ := vebo.Generate("twitter", 0.2, 42)      // or LoadAdjacency
//	res, _ := vebo.Reorder(g, 384)                  // VEBO ordering
//	rg, _ := res.Apply(g)                           // isomorphic reordered graph
//	eng, _ := vebo.NewEngine(vebo.GraphGrind, rg,   // processing engine
//	    vebo.EngineOptions{Bounds: res.Boundaries()})
//	ranks := vebo.PageRank(eng, 10)
//
// See DESIGN.md for the system inventory and DESIGN.md §3 for the experiment
// index regenerating the paper's tables and figures (cmd/bench).
package vebo

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphgrind"
	"repro/internal/layout"
	"repro/internal/ligra"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/polymer"
)

// Graph is a directed graph in CSR+CSC form (see internal/graph).
type Graph = graph.Graph

// Edge is a weighted directed edge.
type Edge = graph.Edge

// VertexID identifies a vertex.
type VertexID = graph.VertexID

// Result is a VEBO ordering (permutation, partition assignment and balance
// counts).
type Result struct {
	inner *core.Result
}

// Perm returns the permutation (old ID → new ID).
func (r *Result) Perm() []VertexID { return r.inner.Perm }

// Boundaries returns the partition end points in the new ID space.
func (r *Result) Boundaries() []int64 { return r.inner.Boundaries() }

// EdgeImbalance returns Δ(n), the spread of per-partition edge counts.
func (r *Result) EdgeImbalance() int64 { return r.inner.EdgeImbalance() }

// VertexImbalance returns δ(n), the spread of per-partition vertex counts.
func (r *Result) VertexImbalance() int64 { return r.inner.VertexImbalance() }

// Apply relabels g with the ordering, returning the reordered graph.
func (r *Result) Apply(g *Graph) (*Graph, error) { return core.Apply(g, r.inner) }

// Reorder computes the VEBO ordering of g into p partitions: per-partition
// in-edge counts and destination-vertex counts are jointly balanced
// (optimally so, for power-law graphs meeting the paper's Theorem 1/2
// preconditions).
func Reorder(g *Graph, p int) (*Result, error) {
	r, err := core.Reorder(g, p, core.Options{})
	if err != nil {
		return nil, err
	}
	return &Result{inner: r}, nil
}

// Generate builds one of the paper's workload graphs by recipe name
// (twitter, friendster, orkut, livejournal, yahoo, usaroad, powerlaw, rmat)
// at the given scale (1.0 ≈ 10^5 vertices).
func Generate(recipe string, scale float64, seed int64) (*Graph, error) {
	r, err := gen.RecipeByName(recipe)
	if err != nil {
		return nil, err
	}
	return r.Build(scale, seed)
}

// FromEdges builds a graph from an edge list.
func FromEdges(n int, edges []Edge, weighted bool) (*Graph, error) {
	return graph.FromEdges(n, edges, weighted)
}

// LoadAdjacency reads a graph in Ligra (Weighted)AdjacencyGraph format.
func LoadAdjacency(r io.Reader) (*Graph, error) { return graph.ReadAdjacency(r) }

// SaveAdjacency writes a graph in Ligra (Weighted)AdjacencyGraph format.
func SaveAdjacency(w io.Writer, g *Graph) error { return graph.WriteAdjacency(w, g) }

// System selects a framework model.
type System int

const (
	// Ligra models Shun & Blelloch's Ligra: no partitioning, dynamic
	// scheduling.
	Ligra System = iota
	// Polymer models Zhang et al.'s Polymer: one partition per NUMA socket,
	// static scheduling.
	Polymer
	// GraphGrind models Sun et al.'s GraphGrind: many partitions, two-level
	// scheduling, COO dense traversal.
	GraphGrind
)

func (s System) String() string {
	switch s {
	case Ligra:
		return "ligra"
	case Polymer:
		return "polymer"
	case GraphGrind:
		return "graphgrind"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// Engine is the edgemap/vertexmap processing interface shared by the three
// framework models; see internal/engine for the full contract.
type Engine = engine.Engine

// EngineOptions tunes engine construction.
type EngineOptions struct {
	// Sockets and ThreadsPerSocket describe the virtual NUMA machine
	// (default: the paper's 4×12).
	Sockets, ThreadsPerSocket int
	// Partitions is GraphGrind's partition count (default 384).
	Partitions int
	// Bounds supplies explicit partition boundaries (e.g.
	// Result.Boundaries()); nil selects the paper's Algorithm 1. GraphGrind
	// takes Partitions+1 of them; Polymer merges any list of at least
	// Sockets+1 into one range per socket; Ligra ignores them.
	Bounds []int64
}

// NewEngine constructs the selected framework model over g.
func NewEngine(sys System, g *Graph, opts EngineOptions) (Engine, error) {
	top := opts.topology()
	switch sys {
	case Ligra:
		return ligra.New(g, top), nil
	case Polymer:
		return polymer.New(g, polymer.Config{Topology: top, Bounds: opts.Bounds})
	case GraphGrind:
		return graphgrind.New(g, graphgrind.Config{
			Topology:   top,
			Partitions: opts.Partitions,
			Order:      layout.CSROrder,
			Bounds:     opts.Bounds,
		})
	default:
		return nil, fmt.Errorf("vebo: unknown system %v", sys)
	}
}

// topology returns the virtual NUMA machine the options describe.
func (opts EngineOptions) topology() numa.Topology {
	top := numa.Default()
	if opts.Sockets > 0 {
		top.Sockets = opts.Sockets
	}
	if opts.ThreadsPerSocket > 0 {
		top.ThreadsPerSocket = opts.ThreadsPerSocket
	}
	return top
}

// The eight benchmark algorithms of the paper's Table II, re-exported from
// internal/algorithms. Each runs on any Engine.

// PageRank runs the power-method PageRank for iters iterations.
func PageRank(e Engine, iters int) []float64 { return algorithms.PageRank(e, iters) }

// PageRankDelta runs delta-update PageRank; vertices leave the frontier when
// their rank change falls below eps relative to their rank.
func PageRankDelta(e Engine, iters int, eps float64) []float64 {
	return algorithms.PageRankDelta(e, iters, eps)
}

// BFS returns the parent array of a breadth-first search from root.
func BFS(e Engine, root VertexID) []int32 { return algorithms.BFS(e, root) }

// CC returns label-propagation component labels.
func CC(e Engine) []uint32 { return algorithms.CC(e) }

// SPMV multiplies the adjacency matrix with x.
func SPMV(e Engine, x []float64) []float64 { return algorithms.SPMV(e, x) }

// BellmanFord returns single-source shortest-path distances from root.
func BellmanFord(e Engine, root VertexID) []int64 { return algorithms.BellmanFord(e, root) }

// BC returns single-source betweenness-centrality scores; eT must process
// the transpose of e's graph.
func BC(e, eT Engine, root VertexID) []float64 { return algorithms.BC(e, eT, root) }

// BP runs the belief-propagation workload for iters iterations with the
// given priors.
func BP(e Engine, iters int, prior []float64) []float64 { return algorithms.BP(e, iters, prior) }

// Dynamic graphs: streaming edge ingestion with incremental VEBO
// maintenance (see internal/dynamic and DESIGN.md §5).

// EdgeUpdate is one timestamped edge insertion or deletion in a stream.
type EdgeUpdate = graph.EdgeUpdate

// DynamicStats re-exports the dynamic subsystem's work counters.
type DynamicStats = dynamic.Stats

// DynamicBatchResult re-exports the per-batch maintenance report.
type DynamicBatchResult = dynamic.BatchResult

// DynamicOptions tunes a dynamic graph. The zero value selects the defaults
// documented in internal/dynamic.Config. Growth headroom is not tunable:
// once the vertex space grows, each partition segment reserves
// max(4, occupied/8) admission slots at its tail.
type DynamicOptions struct {
	// Partitions is the VEBO partition count maintained live (default 64).
	Partitions int
	// RebuildThreshold is the Δ(n) above which maintenance runs (default 2).
	RebuildThreshold int64
	// VertexRebuildThreshold is the δ(n) above which maintenance runs
	// (default 4); see internal/dynamic.Config.
	VertexRebuildThreshold int64
	// CompactEvery bounds the delta log before compaction (default:
	// adaptive, max(8192, liveEdges/8)).
	CompactEvery int
	// Engine configures the engines cached on published views: the virtual
	// NUMA topology only. Partition counts and bounds come from the live
	// ordering, so NewDynamic rejects options that set them.
	Engine EngineOptions
	// DisableViewReuse forces every view to rebuild its relabeled graph and
	// engines from scratch instead of patching them from the previous
	// epoch's. Exists for the engine-build amortization experiment
	// (bench -exp view).
	DisableViewReuse bool
	// SpanCapacity sizes the causal span ring (number of retained spans;
	// default obs.DefaultSpanCapacity). The span ring and the metrics
	// registry are always on. Spans record every lifecycle step with its
	// cause, linking each query to the publish span of the epoch it read and
	// each maintenance step to the batch that triggered it; reachable via
	// Spans and exported as Chrome Trace Event JSON on the /spans endpoint of
	// ObsHandler and serve -http.
	SpanCapacity int
}

// Dynamic is a mutable graph whose VEBO ordering is maintained incrementally
// under streaming edge updates. Mutation is single-writer: one goroutine
// calls ApplyBatch (and Compact). Any number of concurrent reader goroutines
// query through View(), which pins an immutable epoch; the writer publishes
// a fresh view after every batch with a lock-free pointer swap. The
// remaining methods (Snapshot, Ordering, Imbalance, Stats) read live state
// and belong to the writer side.
type Dynamic struct {
	inner   *dynamic.Graph
	engOpts EngineOptions
	reuse   bool
	work    *viewWork
	reg     *obs.Registry
	spans   *obs.Spans
	cur     atomic.Pointer[View]

	// alloc maps external vertex IDs onto the dense internal space; nil
	// until the first IngestBatch call (dense-ID callers never pay for it).
	// Atomic because reader goroutines resolve externals through views
	// (View.Resolve) concurrently with the writer installing it.
	alloc atomic.Pointer[dynamic.Allocator]
}

// NewDynamic wraps g for streaming updates, computing the initial ordering
// and publishing the epoch-0 view.
func NewDynamic(g *Graph, opts DynamicOptions) (*Dynamic, error) {
	if opts.Engine.Partitions != 0 || opts.Engine.Bounds != nil {
		return nil, fmt.Errorf("vebo: DynamicOptions.Engine sets partitions or bounds; views take both from the live ordering")
	}
	reg := obs.NewRegistry()
	spans := obs.NewSpans(opts.SpanCapacity)
	inner, err := dynamic.New(g, dynamic.Config{
		Partitions:             opts.Partitions,
		RebuildThreshold:       opts.RebuildThreshold,
		VertexRebuildThreshold: opts.VertexRebuildThreshold,
		CompactEvery:           opts.CompactEvery,
		Metrics:                reg,
		Spans:                  spans,
	})
	if err != nil {
		return nil, err
	}
	d := &Dynamic{
		inner:   inner,
		engOpts: opts.Engine,
		reuse:   !opts.DisableViewReuse,
		work:    newViewWork(reg, spans),
		reg:     reg,
		spans:   spans,
	}
	d.publish(time.Now())
	return d, nil
}

// MetricsRegistry re-exports the observability registry type; see
// internal/obs and DESIGN.md §6 for the metric vocabulary.
type MetricsRegistry = obs.Registry

// SpanCollector re-exports the causal span ring: completed spans linking
// each query to the publish span of the epoch it read, and each
// maintenance step to the batch that caused it. See internal/obs.Spans.
type SpanCollector = obs.Spans

// SpanEvent re-exports one completed causal span.
type SpanEvent = obs.Span

// Metrics returns the graph's metrics registry: every vebo_* counter, gauge
// and latency histogram the ingest, maintenance, view and query layers emit.
// Safe from any goroutine.
func (d *Dynamic) Metrics() *MetricsRegistry { return d.reg }

// Spans returns the causal span ring: per epoch, what the pipeline did and
// why. Every batch, maintenance step (threshold-tripped repair, rebuild and
// its cause, growth admission), publish, graph/engine build (patched vs
// rebuilt) and query files a span; parent links encode the causality
// (batch → repair/rebuild → publish → query; growth spans are parentless).
// Safe from any goroutine; export via SpanCollector.WriteChromeTrace or the
// /spans endpoint.
func (d *Dynamic) Spans() *SpanCollector { return d.spans }

// ObsHandler returns an http.Handler serving /metrics (Prometheus text),
// /metrics.json and /spans (Chrome Trace Event JSON) for this graph.
func (d *Dynamic) ObsHandler() http.Handler { return obs.Handler(d.reg, d.spans) }

// ApplyBatch applies the updates in order, runs the threshold-gated
// incremental ordering maintenance at the end of the batch, and publishes a
// fresh View of the post-batch epoch. Every endpoint must already exist
// (below NumVertices); new vertices enter through IngestBatch.
// Single-writer.
func (d *Dynamic) ApplyBatch(updates []EdgeUpdate) (DynamicBatchResult, error) {
	received := time.Now()
	res, err := d.inner.ApplyBatch(updates)
	d.publish(received)
	return res, err
}

// ExternalEdgeUpdate is one timestamped edge insertion or deletion whose
// endpoints are arbitrary, application-chosen external vertex IDs (sparse
// 64-bit values). IngestBatch maps them onto the dense internal ID space
// through the graph's allocator, admitting never-before-seen vertices.
type ExternalEdgeUpdate struct {
	Time int64
	Src  uint64
	Dst  uint64
	// Weight is the weight of an inserted edge (0 means 1 on weighted
	// graphs); for deletions a non-zero value selects among parallel edges.
	Weight int32
	// Del selects deletion of one (Src,Dst) edge occurrence.
	Del bool
}

// IngestBatch is the external-ID ingest path: updates may mention vertices
// that have never been seen before. Unseen endpoints of insertions are
// interned — allocated the next dense internal IDs and admitted to the
// graph as zero-degree vertices on the least-loaded partitions — before the
// batch is applied and a fresh View published. Deletions mentioning an
// unknown external ID fail (there is no such edge), stopping the batch like
// any invalid update; updates before the failing one remain applied.
// Single-writer, like ApplyBatch. Views expose the external↔internal
// mapping via View.ExternalIDs, View.External and View.Resolve; algorithm
// result arrays stay indexed by internal ID, whose external key is stable
// across epochs because internal IDs are append-only.
//
// IngestBatch is the only way a vertex enters the graph; ApplyBatch rejects
// an endpoint at or beyond NumVertices. The allocator is seeded with the
// identity on the vertices present at the first call, so a dense-ID stream
// that mints new IDs in order (n, n+1, …, each first named by the update
// that introduces it, as GenerateStreamOpts's GrowFrac streams do) keeps
// internal ID = stream ID.
func (d *Dynamic) IngestBatch(updates []ExternalEdgeUpdate) (DynamicBatchResult, error) {
	received := time.Now()
	alloc := d.alloc.Load()
	if alloc == nil {
		alloc = dynamic.NewAllocator()
		// Vertices that predate external ingest keep their dense IDs as
		// external identity.
		alloc.SeedIdentity(d.inner.NumVertices())
		d.alloc.Store(alloc)
	}
	ups := make([]EdgeUpdate, 0, len(updates))
	var ingestErr error
	for i, u := range updates {
		var src, dst VertexID
		if u.Del {
			var ok bool
			if src, ok = alloc.Lookup(u.Src); ok {
				dst, ok = alloc.Lookup(u.Dst)
			}
			if !ok {
				ingestErr = fmt.Errorf("vebo: ingest update %d: delete of edge (%d,%d) with unknown endpoint", i, u.Src, u.Dst)
				break
			}
		} else {
			src, _ = alloc.Intern(u.Src)
			dst, _ = alloc.Intern(u.Dst)
		}
		ups = append(ups, EdgeUpdate{Time: u.Time, Src: src, Dst: dst, Weight: u.Weight, Del: u.Del})
	}
	// Admit every interned vertex even when a later update failed, keeping
	// the allocator and the graph's vertex space in lockstep.
	res, err := d.inner.AdmitBatch(alloc.Len()-d.inner.NumVertices(), ups)
	d.publish(received)
	if err == nil {
		err = ingestErr
	}
	return res, err
}

// Snapshot builds the live graph in original vertex IDs as an immutable
// CSR+CSC Graph any of the three engines can traverse. Each call freezes
// the live graph and builds that capture's edge multiset from scratch
// (nothing is cached); the result is never mutated afterwards.
func (d *Dynamic) Snapshot() *Graph { return d.inner.Snapshot() }

// NumVertices reports the current vertex count; IngestBatch admissions
// raise it.
func (d *Dynamic) NumVertices() int { return d.inner.NumVertices() }

// Imbalance returns the incrementally tracked Δ(n) (edge) and δ(n) (vertex)
// partition imbalances.
func (d *Dynamic) Imbalance() (edge, vertex int64) {
	return d.inner.EdgeImbalance(), d.inner.VertexImbalance()
}

// Ordering returns the current VEBO ordering of the live graph.
func (d *Dynamic) Ordering() *Result { return &Result{inner: d.inner.Ordering()} }

// Stats returns the accumulated maintenance work counters: a read of the
// vebo_* counters in Metrics().
func (d *Dynamic) Stats() DynamicStats { return d.inner.Stats() }

// Headroom reports the growth headroom of the current ordering: the number
// of free reserved slots across all partition segments and the total slot
// capacity. Both are 0 until the first admission converts the lineage to a
// slotted ordering.
func (d *Dynamic) Headroom() (free, capacity int64) { return d.inner.Headroom() }

// Compact starts a new delta-log generation. Its base is the live graph in
// the current ordering's slot space, derived from the newest slot graph of
// the old generation: the last one a view registered, or else the old base.
func (d *Dynamic) Compact() { d.inner.Compact() }

// GenerateStream builds the named recipe graph and a derived churn stream of
// ops timestamped edge updates whose deletion rate and attachment skew match
// the recipe's real-world counterpart.
func GenerateStream(recipe string, scale float64, ops int, seed int64) (*Graph, []EdgeUpdate, error) {
	return gen.StreamFromRecipe(recipe, scale, ops, seed, gen.RecipeStreamOptions{})
}

// StreamOptions tunes GenerateStreamOpts beyond the recipe churn profile:
// GrowFrac for vertex arrivals.
type StreamOptions = gen.RecipeStreamOptions

// GenerateStreamOpts is GenerateStream with extra options. With a non-zero
// GrowFrac the stream interleaves vertex arrivals with the edge churn: new
// vertices take dense IDs beyond the base graph, in order, so feed it
// through Dynamic.IngestBatch (each update's endpoints as external IDs),
// which admits them under internal IDs equal to their stream IDs.
func GenerateStreamOpts(recipe string, scale float64, ops int, seed int64, opts StreamOptions) (*Graph, []EdgeUpdate, error) {
	return gen.StreamFromRecipe(recipe, scale, ops, seed, opts)
}

// Baseline orderings (permutations old ID → new ID), for comparison with
// Reorder.

// OrderRCM computes the Reverse Cuthill-McKee ordering.
func OrderRCM(g *Graph) []VertexID { return order.RCM(g) }

// OrderGorder computes the Gorder ordering with window w (0 = default 5).
func OrderGorder(g *Graph, w int) []VertexID {
	return order.Gorder(g, order.GorderConfig{Window: w})
}

// OrderRandom computes a seeded uniformly random permutation.
func OrderRandom(g *Graph, seed int64) []VertexID { return order.Random(g, seed) }

// OrderDegreeSort orders vertices by decreasing in-degree.
func OrderDegreeSort(g *Graph) []VertexID { return order.DegreeSort(g) }
