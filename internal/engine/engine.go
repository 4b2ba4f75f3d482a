// Package engine provides the shared edgemap/vertexmap machinery on which
// the three framework models (internal/ligra, internal/polymer,
// internal/graphgrind) are built. It mirrors the programming model common to
// Ligra, Polymer and GraphGrind, after Ligra's edgeMap/vertexMap (Shun and
// Blelloch, PPoPP 2013): algorithms are iterations of
//
//   - EdgeMap(frontier, kernel): apply a kernel to every edge whose source
//     is active, returning the frontier of destinations the kernel
//     activated; traversal direction (sparse push vs dense pull) follows the
//     direction-optimization heuristic, and
//   - VertexMap(frontier, fn): apply fn to every active vertex, returning
//     the frontier of vertices for which fn returned true.
//
// An EdgeKernel comes in three forms, one per traversal: Pull takes one
// destination's whole in-row (DensePull: Ligra and Polymer), Scatter one
// partition's COO (DenseCOO: GraphGrind), and UpdateAtomic one edge
// (SparsePush). The dense forms take rows rather than edges because that is
// how real Ligra gets its speed: C++ templates inline the update into
// edgeMapDense, and handing a Go kernel the whole row is the equivalent.
//
// Each engine's EdgeMap and VertexMap runs one of the traversals here, then
// hands the step's kind, its input frontier, the per-unit costs and the
// makespan its scheduling rule gives them (and per-partition costs, if it is
// partitioned) to Metrics.Record, the step recorder: the one place a Step is
// built.
//
// # Modeled time
//
// The paper's results are wall-clock measurements on a 48-thread NUMA
// machine. This reproduction cannot assume multiple cores (the CI host has
// one), so parallel-loop timing is *modeled*: every traversal is decomposed
// into scheduling units (vertex chunks or graph partitions), the work in
// each unit is counted in deterministic cost units (edges scanned plus a
// weight per destination/source vertex touched), and the loop's modeled
// time is the makespan of those units under the engine's scheduling
// discipline — max block cost for static scheduling, greedy list-scheduling
// makespan for dynamic scheduling. Reported times come from this
// deterministic model. Execution is still genuinely parallel (goroutines
// with atomic kernels), but at the host's width: the engines pass the
// model's thread count to sched.DynamicChunks, which runs the loop on at
// most GOMAXPROCS goroutines (sched.Workers). A unit's cost does not depend
// on which goroutine ran it. DESIGN.md §1 documents this substitution.
package engine

import (
	"sort"
	"sync"

	"repro/internal/frontier"
	"repro/internal/graph"
)

// Cost-model weights, in abstract units of one edge scan.
const (
	// CostEdge is the cost of scanning one edge.
	CostEdge = 1
	// CostVertex is the cost of touching one destination vertex's state
	// (frontier check, value load/store, loop overhead).
	CostVertex = 4
)

// EdgeKernel is the computation an algorithm supplies to EdgeMap, in one
// form per traversal. The dense forms take a whole row or partition, so the
// update is compiled into the kernel's own loop: the per-edge work is not an
// indirect call, and a destination's running value stays in a register for
// its whole in-row. All three forms must apply the same update to the same
// edges; they differ only in how those edges are handed over.
//
// A dense form may read an inactive source's state, so that the frontier
// test is a select rather than a branch, but that state must never reach
// d: the form masks it to the update's identity (min's maximum, say)
// before it is folded in, and its results, stores and activations equal
// those of a form that skips the source.
type EdgeKernel struct {
	// Pull applies destination d's in-row in dense pull traversal: srcs
	// and ws are d's in-neighbours and weights, in is the input frontier's
	// bitmap over every vertex. It visits srcs in order, applies only the
	// sources active in in, and stores d's value once. It returns whether
	// d became active and the number of edges scanned, which DensePull
	// charges: len(srcs), or for a kernel with an early exit the index of
	// the edge after which d stops accepting updates plus one, and 0 if d
	// accepts none. A single worker owns d, so the store may be
	// non-atomic.
	Pull func(d graph.VertexID, srcs []graph.VertexID, ws []int32, in []bool) (scanned int, active bool)
	// Scatter applies one GraphGrind partition COO (parallel src, dst and
	// weight slices) in its stored order, applying only the sources active
	// in in, and sets out[d] for every destination it activates; in and
	// out are bitmaps over every vertex. Partitions own disjoint
	// destinations, so the updates may be non-atomic.
	Scatter func(src, dst []graph.VertexID, ws []int32, in, out []bool)
	// UpdateAtomic applies edge (s→d) with weight w in sparse push
	// traversal, where several workers may target d concurrently; it
	// returns true if d became newly active. It also carries any check that
	// d still accepts updates.
	UpdateAtomic func(s, d graph.VertexID, w int32) bool
}

// Engine is the interface all three framework models implement, and the
// interface the algorithm suite is written against.
type Engine interface {
	// Name identifies the framework model ("ligra", "polymer",
	// "graphgrind").
	Name() string
	// Graph returns the processed graph.
	Graph() *graph.Graph
	// Rows returns what the engine's sparse steps read: the processed
	// graph, or an overlay equal to it that an engine answering before its
	// graph is derived reads (ligra.Lazy). Reading it never derives.
	Rows() graph.Rows
	// EdgeMap applies k to all edges with active sources and returns the
	// frontier of activated destinations.
	EdgeMap(f *frontier.Frontier, k EdgeKernel) *frontier.Frontier
	// VertexMap applies fn to all active vertices and returns the frontier
	// of vertices for which fn returned true.
	VertexMap(f *frontier.Frontier, fn func(v graph.VertexID) bool) *frontier.Frontier
	// Metrics exposes the accumulated modeled-time accounting.
	Metrics() *Metrics
}

// Base is the state every engine holds: its graph and its step log. An
// engine embeds it for the Engine interface's Graph, Rows and Metrics
// methods.
type Base struct {
	G       *graph.Graph
	metrics Metrics
}

// Graph implements Engine.
func (b *Base) Graph() *graph.Graph { return b.G }

// Rows implements Engine: the graph itself.
func (b *Base) Rows() graph.Rows { return b.G }

// Metrics implements Engine.
func (b *Base) Metrics() *Metrics { return &b.metrics }

// StepKind labels one EdgeMap or VertexMap invocation in the metrics log.
type StepKind int

const (
	StepEdgeMapSparse StepKind = iota
	StepEdgeMapDense
	StepVertexMap
)

func (k StepKind) String() string {
	switch k {
	case StepEdgeMapSparse:
		return "edgemap-sparse"
	case StepEdgeMapDense:
		return "edgemap-dense"
	case StepVertexMap:
		return "vertexmap"
	default:
		return "unknown"
	}
}

// Step records the cost accounting of one parallel loop.
type Step struct {
	Kind           StepKind
	ActiveVertices int64
	ActiveEdges    int64 // out-edges of the input frontier
	TotalCost      int64
	Makespan       int64   // modeled loop time in cost units
	UnitCosts      []int64 // per scheduling unit
	// PartitionCosts holds per-graph-partition costs for partitioned
	// engines: Polymer's dense edge maps, and GraphGrind's edge maps in
	// both directions (in a sparse one, CostEdge per frontier out-edge,
	// binned by destination partition). It is nil for vertex maps, for
	// Ligra and for Polymer's sparse edge maps.
	PartitionCosts []int64
}

// Metrics accumulates Step records and the total modeled time. Accumulation
// is mutex-guarded so engines cached in a concurrent-read context (the
// facade's View API) stay race-free; when several readers share one engine
// their steps interleave in the log. Direct field reads are safe once the
// engine is quiescent.
type Metrics struct {
	mu        sync.Mutex
	Steps     []Step
	ModelTime int64 // sum of step makespans
}

// Record appends the step of one parallel loop, built from its kind, its
// input frontier f, its per-unit costs, the makespan the engine's scheduling
// rule gives them and, for a partitioned engine, per-partition costs (nil
// otherwise), and accumulates the makespan.
func (m *Metrics) Record(kind StepKind, f *frontier.Frontier, costs []int64, makespan int64, partCosts []int64) {
	s := Step{
		Kind:           kind,
		ActiveVertices: f.Count(),
		ActiveEdges:    f.OutEdges(),
		TotalCost:      sum(costs),
		Makespan:       makespan,
		UnitCosts:      costs,
		PartitionCosts: partCosts,
	}
	m.mu.Lock()
	m.Steps = append(m.Steps, s)
	m.ModelTime += makespan
	m.mu.Unlock()
}

// sum totals a cost slice.
func sum(costs []int64) int64 {
	var t int64
	for _, c := range costs {
		t += c
	}
	return t
}

// Reset clears the accumulated metrics.
func (m *Metrics) Reset() {
	m.mu.Lock()
	m.Steps = nil
	m.ModelTime = 0
	m.mu.Unlock()
}

// LastStep returns the most recent step, or nil.
func (m *Metrics) LastStep() *Step {
	if len(m.Steps) == 0 {
		return nil
	}
	return &m.Steps[len(m.Steps)-1]
}

// MakespanStatic models a statically scheduled parallel loop: the units are
// cut into `workers` contiguous blocks with equal unit counts (the loop
// bounds are divided up front, blind to cost), and the loop takes as long as
// its most expensive block.
func MakespanStatic(costs []int64, workers int) int64 {
	n := len(costs)
	if n == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	per := (n + workers - 1) / workers
	var max int64
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		var sum int64
		for _, c := range costs[lo:hi] {
			sum += c
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// MakespanDynamic models a work-stealing scheduler (Cilk): idle workers
// steal the largest remaining work, which classic scheduling theory
// approximates as LPT list scheduling — assign units in decreasing cost
// order to the least-loaded worker. Plain in-order list scheduling would
// charge an end-of-schedule straggler whenever a large unit happens to come
// last, an artifact of unit ordering that work stealing does not exhibit.
func MakespanDynamic(costs []int64, workers int) int64 {
	if len(costs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), costs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	return makespanFIFO(sorted, workers)
}

// makespanFIFO is in-order list scheduling: units are handed out in index
// order to the first free worker, as a FIFO work queue does.
func makespanFIFO(costs []int64, workers int) int64 {
	if len(costs) == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		var sum int64
		for _, c := range costs {
			sum += c
		}
		return sum
	}
	loads := make([]int64, workers)
	for _, c := range costs {
		best := 0
		for i := 1; i < workers; i++ {
			if loads[i] < loads[best] {
				best = i
			}
		}
		loads[best] += c
	}
	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// MakespanGrouped models GraphGrind's two-level scheduling: units are cut
// into `groups` contiguous blocks (static across sockets), each processed by
// workersPerGroup workers pulling from a FIFO queue; the loop takes as long
// as the slowest group. The FIFO model (not LPT) is deliberate: GraphGrind
// cannot subdivide or reorder partitions at run time.
func MakespanGrouped(costs []int64, groups, workersPerGroup int) int64 {
	n := len(costs)
	if n == 0 {
		return 0
	}
	if groups < 1 {
		groups = 1
	}
	per := (n + groups - 1) / groups
	var max int64
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		if t := makespanFIFO(costs[lo:hi], workersPerGroup); t > max {
			max = t
		}
	}
	return max
}

// SparseChunk is the number of frontier vertices per dynamic scheduling
// unit in the engines' sparse traversals.
const SparseChunk = 64
