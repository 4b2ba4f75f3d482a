// Package ligra models the Ligra framework (Shun & Blelloch, PPoPP'13): no
// explicit graph partitioning, Cilk-style dynamic scheduling, and no
// locality optimization. Dense (pull) edgemaps recursively split the whole
// vertex range down to a grain; sparse (push) edgemaps chunk the frontier.
// Because scheduling is dynamic, modeled loop time uses list-scheduling
// makespans — which is why, in the paper, Ligra profits least from VEBO's
// load balancing.
package ligra

import (
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/numa"
)

// Ligra is an Engine with Ligra's scheduling policy. Its scheduling units
// depend only on the vertex count, so it can run before its graph exists:
// an engine built by Lazy reads its sparse steps' rows through a graph.Rows
// (an overlay of the graph to come) and derives the graph, once, for its
// first dense step or Graph call.
type Ligra struct {
	metrics engine.Metrics
	top     numa.Topology
	units   []engine.Range

	rows   graph.Rows                  // what sparse steps read until g is set
	derive func() *graph.Graph         // returns the graph rows stands for; nil when built over it
	once   sync.Once                   // runs derive
	g      atomic.Pointer[graph.Graph] // the graph, once built over or derived
}

// New builds a Ligra engine over g. Dense traversal splits the vertex
// range into Cilk leaf tasks of n/384 vertices (at least 64), mirroring the
// implicit partitioning the paper observes for Cilk loops. The zero top
// selects the paper's 4×12 machine.
func New(g *graph.Graph, top numa.Topology) *Ligra {
	l := Lazy(g, nil, top)
	l.g.Store(g)
	return l
}

// Lazy builds a Ligra engine over the rows of a graph not yet derived:
// sparse edge maps and vertex maps read rows, and the first dense edge map
// or Graph call runs derive, which must return a graph equal to rows. Its
// steps, and so its modeled costs, are those of New over that graph.
func Lazy(rows graph.Rows, derive func() *graph.Graph, top numa.Topology) *Ligra {
	grain := max(rows.NumVertices()/384, 64)
	return &Ligra{
		top:    top.OrDefault(),
		units:  engine.SplitRange(rows.NumVertices(), grain),
		rows:   rows,
		derive: derive,
	}
}

// Name implements Engine.
func (l *Ligra) Name() string { return "ligra" }

// Graph implements Engine, deriving the graph on first use.
func (l *Ligra) Graph() *graph.Graph {
	l.once.Do(func() {
		if l.g.Load() == nil {
			l.g.Store(l.derive())
		}
	})
	return l.g.Load()
}

// Rows implements Engine: the graph once there is one, else the rows the
// engine was built over.
func (l *Ligra) Rows() graph.Rows {
	if g := l.g.Load(); g != nil {
		return g
	}
	return l.rows
}

// Metrics implements Engine.
func (l *Ligra) Metrics() *engine.Metrics { return &l.metrics }

// EdgeMap implements Engine with direction optimization.
func (l *Ligra) EdgeMap(f *frontier.Frontier, k engine.EdgeKernel) *frontier.Frontier {
	threads := l.top.Threads()
	rows := l.Rows()
	if f.ShouldBeDense(rows.NumEdges()) {
		out, costs := engine.DensePull(l.Graph(), f, k, l.units, threads)
		l.Metrics().Record(engine.StepEdgeMapDense, f, costs, engine.MakespanDynamic(costs, threads), nil)
		return out
	}
	out, costs, _ := engine.SparsePush(rows, f, k, engine.SparseChunk, threads, nil, 0)
	l.Metrics().Record(engine.StepEdgeMapSparse, f, costs, engine.MakespanDynamic(costs, threads), nil)
	return out
}

// VertexMap implements Engine with dynamic chunking over active vertices.
func (l *Ligra) VertexMap(f *frontier.Frontier, fn func(v graph.VertexID) bool) *frontier.Frontier {
	threads := l.top.Threads()
	out, costs := engine.VertexMapDynamic(l.Rows(), f, fn, engine.SparseChunk, threads)
	l.Metrics().Record(engine.StepVertexMap, f, costs, engine.MakespanDynamic(costs, threads), nil)
	return out
}
