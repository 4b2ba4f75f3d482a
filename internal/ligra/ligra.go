// Package ligra models the Ligra framework (Shun & Blelloch, PPoPP'13): no
// explicit graph partitioning, Cilk-style dynamic scheduling, and no
// locality optimization. Dense (pull) edgemaps recursively split the whole
// vertex range down to a grain; sparse (push) edgemaps chunk the frontier.
// Because scheduling is dynamic, modeled loop time uses list-scheduling
// makespans — which is why, in the paper, Ligra profits least from VEBO's
// load balancing.
package ligra

import (
	"repro/internal/engine"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/numa"
)

// Ligra is an Engine with Ligra's scheduling policy.
type Ligra struct {
	engine.Base
	top   numa.Topology
	units []engine.Range
}

// New builds a Ligra engine over g. Dense traversal splits the vertex
// range into Cilk leaf tasks of n/384 vertices (at least 64), mirroring the
// implicit partitioning the paper observes for Cilk loops. The zero top
// selects the paper's 4×12 machine.
func New(g *graph.Graph, top numa.Topology) *Ligra {
	grain := max(g.NumVertices()/384, 64)
	return &Ligra{
		Base:  engine.Base{G: g},
		top:   top.OrDefault(),
		units: engine.SplitRange(g.NumVertices(), grain),
	}
}

// Name implements Engine.
func (l *Ligra) Name() string { return "ligra" }

// EdgeMap implements Engine with direction optimization.
func (l *Ligra) EdgeMap(f *frontier.Frontier, k engine.EdgeKernel) *frontier.Frontier {
	threads := l.top.Threads()
	if f.ShouldBeDense(l.G.NumEdges()) {
		out, costs := engine.DensePull(l.G, f, k, l.units, threads)
		l.Metrics().Record(engine.StepEdgeMapDense, f, costs, engine.MakespanDynamic(costs, threads), nil)
		return out
	}
	out, costs, _ := engine.SparsePush(l.G, f, k, engine.SparseChunk, threads, nil, 0)
	l.Metrics().Record(engine.StepEdgeMapSparse, f, costs, engine.MakespanDynamic(costs, threads), nil)
	return out
}

// VertexMap implements Engine with dynamic chunking over active vertices.
func (l *Ligra) VertexMap(f *frontier.Frontier, fn func(v graph.VertexID) bool) *frontier.Frontier {
	threads := l.top.Threads()
	out, costs := engine.VertexMapDynamic(l.G, f, fn, engine.SparseChunk, threads)
	l.Metrics().Record(engine.StepVertexMap, f, costs, engine.MakespanDynamic(costs, threads), nil)
	return out
}
