// Package polymer models the Polymer framework (Zhang, Chen & Chen,
// PPoPP'15): the graph is cut into one partition per NUMA socket, data is
// homed with its partition, and parallel loops are statically scheduled —
// each socket's threads process fixed sub-ranges of the socket's partition.
// Static scheduling makes loop time the time of the slowest thread, which is
// why Polymer is highly sensitive to the load balance VEBO provides.
package polymer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/numa"
	"repro/internal/partition"
)

// Config parameterizes the Polymer model.
type Config struct {
	// Topology is the virtual NUMA machine; the zero value selects the
	// paper's 4×12 machine.
	Topology numa.Topology
	// Bounds optionally supplies partition boundaries in vertex-ID space,
	// e.g. VEBO's Result.Boundaries: at least sockets+1 entries, merged
	// into one range per socket by core.CoarsenBounds (a list of exactly
	// sockets+1 entries is used as given). When nil, the paper's
	// Algorithm 1 (partition.ByDestination) is used.
	Bounds []int64
}

// Polymer is an Engine with Polymer's partitioning and scheduling policy.
type Polymer struct {
	engine.Base
	top   numa.Topology
	parts []partition.Partition
	units []engine.Range // threads-per-socket sub-ranges per partition
}

// New builds a Polymer engine over g with one partition per socket.
func New(g *graph.Graph, cfg Config) (*Polymer, error) {
	top := cfg.Topology.OrDefault()
	sockets := top.Sockets
	var parts []partition.Partition
	var err error
	if cfg.Bounds != nil {
		if len(cfg.Bounds) < sockets+1 {
			return nil, fmt.Errorf("polymer: bounds must have at least %d entries, got %d",
				sockets+1, len(cfg.Bounds))
		}
		parts, err = partition.ByVertexRanges(g, core.CoarsenBounds(cfg.Bounds, sockets))
	} else {
		parts, err = partition.ByDestination(g, sockets)
	}
	if err != nil {
		return nil, err
	}
	ranges := make([]engine.Range, len(parts))
	for i, pt := range parts {
		ranges[i] = engine.Range{Lo: pt.Lo, Hi: pt.Hi}
	}
	return &Polymer{
		Base:  engine.Base{G: g},
		top:   top,
		parts: parts,
		units: engine.SubdivideByEdges(g, ranges, top.ThreadsPerSocket),
	}, nil
}

// Name implements Engine.
func (p *Polymer) Name() string { return "polymer" }

// Partitions returns the per-socket partitions.
func (p *Polymer) Partitions() []partition.Partition { return p.parts }

// partitionCosts folds per-unit costs back onto their partitions by locating
// each unit's start vertex.
func (p *Polymer) partitionCosts(unitCosts []int64) []int64 {
	out := make([]int64, len(p.parts))
	for i, u := range p.units {
		out[partition.Of(p.parts, u.Lo)] += unitCosts[i]
	}
	return out
}

// EdgeMap implements Engine with direction optimization; both directions are
// statically scheduled.
func (p *Polymer) EdgeMap(f *frontier.Frontier, k engine.EdgeKernel) *frontier.Frontier {
	threads := p.top.Threads()
	if f.ShouldBeDense(p.G.NumEdges()) {
		out, costs := engine.DensePull(p.G, f, k, p.units, threads)
		partCosts := p.partitionCosts(costs)
		// Polymer statically binds one partition to each socket; the
		// socket's threads divide the partition's work near-evenly, so the
		// loop finishes when the most expensive partition does.
		tps := int64(p.top.ThreadsPerSocket)
		var makespan int64
		for _, c := range partCosts {
			if t := (c + tps - 1) / tps; t > makespan {
				makespan = t
			}
		}
		p.Metrics().Record(engine.StepEdgeMapDense, f, costs, makespan, partCosts)
		return out
	}
	out, costs, _ := engine.SparsePush(p.G, f, k, engine.SparseChunk, threads, nil, 0)
	p.Metrics().Record(engine.StepEdgeMapSparse, f, costs, engine.MakespanStatic(costs, threads), nil)
	return out
}

// VertexMap implements Engine: the full vertex range is statically divided
// over all threads.
func (p *Polymer) VertexMap(f *frontier.Frontier, fn func(v graph.VertexID) bool) *frontier.Frontier {
	threads := p.top.Threads()
	out, costs := engine.VertexMapStatic(p.G, f, fn, threads, threads)
	p.Metrics().Record(engine.StepVertexMap, f, costs, engine.MakespanStatic(costs, threads), nil)
	return out
}
