package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graphgrind"
	"repro/internal/layout"
	"repro/internal/ligra"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/polymer"
)

// variant is one vertex-ID assignment under test: g relabeled by perm, with
// the partitioning and GraphGrind edge order the paper pairs with it
// (Section V-G). A VEBO order carries its own partition boundaries and
// traverses CSR-ordered COOs; every other order is partitioned by
// Algorithm 1 and traverses Hilbert-ordered COOs.
type variant struct {
	label  string
	g      *graph.Graph
	perm   []graph.VertexID // old -> new
	bounds []int64          // VEBO boundaries; nil for Algorithm 1
	coo    layout.Order     // GraphGrind COO edge order
}

// gorderConfig is the Gorder setting every experiment uses.
var gorderConfig = order.GorderConfig{MaxSiblingDegree: 64}

// origVariant is g under its own IDs. The tables label it "orig", the
// figures "original".
func origVariant(g *graph.Graph, label string) variant {
	return variant{label: label, g: g, perm: order.Identity(g), coo: layout.HilbertOrder}
}

// relabeled is g relabeled by a baseline order: RCM, Gorder, a random
// permutation or a degree sort.
func relabeled(g *graph.Graph, label string, perm []graph.VertexID) (variant, error) {
	rg, err := g.Relabel(g.NumVertices(), perm)
	if err != nil {
		return variant{}, err
	}
	return variant{label: label, g: rg, perm: perm, coo: layout.HilbertOrder}, nil
}

// veboVariant reorders g with VEBO into p partitions.
func veboVariant(g *graph.Graph, p int) (variant, error) {
	r, err := core.Reorder(g, p, core.Options{})
	if err != nil {
		return variant{}, err
	}
	return applyVEBO(g, r)
}

// applyVEBO relabels g by the VEBO ordering r.
func applyVEBO(g *graph.Graph, r *core.Result) (variant, error) {
	vg, err := core.Apply(g, r)
	if err != nil {
		return variant{}, err
	}
	return variant{label: "vebo", g: vg, perm: r.Perm, bounds: r.Boundaries(), coo: layout.CSROrder}, nil
}

// veboAfter reorders v's graph with VEBO into p partitions (Figure 5's
// VEBO applied to a random permutation). Its permutation maps the IDs v was
// derived from: v's permutation, then VEBO's.
func veboAfter(v variant, p int) (variant, error) {
	w, err := veboVariant(v.g, p)
	if err != nil {
		return variant{}, err
	}
	w.label = v.label + "+vebo"
	w.perm, err = order.Compose(v.perm, w.perm)
	return w, err
}

// partitions returns v's partitions: its VEBO boundaries, or Algorithm 1's
// p destination ranges when it has none.
func (v variant) partitions(p int) ([]partition.Partition, error) {
	if v.bounds != nil {
		return partition.ByVertexRanges(v.g, v.bounds)
	}
	return partition.ByDestination(v.g, p)
}

// engine builds framework sys over v: Polymer and GraphGrind partition by
// v's boundaries (Algorithm 1 when nil), and GraphGrind lays its COOs out in
// v's order.
func (v variant) engine(sys string, cfg Config) (engine.Engine, error) {
	switch sys {
	case "ligra":
		return ligra.New(v.g, cfg.Topology), nil
	case "polymer":
		return polymer.New(v.g, polymer.Config{Topology: cfg.Topology, Bounds: v.bounds})
	case "graphgrind":
		return graphgrind.New(v.g, graphgrind.Config{
			Topology: cfg.Topology, Partitions: cfg.Partitions, Order: v.coo, Bounds: v.bounds,
		})
	default:
		return nil, fmt.Errorf("bench: unknown system %q", sys)
	}
}

// transposeEngine builds framework sys over v's transpose (BC's backward
// sweep), partitioned by Algorithm 1.
func (v variant) transposeEngine(sys string, cfg Config) (engine.Engine, error) {
	return variant{g: v.g.Transpose(), coo: v.coo}.engine(sys, cfg)
}

// warmReplay runs pass twice on a fresh machine, resetting its counters in
// between, and returns the second run: the paper averages over 20
// executions, so steady-state (warm-cache) behaviour is what matters.
func warmReplay(mc memsim.Config, top numa.Topology, pass func(*memsim.Machine) (*memsim.EdgeMapResult, error)) (*memsim.EdgeMapResult, error) {
	m, err := memsim.New(mc, top)
	if err != nil {
		return nil, err
	}
	if _, err := pass(m); err != nil {
		return nil, err
	}
	m.Reset()
	return pass(m)
}

// denseCycles replays one warm dense PageRank pass over v's partitions
// parts, each partition's edges in a COO of order o, and returns the cycles
// of each partition.
func (v variant) denseCycles(parts []partition.Partition, o layout.Order, mc memsim.Config, top numa.Topology) ([]float64, error) {
	ranges := make([]layout.Range, len(parts))
	for i, pt := range parts {
		ranges[i] = layout.Range{Lo: pt.Lo, Hi: pt.Hi}
	}
	coos, _, err := layout.BuildRanges(v.g, ranges, o, 1)
	if err != nil {
		return nil, err
	}
	res, err := warmReplay(mc, top, func(m *memsim.Machine) (*memsim.EdgeMapResult, error) {
		return m.EdgeMapCOO(v.g, parts, coos)
	})
	if err != nil {
		return nil, err
	}
	cycles := make([]float64, len(parts))
	for i, c := range res.Partitions {
		cycles[i] = float64(c.Cycles())
	}
	return cycles, nil
}

// withEdges keeps xs[i] for the partitions parts[i] that hold edges.
// Algorithm 1's greedy overshoot leaves trailing empty partitions at
// reproduction scale; including them would make spreads infinite.
func withEdges(xs []float64, parts []partition.Partition) []float64 {
	out := xs[:0:0]
	for i, pt := range parts {
		if pt.Edges > 0 {
			out = append(out, xs[i])
		}
	}
	return out
}
