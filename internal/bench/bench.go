// Package bench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index). Each
// experiment builds its workload from the synthetic recipes in internal/gen,
// runs the relevant pipeline and prints the same rows or series the paper
// reports. Absolute numbers are modeled (cost units or simulated cycles, as
// documented in internal/engine and internal/memsim); the comparisons —
// who wins, by roughly what factor, where crossovers fall — are the
// reproduction targets.
package bench

import (
	"fmt"
	"io"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numa"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies the recipe vertex counts (1.0 ≈ 10^5 vertices).
	Scale float64
	// Seed drives all generators.
	Seed int64
	// Partitions is the GraphGrind partition count (the paper's 384).
	Partitions int
	// Topology is the virtual NUMA machine (the paper's 4×12 by default).
	Topology numa.Topology
	// Out receives the report.
	Out io.Writer
	// Quick selects the CI smoke configuration: the streaming experiments
	// (dynamic, view, grow, refine) replay only a few batches so the
	// drivers can't silently rot, and an experiment with gates (view, grow,
	// refine) fails — instead of merely reporting — when any gate did not
	// pass.
	Quick bool
	// JSONDir, when non-empty, receives one BENCH_<experiment>.json report
	// per JSON-emitting experiment (view, grow, refine); see Report for the
	// schema. Empty disables emission.
	JSONDir string
}

// WithDefaults fills in the paper's defaults.
func (c Config) WithDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Partitions == 0 {
		c.Partitions = 384
	}
	c.Topology = c.Topology.OrDefault()
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Experiments lists the available experiment names in paper order.
func Experiments() []string {
	return []string{"fig1", "table1", "table3", "table4", "fig4", "fig5", "table5", "fig6", "table6", "partitioners", "dynamic", "view", "grow", "refine"}
}

// Run executes the named experiment ("all" runs every one).
func Run(name string, cfg Config) error {
	cfg = cfg.WithDefaults()
	switch name {
	case "fig1":
		return Fig1(cfg)
	case "table1":
		return Table1(cfg)
	case "table3":
		return Table3(cfg)
	case "table4":
		return Table4(cfg)
	case "fig4":
		return Fig4(cfg)
	case "fig5":
		return Fig5(cfg)
	case "table5":
		return Table5(cfg)
	case "fig6":
		return Fig6(cfg)
	case "table6":
		return Table6(cfg)
	case "partitioners":
		return Partitioners(cfg)
	case "dynamic":
		return Dynamic(cfg)
	case "view":
		return viewExp.run(cfg)
	case "grow":
		return growExp.run(cfg)
	case "refine":
		return Refine(cfg)
	case "all":
		for _, e := range Experiments() {
			if err := Run(e, cfg); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v or \"all\")", name, Experiments())
	}
}

// buildRecipe generates the named recipe graph at the configured scale.
func buildRecipe(cfg Config, name string) (*graph.Graph, error) {
	r, err := gen.RecipeByName(name)
	if err != nil {
		return nil, err
	}
	return r.Build(cfg.Scale, cfg.Seed)
}

// systemNames is the paper's framework order.
var systemNames = []string{"ligra", "polymer", "graphgrind"}

// pickRoot returns the vertex with the highest out-degree, the conventional
// root for traversal benchmarks on scale-free graphs.
func pickRoot(g *graph.Graph) graph.VertexID {
	var best graph.VertexID
	var bestDeg int64 = -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.VertexID(v)); d > bestDeg {
			bestDeg = d
			best = graph.VertexID(v)
		}
	}
	return best
}
