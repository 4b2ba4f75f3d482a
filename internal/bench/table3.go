package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/stats"
)

// algorithmNames is the paper's Table II order.
var algorithmNames = []string{"CC", "BC", "PR", "BFS", "PRD", "SPMV", "BF", "BP"}

// runAlgorithm executes the named algorithm on eng (and engT for BC's
// backward sweep) and returns the modeled time consumed. Metrics are reset
// before the run.
func runAlgorithm(algo string, eng, engT engine.Engine, root graph.VertexID) (int64, error) {
	eng.Metrics().Reset()
	if engT != nil {
		engT.Metrics().Reset()
	}
	g := eng.Graph()
	switch algo {
	case "CC":
		algorithms.CC(eng)
	case "BC":
		if engT == nil {
			return 0, fmt.Errorf("bench: BC requires a transpose engine")
		}
		algorithms.BC(eng, engT, root)
	case "PR":
		algorithms.PageRank(eng, 10)
	case "BFS":
		algorithms.BFS(eng, root)
	case "PRD":
		algorithms.PageRankDelta(eng, 20, 1e-3)
	case "SPMV":
		x := make([]float64, g.NumVertices())
		for i := range x {
			x[i] = 1
		}
		algorithms.SPMV(eng, x)
	case "BF":
		algorithms.BellmanFord(eng, root)
	case "BP":
		prior := make([]float64, g.NumVertices())
		for i := range prior {
			prior[i] = 0.05 * float64(i%7)
		}
		algorithms.BP(eng, 10, prior)
	default:
		return 0, fmt.Errorf("bench: unknown algorithm %q", algo)
	}
	t := eng.Metrics().ModelTime
	if engT != nil {
		t += engT.Metrics().ModelTime
	}
	return t, nil
}

// table3Variants returns the Table III columns: g under its original order,
// RCM, Gorder and VEBO into p partitions.
func table3Variants(g *graph.Graph, p int) ([]variant, error) {
	rcm, err := relabeled(g, "rcm", order.RCM(g))
	if err != nil {
		return nil, err
	}
	gorder, err := relabeled(g, "gorder", order.Gorder(g, gorderConfig))
	if err != nil {
		return nil, err
	}
	vebo, err := veboVariant(g, p)
	if err != nil {
		return nil, err
	}
	return []variant{origVariant(g, "orig"), rcm, gorder, vebo}, nil
}

// table3Graphs is the Table III row order (all Table I graphs).
var table3Graphs = []string{
	"twitter", "friendster", "rmat", "powerlaw", "orkut", "livejournal", "yahoo", "usaroad",
}

// Table3 regenerates the paper's Table III: runtime of the eight algorithms
// on eight graphs under four vertex orders across the three framework
// models. Polymer omits BC, as in the paper. Times are modeled cost units;
// the comparison of interest is within a row.
func Table3(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	fmt.Fprintf(w, "== Table III: modeled runtime (cost units), %d-thread model ==\n", cfg.Topology.Threads())
	fmt.Fprintf(w, "GraphGrind COO order: hilbert for orig/rcm/gorder, csr for vebo (Section V-G)\n\n")

	// speedup accumulators: system -> list of orig/vebo ratios
	speedups := map[string][]float64{}

	for _, gname := range table3Graphs {
		g, err := buildRecipe(cfg, gname)
		if err != nil {
			return err
		}
		root := pickRoot(g)
		vs, err := table3Variants(g, cfg.Partitions)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- %s (n=%d, m=%d) --\n", gname, g.NumVertices(), g.NumEdges())
		fmt.Fprintf(w, "%-6s %-12s", "algo", "system")
		for _, v := range vs {
			fmt.Fprintf(w, " %12s", v.label)
		}
		fmt.Fprintln(w, "  best")

		for _, sys := range systemNames {
			// build engines once per ordering and reuse across algorithms
			engs := make([]engine.Engine, len(vs))
			engTs := make([]engine.Engine, len(vs))
			for i, v := range vs {
				if engs[i], err = v.engine(sys, cfg); err != nil {
					return err
				}
				if engTs[i], err = v.transposeEngine(sys, cfg); err != nil {
					return err
				}
			}
			for _, algo := range algorithmNames {
				if algo == "BC" && sys == "polymer" {
					// Polymer provides no BC implementation (paper §IV).
					continue
				}
				times := make([]int64, len(vs))
				best := 0
				for i, v := range vs {
					if times[i], err = runAlgorithm(algo, engs[i], engTs[i], v.perm[root]); err != nil {
						return err
					}
					if times[i] < times[best] {
						best = i
					}
				}
				fmt.Fprintf(w, "%-6s %-12s", algo, sys)
				for _, t := range times {
					fmt.Fprintf(w, " %12d", t)
				}
				fmt.Fprintf(w, "  %s\n", vs[best].label)
				if vebo := times[len(vs)-1]; vebo > 0 {
					speedups[sys] = append(speedups[sys], float64(times[0])/float64(vebo))
				}
			}
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "-- VEBO speedup over original order (geomean across algorithms and graphs) --")
	for _, sys := range systemNames {
		fmt.Fprintf(w, "%-12s %.2fx (paper: ligra 1.09x, polymer 1.41x, graphgrind 1.65x)\n",
			sys, stats.GeoMean(speedups[sys]))
	}
	fmt.Fprintln(w)
	return nil
}
