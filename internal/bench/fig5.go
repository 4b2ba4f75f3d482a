package bench

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/memsim"
	"repro/internal/order"
)

// hybridTime prices an algorithm run on the GraphGrind model with locality
// awareness: dense edgemap steps cost the grouped makespan of per-partition
// simulated cycles (so a locality-destroying order pays for its cache and
// TLB misses), while sparse and vertexmap steps cost their work-unit
// makespan calibrated to cycles. Pure work-unit accounting would hide the
// locality loss that Figure 5's random permutation demonstrates.
func hybridTime(cfg Config, v variant, algo string, root graph.VertexID) (int64, error) {
	eng, err := v.engine("graphgrind", cfg)
	if err != nil {
		return 0, err
	}
	engT, err := v.transposeEngine("graphgrind", cfg)
	if err != nil {
		return 0, err
	}
	if _, err := runAlgorithm(algo, eng, engT, root); err != nil {
		return 0, err
	}

	// memsim replay of one dense COO pass over this variant's partitions
	parts, err := v.partitions(cfg.Partitions)
	if err != nil {
		return 0, err
	}
	fcycles, err := v.denseCycles(parts, v.coo, memsim.Config{}, cfg.Topology)
	if err != nil {
		return 0, err
	}
	cycles := make([]int64, len(fcycles))
	var sumCycles int64
	for i, c := range fcycles {
		cycles[i] = int64(c)
		sumCycles += cycles[i]
	}
	top := cfg.Topology
	denseCycleMakespan := engine.MakespanGrouped(cycles, top.Sockets, top.ThreadsPerSocket)

	// calibrate cycles per work unit from the dense pass
	var denseWork int64
	for _, s := range eng.Metrics().Steps {
		if s.Kind == engine.StepEdgeMapDense {
			denseWork = s.TotalCost
			break
		}
	}
	cyclesPerUnit := 3.0 // fallback when the run never went dense
	if denseWork > 0 {
		cyclesPerUnit = float64(sumCycles) / float64(denseWork)
	}

	price := func(ms *engine.Metrics) int64 {
		var total int64
		for _, s := range ms.Steps {
			if s.Kind == engine.StepEdgeMapDense {
				total += denseCycleMakespan
			} else {
				total += int64(float64(s.Makespan) * cyclesPerUnit)
			}
		}
		return total
	}
	return price(eng.Metrics()) + price(engT.Metrics()), nil
}

// Fig5 regenerates the paper's Figure 5: GraphGrind performance under four
// vertex-ID assignments — original, VEBO(original), a random permutation,
// and VEBO applied to the random permutation — for PRD, PR, CC and BFS on
// the twitter-like and road graphs, normalized to the original order. The
// paper's findings: random is slowest; VEBO beats original on the power-law
// graph; VEBO(random) recovers nearly all of VEBO(original)'s performance,
// with any residual gap attributable to locality.
func Fig5(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	algos := []string{"PRD", "PR", "CC", "BFS"}
	fmt.Fprintf(w, "== Figure 5: speedup vs original vertex IDs (GraphGrind model, P=%d) ==\n", cfg.Partitions)
	for _, gname := range []string{"twitter", "usaroad"} {
		g, err := buildRecipe(cfg, gname)
		if err != nil {
			return err
		}
		root := pickRoot(g)

		vv, err := veboVariant(g, cfg.Partitions)
		if err != nil {
			return err
		}
		rv, err := relabeled(g, "random", order.Random(g, cfg.Seed+7))
		if err != nil {
			return err
		}
		rvv, err := veboAfter(rv, cfg.Partitions)
		if err != nil {
			return err
		}
		variants := []variant{origVariant(g, "original"), vv, rv, rvv}

		fmt.Fprintf(w, "-- %s --\n%-12s", gname, "order")
		for _, a := range algos {
			fmt.Fprintf(w, " %8s", a)
		}
		fmt.Fprintln(w)
		base := map[string]int64{}
		for i, v := range variants {
			fmt.Fprintf(w, "%-12s", v.label)
			for _, a := range algos {
				t, err := hybridTime(cfg, v, a, v.perm[root])
				if err != nil {
					return err
				}
				if i == 0 {
					base[a] = t
					fmt.Fprintf(w, " %8.2f", 1.0)
				} else {
					fmt.Fprintf(w, " %8.2f", float64(base[a])/float64(t))
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
	return nil
}
