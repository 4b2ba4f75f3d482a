package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/order"
)

// Table6 regenerates the paper's Table VI: the wall-clock cost of vertex
// reordering (RCM, Gorder, VEBO), of relabeling the graph by the VEBO order
// (core.Apply: what an adopter pays on top of computing the order), of edge
// reordering + partitioning (Hilbert order vs CSR order), and the modeled
// runtime of BFS and PR (50 iterations) before and after VEBO, for the
// twitter-like and friendster-like graphs. Reordering costs are real
// measured seconds (the algorithms are sequential, so a single-core host
// measures them faithfully); the paper's finding is VEBO ≪ RCM ≪ Gorder (up
// to 101x and 1524x) and CSR-order COO construction cheaper than Hilbert.
func Table6(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	fmt.Fprintf(w, "== Table VI: reordering overhead vs analysis runtime ==\n")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s | %12s %12s | %14s %14s %14s %14s\n",
		"graph", "rcm(s)", "gorder(s)", "vebo(s)", "apply(s)", "hilbert(s)", "csr(s)",
		"bfs-orig", "bfs-vebo", "pr50-orig", "pr50-vebo")
	for _, gname := range []string{"twitter", "friendster"} {
		g, err := buildRecipe(cfg, gname)
		if err != nil {
			return err
		}
		timeIt := func(f func()) float64 {
			start := time.Now()
			f()
			return time.Since(start).Seconds()
		}
		tRCM := timeIt(func() { order.RCM(g) })
		tGorder := timeIt(func() { order.Gorder(g, gorderConfig) })
		var r *core.Result
		tVEBO := timeIt(func() { r, err = core.Reorder(g, cfg.Partitions, core.Options{}) })
		if err != nil {
			return err
		}
		var vv variant
		tApply := timeIt(func() { vv, err = applyVEBO(g, r) })
		if err != nil {
			return err
		}
		tHilbert := timeIt(func() { _, err = layout.Build(vv.g, layout.HilbertOrder) })
		if err != nil {
			return err
		}
		tCSR := timeIt(func() { _, err = layout.Build(vv.g, layout.CSROrder) })
		if err != nil {
			return err
		}

		// modeled analysis runtimes on GraphGrind; PR with 50 iterations
		// scales the 10-iteration model time by 5
		root := pickRoot(g)
		var bfs, pr50 [2]int64
		for i, v := range []variant{origVariant(g, "orig"), vv} {
			eng, err := v.engine("graphgrind", cfg)
			if err != nil {
				return err
			}
			if bfs[i], err = runAlgorithm("BFS", eng, nil, v.perm[root]); err != nil {
				return err
			}
			if pr50[i], err = runAlgorithm("PR", eng, nil, v.perm[root]); err != nil {
				return err
			}
			pr50[i] *= 5
		}

		fmt.Fprintf(w, "%-12s %12.3f %12.3f %12.3f %12.3f | %12.3f %12.3f | %14d %14d %14d %14d\n",
			gname, tRCM, tGorder, tVEBO, tApply, tHilbert, tCSR, bfs[0], bfs[1], pr50[0], pr50[1])
		fmt.Fprintf(w, "  speedups: vebo vs rcm %.1fx, vebo vs gorder %.1fx (paper: up to 101x and 1524x)\n",
			tRCM/tVEBO, tGorder/tVEBO)
	}
	fmt.Fprintln(w)
	return nil
}
