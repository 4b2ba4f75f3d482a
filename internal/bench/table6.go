package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
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
		tGorder := timeIt(func() { order.Gorder(g, order.GorderConfig{MaxSiblingDegree: 64}) })
		var r *core.Result
		tVEBO := timeIt(func() { r, err = core.Reorder(g, cfg.Partitions, core.Options{}) })
		if err != nil {
			return err
		}
		var vg *graph.Graph
		tApply := timeIt(func() { vg, err = core.Apply(g, r) })
		if err != nil {
			return err
		}
		tHilbert := timeIt(func() { _, err = layout.Build(vg, layout.HilbertOrder) })
		if err != nil {
			return err
		}
		tCSR := timeIt(func() { _, err = layout.Build(vg, layout.CSROrder) })
		if err != nil {
			return err
		}

		// modeled analysis runtimes on GraphGrind
		root := pickRoot(g)
		model := func(algo string, isVebo bool) int64 {
			var bounds []int64
			coo := layout.HilbertOrder
			gg := g
			rt := root
			if isVebo {
				bounds = r.Boundaries()
				coo = layout.CSROrder
				gg = vg
				rt = r.Perm[root]
			}
			eng, err2 := newEngine("graphgrind", gg, cfg, bounds, coo, cfg.Partitions)
			if err2 != nil {
				err = err2
				return 0
			}
			t, err2 := runAlgorithm(algo, eng, nil, rt)
			if err2 != nil {
				err = err2
				return 0
			}
			return t
		}
		bfsOrig := model("BFS", false)
		bfsVebo := model("BFS", true)
		if err != nil {
			return err
		}
		// PR with 50 iterations: scale the 10-iteration model time by 5
		prOrig := 5 * model("PR", false)
		prVebo := 5 * model("PR", true)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "%-12s %12.3f %12.3f %12.3f %12.3f | %12.3f %12.3f | %14d %14d %14d %14d\n",
			gname, tRCM, tGorder, tVEBO, tApply, tHilbert, tCSR, bfsOrig, bfsVebo, prOrig, prVebo)
		fmt.Fprintf(w, "  speedups: vebo vs rcm %.1fx, vebo vs gorder %.1fx (paper: up to 101x and 1524x)\n",
			tRCM/tVEBO, tGorder/tVEBO)
	}
	fmt.Fprintln(w)
	return nil
}
