package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/stats"
)

// Partitioners is an extension experiment (not a paper table): it puts VEBO
// side by side with the streaming partitioners of the paper's related-work
// section (LDG, Fennel) and with plain Algorithm 1, measuring the trade-off
// the paper argues about — streaming partitioners optimize edge cut at a
// balance cost, while VEBO optimizes balance and ignores edge cut, at a
// fraction of the cost.
func Partitioners(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	fmt.Fprintf(w, "== Extension: VEBO vs streaming partitioners (P=%d) ==\n", cfg.Topology.Sockets*4)
	p := cfg.Topology.Sockets * 4 // streaming partitioners are O(n·P); keep P moderate
	fmt.Fprintf(w, "%-12s %-10s %10s %12s %12s %12s %12s\n",
		"graph", "method", "time", "edgeSpread", "vertSpread", "edgeCut", "cut%")
	for _, gname := range []string{"twitter", "orkut", "usaroad"} {
		g, err := buildRecipe(cfg, gname)
		if err != nil {
			return err
		}
		m := float64(g.NumEdges())

		report := func(method string, elapsed time.Duration, a *partition.Assignment) {
			ec := a.EdgeCounts(g)
			vs := a.Sizes()
			cut := a.EdgeCut(g)
			fmt.Fprintf(w, "%-12s %-10s %10s %12d %12d %12d %11.1f%%\n",
				gname, method, elapsed.Round(time.Microsecond),
				int64(stats.SummarizeInts(ec).Max-stats.SummarizeInts(ec).Min),
				int64(stats.SummarizeInts(vs).Max-stats.SummarizeInts(vs).Min),
				cut, 100*float64(cut)/m)
		}

		start := time.Now()
		parts, err := partition.ByDestination(g, p)
		if err != nil {
			return err
		}
		report("algo1", time.Since(start), partition.FromRanges(parts, g.NumVertices()))

		start = time.Now()
		r, err := core.Reorder(g, p, core.Options{})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		// express VEBO as an assignment on the original graph
		va := &partition.Assignment{P: p, PartOf: make([]uint32, g.NumVertices())}
		copy(va.PartOf, r.PartitionOf)
		report("vebo", elapsed, va)

		start = time.Now()
		ldg, err := partition.LDG(g, p)
		if err != nil {
			return err
		}
		report("ldg", time.Since(start), ldg)

		start = time.Now()
		fen, err := partition.Fennel(g, p)
		if err != nil {
			return err
		}
		report("fennel", time.Since(start), fen)
	}
	fmt.Fprintf(w, "(expected: vebo spreads ≤ 1 at minimal cost; ldg/fennel lower edge cut but worse balance)\n\n")
	return nil
}
