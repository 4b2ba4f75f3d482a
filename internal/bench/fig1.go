package bench

import (
	"fmt"
	"math"

	"repro/internal/layout"
	"repro/internal/partition"
	"repro/internal/stats"
)

// pearson computes the Pearson correlation coefficient of two equal-length
// samples.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Fig1 regenerates the paper's Figure 1: per-partition processing time of
// one PageRank iteration as a function of the partition's edge count, unique
// destination count and unique source count, for the original order
// (Algorithm 1) and for VEBO, on the twitter-like and friendster-like
// graphs. The paper's observations: edges are balanced in both, yet time
// varies 6.9x/2x with the original order and correlates with destination
// and source counts; VEBO collapses the variation.
func Fig1(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	fmt.Fprintf(w, "== Figure 1: per-partition PR time vs edges/destinations/sources (P=%d) ==\n", cfg.Partitions)
	for _, gname := range []string{"twitter", "friendster"} {
		g, err := buildRecipe(cfg, gname)
		if err != nil {
			return err
		}
		vv, err := veboVariant(g, cfg.Partitions)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- %s (n=%d, m=%d) --\n", gname, g.NumVertices(), g.NumEdges())
		for _, v := range []variant{origVariant(g, "original"), vv} {
			parts, err := v.partitions(cfg.Partitions)
			if err != nil {
				return err
			}
			// Hilbert order for both (the Figure 1 configuration), on the
			// small cache geometry of fig6Machine: with a relatively large
			// cache the destination/source footprint effects that drive
			// Figure 1's time variation disappear at reproduction scale.
			cycles, err := v.denseCycles(parts, layout.HilbertOrder, fig6Machine, cfg.Topology)
			if err != nil {
				return err
			}
			uniqSrcs := partition.UniqueSources(v.g, parts)
			edges := make([]float64, len(parts))
			dsts := make([]float64, len(parts))
			srcs := make([]float64, len(parts))
			for i, pt := range parts {
				edges[i] = float64(pt.Edges)
				dsts[i] = float64(pt.Vertices())
				srcs[i] = float64(uniqSrcs[i])
			}
			cyc, ed, ds, sr := withEdges(cycles, parts), withEdges(edges, parts), withEdges(dsts, parts), withEdges(srcs, parts)
			empty := len(parts) - len(cyc)
			ts := stats.Summarize(cyc)
			es := stats.Summarize(ed)
			fmt.Fprintf(w, "%-9s time: avg %.0f spread %.2fx | edges: avg %.0f spread %.2fx | corr(time,edges)=%.2f corr(time,dsts)=%.2f corr(time,srcs)=%.2f | empty parts %d\n",
				v.label, ts.Mean, ts.Spread(), es.Mean, es.Spread(),
				pearson(cyc, ed), pearson(cyc, ds), pearson(cyc, sr), empty)
		}
	}
	fmt.Fprintln(w)
	return nil
}
