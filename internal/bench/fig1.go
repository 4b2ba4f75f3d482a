package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/memsim"
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

// fig1Partition replays one PR iteration over parts in Hilbert-ordered COO
// (the Figure 1 configuration) and reports per-partition cycles.
func fig1Cycles(cfg Config, g *graph.Graph, parts []partition.Partition) ([]float64, error) {
	coos, err := partitionCOOs(g, parts, layout.HilbertOrder)
	if err != nil {
		return nil, err
	}
	// Small cache geometry: match the paper's per-partition footprint to
	// LLC ratio (see fig6Machine); with a relatively large cache the
	// destination/source footprint effects that drive Figure 1's time
	// variation disappear at reproduction scale.
	m, err := memsim.New(fig6Machine, cfg.Topology)
	if err != nil {
		return nil, err
	}
	// Warm-up pass: the paper reports averages over 20 executions, so
	// steady-state (warm-cache) behaviour is what matters.
	if _, err := m.EdgeMapCOO(g, parts, coos); err != nil {
		return nil, err
	}
	m.Reset()
	res, err := m.EdgeMapCOO(g, parts, coos)
	if err != nil {
		return nil, err
	}
	cycles := make([]float64, len(parts))
	for i, c := range res.Partitions {
		cycles[i] = float64(c.Cycles())
	}
	return cycles, nil
}

// nonEmpty filters parallel samples down to partitions with work, returning
// the filtered series and the number of empty partitions. Algorithm 1's
// greedy overshoot leaves trailing empty partitions at reproduction scale;
// including them would make spreads infinite.
func nonEmpty(cycles, edges, dsts, srcs []float64) (c, e, d, s []float64, empty int) {
	for i := range cycles {
		if edges[i] == 0 {
			empty++
			continue
		}
		c = append(c, cycles[i])
		e = append(e, edges[i])
		d = append(d, dsts[i])
		s = append(s, srcs[i])
	}
	return c, e, d, s, empty
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
		variants := []struct {
			label string
			g     *graph.Graph
			parts []partition.Partition
		}{}

		origParts, err := partition.ByDestination(g, cfg.Partitions)
		if err != nil {
			return err
		}
		variants = append(variants, struct {
			label string
			g     *graph.Graph
			parts []partition.Partition
		}{"original", g, origParts})

		r, err := core.Reorder(g, cfg.Partitions, core.Options{})
		if err != nil {
			return err
		}
		vg, err := core.Apply(g, r)
		if err != nil {
			return err
		}
		vparts, err := partition.ByVertexRanges(vg, r.Boundaries())
		if err != nil {
			return err
		}
		variants = append(variants, struct {
			label string
			g     *graph.Graph
			parts []partition.Partition
		}{"vebo", vg, vparts})

		fmt.Fprintf(w, "-- %s (n=%d, m=%d) --\n", gname, g.NumVertices(), g.NumEdges())
		for _, v := range variants {
			cycles, err := fig1Cycles(cfg, v.g, v.parts)
			if err != nil {
				return err
			}
			edges := make([]float64, len(v.parts))
			dsts := make([]float64, len(v.parts))
			for i, pt := range v.parts {
				edges[i] = float64(pt.Edges)
				dsts[i] = float64(pt.Vertices())
			}
			srcsI := partition.UniqueSources(v.g, v.parts)
			srcs := make([]float64, len(srcsI))
			for i, s := range srcsI {
				srcs[i] = float64(s)
			}
			cyc, ed, ds, sr, empty := nonEmpty(cycles, edges, dsts, srcs)
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
