package bench

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/stats"
)

// Fig4 regenerates the paper's Figure 4: per-partition execution time and
// per-thread micro-architectural statistics (LLC local/remote MPKI, TLB MKI,
// branch MPKI) for PageRank on the twitter-like graph under GraphGrind with
// 384 partitions. The paper's findings: the original order spans a 6.9x
// per-partition time spread versus 1.6x for VEBO; average branch MPKI drops
// from 0.11 to 0.04 with VEBO; cache/TLB rates are broadly similar for this
// particular graph (PR on Twitter is the paper's counter-example where VEBO
// slightly raises cache misses).
func Fig4(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	g, err := buildRecipe(cfg, "twitter")
	if err != nil {
		return err
	}
	vv, err := veboVariant(g, cfg.Partitions)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "== Figure 4: PR on twitter-like, GraphGrind model, P=%d, %d threads ==\n",
		cfg.Partitions, cfg.Topology.Threads())
	for _, v := range []variant{origVariant(g, "original"), vv} {
		parts, err := v.partitions(cfg.Partitions)
		if err != nil {
			return err
		}
		res, err := warmReplay(memsim.Config{}, cfg.Topology, func(m *memsim.Machine) (*memsim.EdgeMapResult, error) {
			return m.EdgeMapPull(v.g, parts)
		})
		if err != nil {
			return err
		}
		var cycles []float64
		empty := 0
		for i, c := range res.Partitions {
			if parts[i].Edges == 0 && parts[i].Vertices() == 0 {
				empty++
				continue
			}
			cycles = append(cycles, float64(c.Cycles()))
		}
		ts := stats.Summarize(cycles)
		sum := memsim.Summarize(res.Threads)
		fmt.Fprintf(w, "%-9s (a) partition time: avg %.0f min %.0f max %.0f spread %.2fx (%d empty partitions)\n",
			v.label, ts.Mean, ts.Min, ts.Max, ts.Spread(), empty)
		fmt.Fprintf(w, "%-9s (b) LLC local MPKI avg %.2f  (c) LLC remote MPKI avg %.2f  (d) TLB MKI avg %.2f  (e) branch MPKI avg %.3f\n",
			v.label, sum.LocalMPKI, sum.RemoteMPKI, sum.TLBMKI, sum.BranchMPKI)
	}
	fmt.Fprintf(w, "(paper averages: time 1.22s vs 1.21s; local 11 vs 12; remote 9 vs 11; TLB 8 vs 10; branch 0.11 vs 0.04)\n\n")
	return nil
}
