package bench

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/order"
	"repro/internal/stats"
)

// fig6Machine scales the cache geometry so that the per-partition working
// set exceeds the LLC, matching the paper's footprint-to-cache ratio (their
// per-partition footprint of tens of MB vs a 30 MB LLC); with the default
// 256 KiB model every partition fits and edge-order effects vanish.
var fig6Machine = memsim.Config{LLCBytes: 32 << 10, TLBEntries: 8}

// Fig6 regenerates the paper's Figure 6: per-partition processing time of
// the first PR iteration on the twitter-like graph, comparing (a) a pure
// high-to-low degree sort traversed in Hilbert order against VEBO, and (b)
// Hilbert against CSR edge order under the high-to-low sort. The paper's
// findings: under high-to-low, the first partitions (highest degrees)
// process fastest and the last (degree-one) partitions up to 3x slower than
// VEBO; and CSR order beats Hilbert order for most partitions, motivating
// VEBO's use of CSR-ordered COO.
func Fig6(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	g, err := buildRecipe(cfg, "twitter")
	if err != nil {
		return err
	}

	hl, err := relabeled(g, "high-to-low", order.DegreeSort(g))
	if err != nil {
		return err
	}
	hlParts, err := hl.partitions(cfg.Partitions)
	if err != nil {
		return err
	}
	vv, err := veboVariant(g, cfg.Partitions)
	if err != nil {
		return err
	}
	vparts, err := vv.partitions(cfg.Partitions)
	if err != nil {
		return err
	}

	// Single-socket machine model: Figure 6 isolates the effect of edge
	// ordering on cache behaviour; a multi-socket model would overlay a
	// NUMA data-skew effect (most vertex data homes on the last socket
	// under degree-sorted orders) that the paper's figure does not measure.
	top := numa.Topology{Sockets: 1, ThreadsPerSocket: cfg.Topology.Threads()}
	hlHilbert, err := hl.denseCycles(hlParts, layout.HilbertOrder, fig6Machine, top)
	if err != nil {
		return err
	}
	hlCSR, err := hl.denseCycles(hlParts, layout.CSROrder, fig6Machine, top)
	if err != nil {
		return err
	}
	veboCSR, err := vv.denseCycles(vparts, layout.CSROrder, fig6Machine, top)
	if err != nil {
		return err
	}

	avgRange := func(xs []float64, lo, hi int) float64 {
		if hi > len(xs) {
			hi = len(xs)
		}
		var s float64
		for _, x := range xs[lo:hi] {
			s += x
		}
		return s / float64(hi-lo)
	}
	hlHilbert = withEdges(hlHilbert, hlParts)
	hlCSR = withEdges(hlCSR, hlParts)
	veboCSR = withEdges(veboCSR, vparts)
	nh, nv := len(hlHilbert), len(veboCSR)

	fmt.Fprintf(w, "== Figure 6: per-partition PR time, high-to-low order vs VEBO (P=%d) ==\n", cfg.Partitions)
	fmt.Fprintf(w, "(a) high-to-low+Hilbert: first-partition avg %.0f, last-partition avg %.0f (last/first %.2fx)\n",
		avgRange(hlHilbert, 0, nh/8), avgRange(hlHilbert, nh-nh/8, nh),
		avgRange(hlHilbert, nh-nh/8, nh)/avgRange(hlHilbert, 0, nh/8))
	fmt.Fprintf(w, "    vebo+CSR:            first-partition avg %.0f, last-partition avg %.0f, spread %.2fx\n",
		avgRange(veboCSR, 0, nv/8), avgRange(veboCSR, nv-nv/8, nv),
		stats.Summarize(veboCSR).Spread())
	fmt.Fprintf(w, "    high-to-low tail vs VEBO tail: %.2fx slower (paper: up to 3x)\n",
		avgRange(hlHilbert, nh-nh/8, nh)/avgRange(veboCSR, nv-nv/8, nv))
	fmt.Fprintf(w, "(b) high-to-low, Hilbert total %.3g vs CSR total %.3g; CSR faster on %d%% of partitions\n",
		sum(hlHilbert), sum(hlCSR), percentFaster(hlCSR, hlHilbert))
	fmt.Fprintln(w)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// percentFaster returns the percentage of indices where a[i] < b[i].
func percentFaster(a, b []float64) int {
	if len(a) == 0 {
		return 0
	}
	n := 0
	for i := range a {
		if a[i] < b[i] {
			n++
		}
	}
	return 100 * n / len(a)
}
