package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/stats"
)

// fig6Machine scales the cache geometry so that the per-partition working
// set exceeds the LLC, matching the paper's footprint-to-cache ratio (their
// per-partition footprint of tens of MB vs a 30 MB LLC); with the default
// 256 KiB model every partition fits and edge-order effects vanish.
var fig6Machine = memsim.Config{LLCBytes: 32 << 10, TLBEntries: 8}

// partitionCOOs builds one COO per partition in order o with one
// layout.BuildRanges call, so a CSR-order build is one pass over the edges.
func partitionCOOs(g *graph.Graph, parts []partition.Partition, o layout.Order) ([]*layout.COO, error) {
	ranges := make([]layout.Range, len(parts))
	for i, pt := range parts {
		ranges[i] = layout.Range{Lo: pt.Lo, Hi: pt.Hi}
	}
	coos, _, err := layout.BuildRanges(g, ranges, o, 1)
	return coos, err
}

// fig6Replay builds per-partition COOs in the given order and replays one PR
// iteration, returning per-partition cycles.
func fig6Replay(cfg Config, g *graph.Graph, parts []partition.Partition, o layout.Order) ([]float64, error) {
	coos, err := partitionCOOs(g, parts, o)
	if err != nil {
		return nil, err
	}
	// Single-socket machine model: Figure 6 isolates the effect of edge
	// ordering on cache behaviour; a multi-socket model would overlay a
	// NUMA data-skew effect (most vertex data homes on the last socket
	// under degree-sorted orders) that the paper's figure does not measure.
	top := numa.Topology{Sockets: 1, ThreadsPerSocket: cfg.Topology.Threads()}
	m, err := memsim.New(fig6Machine, top)
	if err != nil {
		return nil, err
	}
	// warm-up pass, then measure steady state
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

	// high-to-low degree sort + Algorithm 1
	hlPerm := order.DegreeSort(g)
	hl, err := g.Relabel(hlPerm)
	if err != nil {
		return err
	}
	hlParts, err := partition.ByDestination(hl, cfg.Partitions)
	if err != nil {
		return err
	}

	// VEBO
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

	hlHilbert, err := fig6Replay(cfg, hl, hlParts, layout.HilbertOrder)
	if err != nil {
		return err
	}
	hlCSR, err := fig6Replay(cfg, hl, hlParts, layout.CSROrder)
	if err != nil {
		return err
	}
	veboCSR, err := fig6Replay(cfg, vg, vparts, layout.CSROrder)
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
	// restrict to non-empty partitions (Algorithm 1 leaves trailing empty
	// padding at reproduction scale)
	trim := func(cycles []float64, parts []partition.Partition) []float64 {
		out := cycles[:0:0]
		for i := range parts {
			if parts[i].Edges > 0 {
				out = append(out, cycles[i])
			}
		}
		return out
	}
	hlHilbert = trim(hlHilbert, hlParts)
	hlCSR = trim(hlCSR, hlParts)
	veboCSR = trim(veboCSR, vparts)
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
