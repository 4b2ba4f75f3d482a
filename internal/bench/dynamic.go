package bench

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/partition"
)

// dynamicOps is the stream length at the default scale (0.2); other scales
// stream proportionally. The acceptance workload is 100k updates.
const dynamicOps = 100_000

// Dynamic is an extension experiment (not a paper table): it replays a churn
// stream on the powerlaw recipe through the incremental-maintenance
// subsystem (internal/dynamic) and compares its throughput, work and final
// balance against (a) rebuilding the VEBO ordering from scratch after every
// batch and (b) the streaming-partitioner baselines run once on the final
// graph. Work is counted in greedy placements, the unit Algorithm 2 performs
// n of per full run.
func Dynamic(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	const batch = 1024
	p := dynamic.DefaultPartitions
	ops := int(float64(dynamicOps) * cfg.Scale / 0.2)
	if ops < 2*batch {
		ops = 2 * batch
	}
	if cfg.Quick {
		ops = 3 * batch
	}

	g, updates, err := gen.StreamFromRecipe("powerlaw", cfg.Scale, ops, cfg.Seed, gen.RecipeStreamOptions{})
	if err != nil {
		return err
	}
	batches := (len(updates) + batch - 1) / batch
	fmt.Fprintf(w, "== Extension: dynamic-graph maintenance (powerlaw, %d updates, batch %d, P=%d) ==\n",
		len(updates), batch, p)
	fmt.Fprintf(w, "%-16s %12s %12s %10s %10s\n", "method", "time", "placements", "edgeSpread", "vertSpread")

	// (1) Incremental maintenance through the dynamic subsystem.
	start := time.Now()
	d, err := dynamic.New(g, dynamic.Config{Partitions: p})
	if err != nil {
		return err
	}
	for b := range slices.Chunk(updates, batch) {
		if _, err := d.ApplyBatch(b); err != nil {
			return err
		}
	}
	incElapsed := time.Since(start)
	st := d.Stats()
	incDelta := d.EdgeImbalance()
	fmt.Fprintf(w, "%-16s %12s %12d %10d %10d\n", "incremental",
		incElapsed.Round(time.Microsecond), st.Placements, incDelta, d.VertexImbalance())

	// (2) Full Algorithm 2 rebuild after every batch, over incrementally
	// maintained degrees (charitable: no graph rebuild is charged).
	start = time.Now()
	deg := g.InDegrees()
	var scratch *core.Result
	for b := range slices.Chunk(updates, batch) {
		for _, u := range b {
			if u.Del {
				deg[u.Dst]--
			} else {
				deg[u.Dst]++
			}
		}
		if scratch, err = core.ReorderDegrees(deg, p, core.Options{}); err != nil {
			return err
		}
	}
	rebElapsed := time.Since(start)
	rebPlacements := int64(batches) * int64(g.NumVertices())
	rebDelta := scratch.EdgeImbalance()
	fmt.Fprintf(w, "%-16s %12s %12d %10d %10d\n", "rebuild/batch",
		rebElapsed.Round(time.Microsecond), rebPlacements, rebDelta, scratch.VertexImbalance())

	// (3) Streaming-partitioner baselines, one pass over the final graph.
	final := d.Snapshot()
	start = time.Now()
	ldg, err := partition.LDG(final, p)
	if err != nil {
		return err
	}
	ldgElapsed := time.Since(start)
	fmt.Fprintf(w, "%-16s %12s %12d %10d %10d\n", "ldg(final)",
		ldgElapsed.Round(time.Microsecond), int64(final.NumVertices()),
		core.Spread(ldg.EdgeCounts(final)), core.Spread(ldg.Sizes()))
	start = time.Now()
	fen, err := partition.Fennel(final, p)
	if err != nil {
		return err
	}
	fenElapsed := time.Since(start)
	fmt.Fprintf(w, "%-16s %12s %12d %10d %10d\n", "fennel(final)",
		fenElapsed.Round(time.Microsecond), int64(final.NumVertices()),
		core.Spread(fen.EdgeCounts(final)), core.Spread(fen.Sizes()))

	// The maintained contract: within 2× of the from-scratch balance, or
	// under the adaptive Δ(n) gate (whole-vertex moves cannot express less
	// than the degree granularity the gate tracks), whichever is looser.
	limit := 2 * rebDelta
	if limit < 2 {
		limit = 2
	}
	gate := d.EffectiveRebuildThreshold()
	if limit < gate {
		limit = gate
	}
	fmt.Fprintf(w, "final Δ(n): incremental %d vs rebuild %d (within max(2×, gate %d): %v); work ratio %.1f× less\n",
		incDelta, rebDelta, gate, incDelta <= limit,
		float64(rebPlacements)/float64(st.Placements))
	fmt.Fprintf(w, "(maintenance: %d repairs over %d vertices with %d swaps, %d full rebuilds, %d compactions)\n\n",
		st.Repairs, st.RepairedVertices, st.Swaps, st.FullRebuilds, st.Compactions)
	return nil
}
