package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/engine"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/stats"
)

// bfsFrontiers runs BFS on eng from root and returns the frontier of each
// iteration (before the edgemap that consumes it).
func bfsFrontiers(eng engine.Engine, root graph.VertexID) []*frontier.Frontier {
	g := eng.Graph()
	parent := make([]int32, g.NumVertices())
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = int32(root)
	kernel := algorithms.BFSKernel(parent)
	var fronts []*frontier.Frontier
	f := frontier.FromVertex(g, root)
	for !f.IsEmpty() {
		fronts = append(fronts, f)
		f = eng.EdgeMap(f, kernel)
	}
	return fronts
}

// activeEdgesPerPartition counts, for each partition, the edges out of the
// frontier whose destination lands in that partition.
func activeEdgesPerPartition(g *graph.Graph, f *frontier.Frontier, parts []partition.Partition) []int64 {
	counts := make([]int64, len(parts))
	for _, s := range f.Sparse() {
		for _, d := range g.OutNeighbors(s) {
			counts[partition.Of(parts, d)]++
		}
	}
	return counts
}

// Table4 regenerates the paper's Table IV: the distribution of active edges
// over the 384 partitions for the sparse iterations of BFS on the
// twitter-like graph, with the original order versus VEBO. The paper's
// finding: original has many partitions with zero active edges and a larger
// standard deviation; VEBO lifts the minimum and median toward the ideal.
func Table4(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	g, err := buildRecipe(cfg, "twitter")
	if err != nil {
		return err
	}
	root := pickRoot(g)

	vv, err := veboVariant(g, cfg.Partitions)
	if err != nil {
		return err
	}
	variants := []variant{origVariant(g, "orig"), vv}

	fmt.Fprintf(w, "== Table IV: active edges per partition, sparse BFS iterations (P=%d) ==\n", cfg.Partitions)
	fmt.Fprintf(w, "%-5s %-6s %12s %12s %10s %10s %10s %10s\n",
		"iter", "order", "activeEdges", "ideal/part", "min", "median", "stddev", "max")

	// gather per-iteration counts per variant
	type iterStats struct {
		active int64
		s      stats.Summary
	}
	all := map[string][]iterStats{}
	maxIters := 0
	for _, v := range variants {
		parts, err := v.partitions(cfg.Partitions)
		if err != nil {
			return err
		}
		eng, err := v.engine("graphgrind", cfg)
		if err != nil {
			return err
		}
		for _, f := range bfsFrontiers(eng, v.perm[root]) {
			counts := activeEdgesPerPartition(v.g, f, parts)
			var total int64
			for _, c := range counts {
				total += c
			}
			all[v.label] = append(all[v.label], iterStats{total, stats.SummarizeInts(counts)})
		}
		if n := len(all[v.label]); n > maxIters {
			maxIters = n
		}
	}

	for it := 0; it < maxIters; it++ {
		for _, v := range variants {
			if it >= len(all[v.label]) {
				continue
			}
			st := all[v.label][it]
			fmt.Fprintf(w, "%-5d %-6s %12d %12.1f %10.0f %10.1f %10.1f %10.0f\n",
				it, v.label, st.active, float64(st.active)/float64(cfg.Partitions),
				st.s.Min, st.s.Median, st.s.StdDev, st.s.Max)
		}
	}
	// verify sanity: BFS reaches the same set under both orders
	d1 := algorithms.RefBFSDepths(g, root)
	d2 := algorithms.RefBFSDepths(vv.g, vv.perm[root])
	reach1, reach2 := 0, 0
	for v := range d1 {
		if d1[v] >= 0 {
			reach1++
		}
		if d2[v] >= 0 {
			reach2++
		}
	}
	fmt.Fprintf(w, "reachable vertices: orig %d, vebo %d (must match)\n\n", reach1, reach2)
	return nil
}
