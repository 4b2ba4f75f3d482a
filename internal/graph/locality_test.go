package graph_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/partition"
)

// TestChunkedRowLocality guards the locality cost of sharing rows. A
// derived graph reads its rewritten rows from chunks of their own, so a
// dense pull pass jumps between chunks where a flat graph streams one
// array. The test derives a VEBO-ordered power-law graph by chained
// patches, the shape an ingest stream gives every epoch, until the next
// derivation would fold — 128-update patches reach the dead-edge threshold
// and 4-update patches the chunk count — then replays one dense pull pass
// with every in-row read at its chunk address on the machine of
// TestMaintainedOrderLocality (LLC and TLBs shrunk so a 5k-vertex graph
// overflows them): it may cost at most 1% more simulated cycles than the
// same pass over the flat graph with the same rows.
func TestChunkedRowLocality(t *testing.T) {
	const p = 64
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 256*128, 1, gen.RecipeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Reorder(g, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err = core.Apply(g, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{4, 128} {
		at := g
		for lo := 0; ; lo += batch {
			if lo == len(updates) {
				t.Fatalf("batch %d: stream ended before a derivation folded", batch)
			}
			// Net the batch: deleting an edge the batch inserted cancels it.
			net := make(map[graph.Edge]int)
			for _, u := range updates[lo : lo+batch] {
				e := graph.Edge{Src: r.Perm[u.Src], Dst: r.Perm[u.Dst], Weight: 1}
				if u.Del {
					net[e]--
				} else {
					net[e]++
				}
			}
			var adds, dels []graph.Edge
			for e, c := range net {
				for ; c > 0; c-- {
					adds = append(adds, e)
				}
				for ; c < 0; c++ {
					dels = append(dels, e)
				}
			}
			next, _, err := at.Patch(at.NumVertices(), graph.Delta{Adds: adds, Dels: dels})
			if err != nil {
				t.Fatal(err)
			}
			if graph.Chunks(next) < graph.Chunks(at) {
				break // next folded: at sits at the threshold
			}
			at = next
		}
		flat, err := graph.FromEdges(at.NumVertices(), at.Edges(), at.Weighted())
		if err != nil {
			t.Fatal(err)
		}
		parts, err := partition.ByVertexRanges(at, r.Boundaries())
		if err != nil {
			t.Fatal(err)
		}
		chunked := pullCycles(t, at, parts)
		base := pullCycles(t, flat, parts)
		ratio := float64(chunked) / float64(base)
		t.Logf("batch %d, %d chunks: chunked/flat dense pull cycles = %d/%d = %.4f",
			batch, graph.Chunks(at), chunked, base, ratio)
		if ratio > 1.01 {
			t.Fatalf("batch %d: a graph at the fold threshold costs %.4f× a flat graph's dense pass, want ≤ 1.01", batch, ratio)
		}
	}
}

// pullCycles returns the simulated cycles of one steady-state dense pull
// pass over g's partitions with every in-row read at its chunk address (a
// warm-up pass, then the measured one), summed over partitions.
func pullCycles(t *testing.T, g *graph.Graph, parts []partition.Partition) int64 {
	t.Helper()
	m, err := memsim.New(memsim.Config{LLCBytes: 16 << 10, TLBEntries: 8}, numa.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EdgeMapPullRows(g, parts, graph.InRowAt(g)); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	res, err := m.EdgeMapPullRows(g, parts, graph.InRowAt(g))
	if err != nil {
		t.Fatal(err)
	}
	var cycles int64
	for _, c := range res.Partitions {
		cycles += c.Cycles()
	}
	return cycles
}
