package dynamic

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/partition"
)

// localityMachine shrinks the LLC and TLBs so a 5k-vertex graph's value
// arrays overflow them, as the paper's graphs overflow its 30 MB LLC; with
// the default 256 KiB model they fit and vertex order cannot show.
var localityMachine = memsim.Config{LLCBytes: 16 << 10, TLBEntries: 8}

// denseCOOCycles relabels g with ordering r and returns the simulated cycles
// of one steady-state dense CSR-order COO pass over r's partitions on a 4×12
// localityMachine (a warm-up pass, then the measured one), summed over
// partitions.
func denseCOOCycles(t *testing.T, g *graph.Graph, r *core.Result) int64 {
	t.Helper()
	rg, err := core.Apply(g, r)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.ByVertexRanges(rg, r.Boundaries())
	if err != nil {
		t.Fatal(err)
	}
	ranges := make([]layout.Range, len(parts))
	for i, pt := range parts {
		ranges[i] = layout.Range{Lo: pt.Lo, Hi: pt.Hi}
	}
	coos, _, err := layout.BuildRanges(rg, ranges, layout.CSROrder, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memsim.New(localityMachine, numa.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EdgeMapCOO(rg, parts, coos); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	res, err := m.EdgeMapCOO(rg, parts, coos)
	if err != nil {
		t.Fatal(err)
	}
	var cycles int64
	for _, c := range res.Partitions {
		cycles += c.Cycles()
	}
	return cycles
}

// TestMaintainedOrderLocality guards the locality of the maintained
// ordering. Swap repairs park each moved vertex at its partner's position,
// so segments drift from the degree-descending layout phase 3 establishes;
// nothing restores it short of a full rebuild. The test drives a power-law
// stream until repairs have swapped, then replays one dense COO pass over
// the maintained order and over a fresh VEBO order of the same snapshot:
// the maintained pass may cost at most 1% more simulated cycles.
func TestMaintainedOrderLocality(t *testing.T) {
	const p, batch = 64, 1024
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 64*batch, 1, gen.RecipeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: p})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates, batch)
	st := d.Stats()
	if st.Swaps == 0 {
		t.Fatal("stream triggered no swap repairs; the test exercises nothing")
	}
	if st.FullRebuilds != 0 {
		t.Fatalf("stream fell back to %d full rebuilds; the maintained order is a fresh one", st.FullRebuilds)
	}
	snap := d.Snapshot()
	fresh, err := core.Reorder(snap, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	maintained := denseCOOCycles(t, snap, d.Ordering())
	base := denseCOOCycles(t, snap, fresh)
	ratio := float64(maintained) / float64(base)
	t.Logf("%d swaps over %d batches: maintained/fresh dense COO cycles = %d/%d = %.4f",
		st.Swaps, len(updates)/batch, maintained, base, ratio)
	if ratio > 1.01 {
		t.Fatalf("maintained order costs %.4f× a fresh VEBO order's dense pass, want ≤ 1.01", ratio)
	}
}

// BenchmarkSwapRepair times one swap repair pass at P=64 on a power-law
// graph, from the state an ingest-shaped 1024-update batch leaves when it
// trips the Δ(n) gate: member lists in the (degree, ID) order the previous
// batches' passes left, with the members this batch's updates made stale.
// Each iteration restores that state first (untimed), so every pass
// re-places the same stale members and makes the same swaps.
func BenchmarkSwapRepair(b *testing.B) {
	const p, batch, warm = 64, 1024, 16
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 64*batch, 1, gen.RecipeStreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(g, Config{Partitions: p})
	if err != nil {
		b.Fatal(err)
	}
	lo := 0
	for ; lo < warm*batch; lo += batch {
		if _, err := d.ApplyBatch(updates[lo : lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
	if d.members == nil {
		b.Fatal("the warm-up batches ran no repair pass")
	}
	// Apply the next batches without end-of-batch maintenance until one
	// leaves Δ(n) over its gate.
	for !d.overThreshold() {
		if lo == len(updates) {
			b.Fatal("stream never tripped the repair gate")
		}
		for _, u := range updates[lo : lo+batch] {
			if u.Del {
				if err := d.deleteEdge(u.Src, u.Dst, u.Weight); err != nil {
					b.Fatal(err)
				}
			} else {
				d.insertEdge(u.Src, u.Dst, u.Weight)
			}
		}
		lo += batch
	}
	partEdges := slices.Clone(d.partEdges)
	staleBits := slices.Clone(d.staleBits)
	members, stale := make([][]uint64, p), make([][]graph.VertexID, p)
	for q := range members {
		members[q], stale[q] = slices.Clone(d.members[q]), slices.Clone(d.stale[q])
	}
	// The pass replaces the permutation and assignment copy-on-write, so
	// restoring them is a pointer swap.
	perm, assign := d.ordPerm, d.assign
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(d.partEdges, partEdges)
		copy(d.staleBits, staleBits)
		for q := range members {
			d.members[q] = append(d.members[q][:0], members[q]...)
			d.stale[q] = append(d.stale[q][:0], stale[q]...)
		}
		d.ordPerm, d.assign = perm, assign
		b.StartTimer()
		if swaps, _ := d.swapRepair(); swaps == 0 {
			b.Fatal("repair pass made no swaps")
		}
	}
}
