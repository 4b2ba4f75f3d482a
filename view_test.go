package vebo

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// viewTestOpts keeps view-engine topologies small so tests stay fast.
var viewTestOpts = EngineOptions{Sockets: 2, ThreadsPerSocket: 2}

// applyInBatches replays updates through the facade in fixed-size batches.
func applyInBatches(t *testing.T, d *Dynamic, updates []EdgeUpdate, batch int) {
	t.Helper()
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatalf("ApplyBatch(%d:%d): %v", lo, hi, err)
		}
	}
}

// TestViewAlgorithmsMatchStatic checks that algorithms run through the View
// API (engines over the relabeled graph, results mapped back to original
// vertex IDs) agree with the same algorithms run on a static engine built
// directly over the view's snapshot in original ID order.
func TestViewAlgorithmsMatchStatic(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.05, 6000, 17)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 32, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	applyInBatches(t, d, updates, 512)

	v := d.View()
	snap := v.Snapshot()
	ref, err := NewEngine(Ligra, snap, viewTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	refRanks := PageRank(ref, 5)
	refDist := BellmanFord(ref, 0)
	refParents := BFS(ref, 0)
	// CC's directed label-propagation fixpoint is unique per graph but not
	// isomorphism-invariant as a partition, so compare across the view's
	// three engines (same graph) rather than against the reference ordering.
	ccFirst, err := v.CC(Ligra)
	if err != nil {
		t.Fatal(err)
	}

	for _, sys := range []System{Ligra, Polymer, GraphGrind} {
		ranks, err := v.PageRank(sys, 5)
		if err != nil {
			t.Fatalf("%v: PageRank: %v", sys, err)
		}
		for i := range ranks {
			if math.Abs(ranks[i]-refRanks[i]) > 1e-9*(1+math.Abs(refRanks[i])) {
				t.Fatalf("%v: PageRank diverges at %d: %v vs %v", sys, i, ranks[i], refRanks[i])
			}
		}
		dist, err := v.BellmanFord(sys, 0)
		if err != nil {
			t.Fatalf("%v: BellmanFord: %v", sys, err)
		}
		for i := range dist {
			if dist[i] != refDist[i] {
				t.Fatalf("%v: BellmanFord diverges at %d: %d vs %d", sys, i, dist[i], refDist[i])
			}
		}
		// All three engines traverse the same relabeled graph, so the CC
		// fixpoint (mapped back to original IDs) must agree exactly.
		labels, err := v.CC(sys)
		if err != nil {
			t.Fatalf("%v: CC: %v", sys, err)
		}
		for i := range labels {
			if labels[i] != ccFirst[i] {
				t.Fatalf("%v: CC diverges from ligra at vertex %d: %d vs %d", sys, i, labels[i], ccFirst[i])
			}
		}
		// BFS parents need not be unique; check the reached set matches and
		// every parent edge exists in the snapshot.
		parents, err := v.BFS(sys, 0)
		if err != nil {
			t.Fatalf("%v: BFS: %v", sys, err)
		}
		for i := range parents {
			if (parents[i] < 0) != (refParents[i] < 0) {
				t.Fatalf("%v: BFS reachability differs at vertex %d: %d vs %d", sys, i, parents[i], refParents[i])
			}
			if parents[i] >= 0 && i != 0 && !snap.HasEdge(VertexID(parents[i]), VertexID(i)) {
				t.Fatalf("%v: BFS parent %d of %d is not an in-neighbor", sys, parents[i], i)
			}
		}
		if parents[0] != 0 {
			t.Fatalf("%v: root parent = %d, want 0", sys, parents[0])
		}
		// BC exercises the internally cached transpose engine.
		bc, err := v.BC(sys, 0)
		if err != nil {
			t.Fatalf("%v: BC: %v", sys, err)
		}
		if len(bc) != snap.NumVertices() {
			t.Fatalf("%v: BC returned %d scores for %d vertices", sys, len(bc), snap.NumVertices())
		}
	}
}

// TestViewPatchedMatchesScratch runs the same stream through a reusing
// Dynamic and a reuse-disabled one, querying every stride-th epoch, and
// requires identical results — the patched relabeled graph and patched
// engines must be indistinguishable from scratch-built ones. Thresholds are
// raised so the placement stays fixed and the patch path actually runs.
// Stride 1 patches from the previous epoch; stride 5 leaves unqueried
// epochs in between, so each patch nets several batches' log entries
// against a basis several epochs back.
func TestViewPatchedMatchesScratch(t *testing.T) {
	// powerlaw is unweighted; orkut is weighted with parallel edges, so its
	// SPMV results are only reproducible if patched rows are byte-identical
	// to scratch-built ones (weight-aware row ordering).
	for _, recipe := range []string{"powerlaw", "orkut"} {
		t.Run(recipe, func(t *testing.T) {
			for _, stride := range []int{1, 5} {
				t.Run(fmt.Sprintf("stride=%d", stride), func(t *testing.T) {
					testPatchedMatchesScratch(t, recipe, stride)
				})
			}
		})
	}
}

func testPatchedMatchesScratch(t *testing.T, recipe string, stride int) {
	g, updates, err := GenerateStream(recipe, 0.04, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	// High thresholds keep the placement fixed so the patch path runs, and
	// batches much smaller than the partition count leave most partitions
	// untouched per epoch — the regime engine reuse targets.
	stable := DynamicOptions{
		Partitions:             64,
		RebuildThreshold:       1 << 40,
		VertexRebuildThreshold: 1 << 40,
		Engine:                 viewTestOpts,
	}
	scratchOpts := stable
	scratchOpts.DisableViewReuse = true

	dp, err := NewDynamic(g, stable)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDynamic(g, scratchOpts)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, g.NumVertices())
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	const batch = 64
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		if _, err := dp.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if (lo/batch)%stride != 0 {
			continue
		}
		vp, vs := dp.View(), ds.View()
		for _, sys := range []System{Ligra, Polymer, GraphGrind} {
			rp, err := vp.PageRank(sys, 3)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := vs.PageRank(sys, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rp {
				if rp[i] != rs[i] {
					t.Fatalf("epoch %d %v: patched PageRank diverges at %d: %v vs %v",
						vp.Epoch(), sys, i, rp[i], rs[i])
				}
			}
		}
		// SPMV is weight-sensitive: float accumulation follows row order, so
		// exact equality here proves patched rows match scratch-built rows
		// byte for byte.
		yp, err := vp.SPMV(GraphGrind, x)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := vs.SPMV(GraphGrind, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range yp {
			if yp[i] != ys[i] {
				t.Fatalf("epoch %d: patched SPMV diverges at %d: %v vs %v", vp.Epoch(), i, yp[i], ys[i])
			}
		}
	}

	work := dp.ViewWork()
	if work.GraphPatches == 0 || work.EnginePatches == 0 {
		t.Fatalf("reuse run never patched: %+v", work)
	}
	if work.PartitionsReused == 0 || work.ReusedEdges == 0 {
		t.Fatalf("reuse run reused nothing: %+v", work)
	}
	sw := ds.ViewWork()
	if sw.GraphPatches != 0 || sw.EnginePatches != 0 {
		t.Fatalf("DisableViewReuse run patched anyway: %+v", sw)
	}
	// The point of the exercise: patching does measurably less construction
	// work than rebuilding every epoch.
	if work.RebuildEdges+work.PatchedEdges >= sw.RebuildEdges {
		t.Fatalf("patching saved no work: patched run %d+%d edges, scratch run %d",
			work.RebuildEdges, work.PatchedEdges, sw.RebuildEdges)
	}
}

// TestViewPatchesAcrossOneCompaction deletes edges in one batch and
// re-inserts them in the next, with no reader after the first epoch, and
// compacts the delta log once or twice in between; right after each
// compaction the view pinned before it is queried, so it registers its
// graph too late. A basis view must be of the view's own log generation,
// so the view after the compactions has none: it derives its relabeled
// graph from the new compaction base, one graph patch and no build, and
// the result must equal the live graph relabeled by the view's ordering. A
// view published at the compaction epoch itself takes the base as its
// graph, unchanged, and replaces the base as the next view's basis.
func TestViewPatchesAcrossOneCompaction(t *testing.T) {
	g, _, err := GenerateStream("powerlaw", 0.02, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	for _, compactions := range []int{1, 2} {
		d, err := NewDynamic(g, DynamicOptions{Partitions: 8, Engine: viewTestOpts, CompactEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.View().Reordered(); err != nil {
			t.Fatal(err)
		}
		batch := 0
		churn := func(batches int) {
			for ; batches > 0; batches-- {
				ups := make([]EdgeUpdate, 0, 64)
				for _, e := range edges[(batch/2)*64%(len(edges)-64):][:64] {
					ups = append(ups, EdgeUpdate{Src: e.Src, Dst: e.Dst, Del: batch%2 == 0})
				}
				if _, err := d.ApplyBatch(ups); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				batch++
			}
		}
		churn(100)
		for c := 0; c < compactions; c++ {
			pinned := d.View()
			d.Compact()
			if _, err := pinned.Reordered(); err != nil {
				t.Fatal(err)
			}
			churn(100)
		}
		v := d.View()
		if v.basis.Load() != nil {
			t.Fatalf("%d compaction(s): the view has a basis view of an older log generation", compactions)
		}
		before := d.ViewWork()
		rg, err := v.Reordered()
		if err != nil {
			t.Fatal(err)
		}
		after := d.ViewWork()
		if after.GraphPatches != before.GraphPatches+1 || after.GraphBuilds != before.GraphBuilds {
			t.Fatalf("%d compaction(s): relabeled graph was not derived from the base: %+v -> %+v", compactions, before, after)
		}
		want, err := v.Ordering().Apply(d.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(rg, want) || !graph.Equal(rg.Transpose(), want.Transpose()) {
			t.Fatalf("%d compaction(s): relabeled graph differs from the relabeled live graph", compactions)
		}

		// An empty batch publishes a view at the compaction epoch.
		d.Compact()
		if _, err := d.ApplyBatch(nil); err != nil {
			t.Fatal(err)
		}
		v = d.View()
		rg, err = v.Reordered()
		if err != nil {
			t.Fatal(err)
		}
		if base := v.frozen.Base().G; rg != base {
			t.Fatalf("%d compaction(s): the view at the compaction epoch did not take the base as its graph", compactions)
		}
		if !graph.Equal(rg, want) {
			t.Fatalf("%d compaction(s): the compaction base differs from the relabeled live graph", compactions)
		}
		if _, err := d.ApplyBatch(nil); err != nil {
			t.Fatal(err)
		}
		if d.View().basis.Load() != v {
			t.Fatalf("%d compaction(s): the view at the compaction epoch is not the next view's basis", compactions)
		}
	}
}

// TestSnapshotReadersKeepBasis pins the basis rule: only a view that built
// its relabeled graph becomes a patching basis. Epochs read only through
// Snapshot() sit between epochs that run BFS, so each BFS epoch's basis is
// the last BFS epoch and every Reordered after epoch 0 must patch (no
// reorder-build span) and equal a scratch relabel of the view's snapshot.
func TestSnapshotReadersKeepBasis(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.03, 1536, 41)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.View().BFS(GraphGrind, 0); err != nil {
		t.Fatal(err)
	}
	const batch = 128
	var bfsEpochs []int64
	for i, lo := 1, 0; lo < len(updates); i, lo = i+1, lo+batch {
		applyInBatches(t, d, updates[lo:min(lo+batch, len(updates))], batch)
		v := d.View()
		if i%3 != 0 {
			v.Snapshot()
			continue
		}
		if _, err := v.BFS(GraphGrind, 0); err != nil {
			t.Fatal(err)
		}
		rg, err := v.Reordered()
		if err != nil {
			t.Fatal(err)
		}
		want, err := v.Ordering().Apply(v.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(rg, want) {
			t.Fatalf("epoch %d: patched relabeled graph differs from a scratch relabel", v.Epoch())
		}
		bfsEpochs = append(bfsEpochs, v.Epoch())
	}
	if st := d.Stats(); st.FullRebuilds != 0 {
		t.Fatalf("stream broke the numbering lineage (%d full rebuilds); the basis rule is untested", st.FullRebuilds)
	}
	causes := make(map[int64][]string)
	for _, sp := range d.Spans().Snapshot() {
		if sp.Name == "graph" {
			causes[sp.Epoch] = append(causes[sp.Epoch], sp.Cause)
		}
	}
	for _, e := range bfsEpochs {
		if got := causes[e]; !slices.Contains(got, "reorder-patch") || slices.Contains(got, "reorder-build") {
			t.Errorf("epoch %d: graph spans %v, want a reorder-patch and no reorder-build", e, got)
		}
	}
}

// TestViewDropsSpentBasis pins when a view lets go of its basis: only once
// it has its own relabeled graph, its own GraphGrind engine if the basis
// built one, and every capture the basis holds. Until then later queries still patch or refine
// from the basis; after that the link is nil, so the basis's artifacts are
// not kept live by a view that can no longer use them.
func TestViewDropsSpentBasis(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.02, 128, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 8, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	v0 := d.View()
	if _, err := v0.BFS(GraphGrind, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v0.RefineBFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}
	applyInBatches(t, d, updates[:64], 64)
	v1 := d.View()
	if v1.basis.Load() != v0 {
		t.Fatal("the queried epoch is not the next view's basis")
	}
	if _, err := v1.BFS(GraphGrind, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := v1.Engine(Ligra); err != nil {
		t.Fatal(err)
	}
	if v1.basis.Load() != v0 {
		t.Fatal("basis dropped while its BFS capture could still seed the view")
	}
	if _, st, err := v1.RefineBFS(Ligra, 0); err != nil {
		t.Fatal(err)
	} else if st.Path != RefineRefined {
		t.Fatalf("RefineBFS path = %s, want %s from the basis capture", st.Path, RefineRefined)
	}
	if v1.basis.Load() != nil {
		t.Fatal("basis kept after the view derived everything it could seed")
	}

	// Ligra and Polymer engines never seed the next view, so a basis that
	// built only those is spent once the view holds its relabeled graph.
	applyInBatches(t, d, updates[64:96], 32)
	v2 := d.View()
	for _, sys := range []System{Ligra, Polymer} {
		if _, err := v2.Engine(sys); err != nil {
			t.Fatal(err)
		}
	}
	applyInBatches(t, d, updates[96:], 32)
	v3 := d.View()
	if v3.basis.Load() != v2 {
		t.Fatal("the queried epoch is not the next view's basis")
	}
	if _, err := v3.Reordered(); err != nil {
		t.Fatal(err)
	}
	if v3.basis.Load() != nil {
		t.Fatal("basis kept for Ligra and Polymer engines that cannot seed the view")
	}
}

// TestViewInputLengthCheckedFirst checks that SPMV and BP reject a
// wrong-length input before paying a lazy engine build.
func TestViewInputLengthCheckedFirst(t *testing.T) {
	g, _, err := GenerateStream("powerlaw", 0.02, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 8, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	v := d.View()
	short := make([]float64, v.NumVertices()-1)
	before := d.ViewWork().EngineBuilds
	for _, sys := range []System{Ligra, Polymer, GraphGrind} {
		if _, err := v.SPMV(sys, short); err == nil {
			t.Fatalf("%v: SPMV accepted an input of length %d, n=%d", sys, len(short), v.NumVertices())
		}
		if _, err := v.BP(sys, 2, short); err == nil {
			t.Fatalf("%v: BP accepted a prior of length %d, n=%d", sys, len(short), v.NumVertices())
		}
	}
	if got := d.ViewWork().EngineBuilds; got != before {
		t.Fatalf("malformed calls built %d engines", got-before)
	}
}

// TestViewPageRankDeltaRejectsNaNEps: a NaN eps fails the frontier test
// for every vertex, so the run would silently stop after one step. It must
// be an error, returned before any engine is built.
func TestViewPageRankDeltaRejectsNaNEps(t *testing.T) {
	g, _, err := GenerateStream("powerlaw", 0.02, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 8, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	v := d.View()
	before := d.ViewWork().EngineBuilds
	for _, sys := range []System{Ligra, Polymer, GraphGrind} {
		if _, err := v.PageRankDelta(sys, 10, math.NaN()); err == nil {
			t.Fatalf("%v: PageRankDelta accepted eps = NaN", sys)
		}
	}
	if got := d.ViewWork().EngineBuilds; got != before {
		t.Fatalf("NaN calls built %d engines", got-before)
	}
}

// TestViewAcrossEpochsStaysPinned checks that a retained view keeps
// answering for its epoch while the graph moves on.
func TestViewAcrossEpochsStaysPinned(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.04, 3000, 23)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	old := d.View()
	oldEdges := old.NumEdges()
	oldRanks, err := old.PageRank(GraphGrind, 3)
	if err != nil {
		t.Fatal(err)
	}
	applyInBatches(t, d, updates, 500)
	if d.View() == old {
		t.Fatal("publishing batches did not move the current view")
	}
	if old.NumEdges() != oldEdges {
		t.Fatalf("retained view edge count moved: %d -> %d", oldEdges, old.NumEdges())
	}
	again, err := old.PageRank(GraphGrind, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i] != oldRanks[i] {
			t.Fatalf("retained view result changed at %d", i)
		}
	}
	if d.View().Epoch() <= old.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", old.Epoch(), d.View().Epoch())
	}
}

// TestViewConcurrentIngestQuery is the concurrency stress test: one ingest
// goroutine streams batches while N reader goroutines continuously pin views
// and run algorithms on all three models (including BC's lazily built
// transpose engines and RefineBFS, whose captures decide when a view drops
// its basis). Run with -race; correctness here is absence of races
// plus per-view internal consistency.
func TestViewConcurrentIngestQuery(t *testing.T) {
	const readers = 4
	g, updates, err := GenerateStream("powerlaw", 0.03, 6000, 31)
	if err != nil {
		t.Fatal(err)
	}
	// A small log bound compacts while readers register the graphs they
	// derive as the next compaction's starting point.
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16, Engine: viewTestOpts, CompactEvery: 1024})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sys := System(r % 3)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				v := d.View()
				switch i % 4 {
				case 0:
					ranks, err := v.PageRank(sys, 2)
					if err != nil || len(ranks) != n {
						t.Errorf("reader %d: PageRank: len %d err %v", r, len(ranks), err)
						return
					}
				case 1:
					parents, err := v.BFS(sys, VertexID(i%n))
					if err != nil || len(parents) != n {
						t.Errorf("reader %d: BFS: len %d err %v", r, len(parents), err)
						return
					}
				case 2:
					bc, err := v.BC(sys, VertexID(i%n))
					if err != nil || len(bc) != n {
						t.Errorf("reader %d: BC: len %d err %v", r, len(bc), err)
						return
					}
				case 3:
					depths, _, err := v.RefineBFS(sys, 0)
					if err != nil || len(depths) != n {
						t.Errorf("reader %d: RefineBFS: len %d err %v", r, len(depths), err)
						return
					}
				}
			}
		}(r)
	}
	const batch = 300
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
			t.Errorf("ApplyBatch: %v", err)
			break
		}
	}
	close(done)
	wg.Wait()
	if w := d.ViewWork(); w.Epochs < 2 {
		t.Fatalf("expected multiple published epochs, got %d", w.Epochs)
	}
	if c := d.Stats().Compactions; c < 2 {
		t.Fatalf("expected compactions under concurrent queries, got %d", c)
	}
}

// bfsLevels converts a parent array (original IDs) into BFS levels, which
// are deterministic even though parent choice is CAS-race-dependent.
func bfsLevels(t *testing.T, parents []int32, root VertexID) []int {
	t.Helper()
	levels := make([]int, len(parents))
	for i := range levels {
		levels[i] = -1
	}
	levels[root] = 0
	var walk func(v int) int
	walk = func(v int) int {
		if levels[v] >= 0 {
			return levels[v]
		}
		p := int(parents[v])
		if p < 0 {
			return -1
		}
		lp := walk(p)
		if lp < 0 {
			t.Fatalf("vertex %d: parent %d unreached", v, p)
		}
		levels[v] = lp + 1
		return levels[v]
	}
	for v := range parents {
		if parents[v] >= 0 {
			walk(v)
		}
	}
	return levels
}

// TestViewPatchedAcrossRepairEpochs is the placement-preserving repair
// property test: at DEFAULT maintenance thresholds — where swap repairs fire
// continuously — a reusing Dynamic must produce BFS/CC/BellmanFord results
// identical to a reuse-disabled Dynamic whose engines are built from scratch
// on the same epochs, for all three framework models, across at least three
// repair epochs. This is exactly the configuration that previously never
// patched (any repair renumbered the vertex space); now repairs are
// segment-local and the patch paths follow the permutation.
func TestViewPatchedAcrossRepairEpochs(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.03, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := DynamicOptions{Partitions: 64, Engine: viewTestOpts}
	scratchOpts := opts
	scratchOpts.DisableViewReuse = true
	dp, err := NewDynamic(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDynamic(g, scratchOpts)
	if err != nil {
		t.Fatal(err)
	}

	const batch = 64
	repairEpochs := 0
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		rp, err := dp.ApplyBatch(updates[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if rp.Repaired && !rp.Rebuilt {
			repairEpochs++
		}
		vp, vs := dp.View(), ds.View()
		if vp.Epoch() != vs.Epoch() {
			t.Fatalf("epoch skew: %d vs %d", vp.Epoch(), vs.Epoch())
		}
		root := VertexID(int(updates[lo].Dst) % g.NumVertices())
		assertViewsAgree(t, vp, vs, root)
	}

	if repairEpochs < 3 {
		t.Fatalf("only %d repair epochs; the property was not exercised", repairEpochs)
	}
	st := dp.Stats()
	if st.Swaps == 0 || st.FullRebuilds != 0 {
		t.Fatalf("expected pure swap maintenance, got swaps=%d rebuilds=%d", st.Swaps, st.FullRebuilds)
	}
	work := dp.ViewWork()
	if work.GraphPatches == 0 || work.EnginePatches == 0 {
		t.Fatalf("default-threshold run never patched: %+v", work)
	}
	sw := ds.ViewWork()
	if sw.GraphPatches != 0 || sw.EnginePatches != 0 {
		t.Fatalf("DisableViewReuse run patched anyway: %+v", sw)
	}
	if work.RebuildEdges+work.PatchedEdges+work.RelabeledEdges >= sw.RebuildEdges {
		t.Fatalf("patching across repair epochs saved no work: %d+%d+%d vs %d",
			work.RebuildEdges, work.PatchedEdges, work.RelabeledEdges, sw.RebuildEdges)
	}
	assertDerives(t, dp)
}

// assertViewsAgree checks that a patched view and a scratch-built view of
// the same epoch answer CC, BellmanFord from root and BFS levels from root
// identically on all three framework models.
func assertViewsAgree(t *testing.T, vp, vs *View, root VertexID) {
	t.Helper()
	for _, sys := range []System{Ligra, Polymer, GraphGrind} {
		cp, err := vp.CC(sys)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := vs.CC(sys)
		if err != nil {
			t.Fatal(err)
		}
		if len(cp) != vp.NumVertices() {
			t.Fatalf("CC result length %d != n %d", len(cp), vp.NumVertices())
		}
		for i := range cp {
			if cp[i] != cs[i] {
				t.Fatalf("epoch %d %v: patched CC diverges at %d: %d vs %d",
					vp.Epoch(), sys, i, cp[i], cs[i])
			}
		}
		bp, err := vp.BellmanFord(sys, root)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := vs.BellmanFord(sys, root)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bp {
			if bp[i] != bs[i] {
				t.Fatalf("epoch %d %v: patched BellmanFord diverges at %d: %d vs %d",
					vp.Epoch(), sys, i, bp[i], bs[i])
			}
		}
		pp, err := vp.BFS(sys, root)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := vs.BFS(sys, root)
		if err != nil {
			t.Fatal(err)
		}
		lp, ls := bfsLevels(t, pp, root), bfsLevels(t, ps, root)
		for i := range lp {
			if lp[i] != ls[i] {
				t.Fatalf("epoch %d %v: patched BFS level diverges at %d: %d vs %d",
					vp.Epoch(), sys, i, lp[i], ls[i])
			}
		}
	}
}

// assertDerives checks that d's current view derives its relabeled graph
// and GraphGrind engine without error: a derivation the lineage allows
// that fails returns its error rather than rebuilding from scratch.
func assertDerives(t *testing.T, d *Dynamic) {
	t.Helper()
	v := d.View()
	if _, err := v.Reordered(); err != nil {
		t.Fatalf("epoch %d: %v", v.Epoch(), err)
	}
	if _, err := v.Engine(GraphGrind); err != nil {
		t.Fatalf("epoch %d: %v", v.Epoch(), err)
	}
}

// TestViewPatchedAfterRebuildEpoch pins the rebuild→swap accounting: a view
// right after a full rebuild (lineage break) renumbers its relabeled graph
// from its basis and builds its engines from scratch, and the swap repairs that follow must show up in the next
// views' Moved sets, diffed against the post-rebuild basis. Forced rebuilds
// every few batches break the lineage; the drifting churn between them
// moves two in-edges per step, enough to clear the adaptive gate (twice the
// uniform in-degree) and force swaps right after each rebuild.
func TestViewPatchedAfterRebuildEpoch(t *testing.T) {
	const n = 600
	edges := make([]Edge, 0, n*5)
	for v := 0; v < n; v++ {
		for j := 1; j <= 5; j++ {
			edges = append(edges, Edge{Src: VertexID((v + j) % n), Dst: VertexID(v), Weight: 1})
		}
	}
	g, err := FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic churn: delete two in-edges of v, insert them at a
	// shifted dst. One pass over the vertex space so no edge is deleted
	// twice.
	var updates []EdgeUpdate
	for i := 0; i < n; i++ {
		v := (i * 7) % n
		for j := 1; j <= 2; j++ {
			updates = append(updates,
				EdgeUpdate{Src: VertexID((v + j) % n), Dst: VertexID(v), Del: true},
				EdgeUpdate{Src: VertexID((v + j) % n), Dst: VertexID((v + 13) % n)})
		}
	}
	opts := DynamicOptions{Partitions: 16, Engine: viewTestOpts}
	scratchOpts := opts
	scratchOpts.DisableViewReuse = true
	dp, err := NewDynamic(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDynamic(g, scratchOpts)
	if err != nil {
		t.Fatal(err)
	}
	const batch, rebuildEvery = 50, 3
	// swapsAfterRebuild counts repair batches whose view diffs against a
	// post-rebuild basis.
	rebuilds, repairs, swapsAfterRebuild := 0, 0, 0
	prevRebuilt := false
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		forced := lo/batch%rebuildEvery == rebuildEvery-1
		if forced {
			dp.inner.Rebuild()
			ds.inner.Rebuild()
			rebuilds++
		}
		rp, err := dp.ApplyBatch(updates[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if rp.Rebuilt {
			rebuilds++
		} else if rp.Repaired {
			repairs++
			if prevRebuilt {
				swapsAfterRebuild++
			}
		}
		prevRebuilt = forced || rp.Rebuilt
		vp, vs := dp.View(), ds.View()
		for _, sys := range []System{Ligra, Polymer, GraphGrind} {
			cp, err := vp.CC(sys)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := vs.CC(sys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cp {
				if cp[i] != cs[i] {
					t.Fatalf("epoch %d %v: CC diverges at %d after rebuild/swap window (rebuilds so far %d)",
						vp.Epoch(), sys, i, rebuilds)
				}
			}
			bp, err := vp.BellmanFord(sys, 0)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := vs.BellmanFord(sys, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range bp {
				if bp[i] != bs[i] {
					t.Fatalf("epoch %d %v: BellmanFord diverges at %d after rebuild/swap window (rebuilds so far %d)",
						vp.Epoch(), sys, i, rebuilds)
				}
			}
		}
	}
	if rebuilds == 0 || repairs == 0 || swapsAfterRebuild == 0 {
		t.Fatalf("stream exercised rebuilds=%d repairs=%d (%d right after a rebuild); need both to pin the window accounting",
			rebuilds, repairs, swapsAfterRebuild)
	}
}

func TestViewDeltaEmpty(t *testing.T) {
	if !unchanged(&graph.Delta{}) {
		t.Fatal("zero delta reports non-empty")
	}
	// A lineage break alone (pure renumbering) is a no-op for results: it
	// moves values between slots but changes none of them.
	if !unchanged(&graph.Delta{Broken: true}) {
		t.Fatal("placement-only delta reports non-empty")
	}
	e := graph.Edge{Src: 1, Dst: 2, Weight: 1}
	for _, vd := range []graph.Delta{
		{Adds: []graph.Edge{e}},
		{Dels: []graph.Edge{e}},
		{Moved: []VertexID{5}},
		{Grown: []VertexID{9}},
	} {
		if unchanged(&vd) {
			t.Fatalf("delta %+v reports empty", vd)
		}
	}
}

func TestViewDeltaTouched(t *testing.T) {
	// Source 2 gains one edge and loses another: its degree is unchanged but
	// both destinations count, and 2 counts once.
	a := graph.Edge{Src: 2, Dst: 5, Weight: 1}
	b := graph.Edge{Src: 2, Dst: 6, Weight: 1}
	if got := touched(&graph.Delta{Adds: []graph.Edge{a}, Dels: []graph.Edge{b}}); got != 3 {
		t.Fatalf("touched = %d, want 3 (vertices 2, 5, 6)", got)
	}
	// Unrolled multiplicities and endpoints shared across the lists count
	// once; moved and admitted vertices do not count at all.
	e1 := graph.Edge{Src: 1, Dst: 2, Weight: 1}
	e3 := graph.Edge{Src: 4, Dst: 1, Weight: 7}
	vd := &graph.Delta{
		Adds:  []graph.Edge{e1, e1},
		Dels:  []graph.Edge{e3, e3, e3},
		Moved: []VertexID{5, 9},
		Grown: []VertexID{10, 11, 12},
	}
	if got := touched(vd); got != 3 {
		t.Fatalf("touched = %d, want 3 (vertices 1, 2, 4)", got)
	}
	if touched(&graph.Delta{Broken: true, Moved: []VertexID{7}}) != 0 {
		t.Fatal("delta without edge changes touches endpoints")
	}
}

// TestRebuildRowFourPasses pins the ablation row the engine-reuse
// experiments divide their work ratios by. Under DisableViewReuse every
// epoch that builds all three engines pays two graph builds (the snapshot
// and its relabel), three engine builds, and four counted construction
// passes over its edges: the snapshot, the relabel, and the Polymer and
// GraphGrind builds (a Ligra build traverses the relabeled graph as is).
func TestRebuildRowFourPasses(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.02, 1024, 3, StreamOptions{GrowFrac: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16, Engine: viewTestOpts, DisableViewReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	ext := external(updates)
	for lo := 0; ; lo += 64 {
		v, before := d.View(), d.ViewWork()
		for _, sys := range []System{Ligra, Polymer, GraphGrind} {
			if _, err := v.Engine(sys); err != nil {
				t.Fatal(err)
			}
		}
		after := d.ViewWork()
		if got := after.GraphBuilds - before.GraphBuilds; got != 2 {
			t.Errorf("epoch %d: %d graph builds, want 2", v.Epoch(), got)
		}
		if got := after.EngineBuilds - before.EngineBuilds; got != 3 {
			t.Errorf("epoch %d: %d engine builds, want 3", v.Epoch(), got)
		}
		if got := after.RebuildEdges - before.RebuildEdges; got != 4*v.NumEdges() {
			t.Errorf("epoch %d: %d rebuild edges, want 4 × %d", v.Epoch(), got, v.NumEdges())
		}
		if lo >= len(ext) {
			break
		}
		if _, err := d.IngestBatch(ext[lo:min(lo+64, len(ext))]); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumVertices() == g.NumVertices() {
		t.Fatal("stream admitted no vertices")
	}
}
