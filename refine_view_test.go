package vebo

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// refSeqDepths is a sequential BFS-depth oracle over a snapshot (-1
// unreached), matching RefineBFS's result semantics.
func refSeqDepths(snap *Graph, root VertexID) []int32 {
	depth := make([]int32, snap.NumVertices())
	for i := range depth {
		depth[i] = -1
	}
	depth[root] = 0
	queue := []VertexID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, t := range snap.OutNeighbors(u) {
			if depth[t] < 0 {
				depth[t] = depth[u] + 1
				queue = append(queue, t)
			}
		}
	}
	return depth
}

// refSeqLabels is a sequential oracle for RefineCC's canonical labels: the
// smallest vertex ID reaching each vertex under directed propagation,
// iterated to fixpoint.
func refSeqLabels(snap *Graph) []uint32 {
	label := make([]uint32, snap.NumVertices())
	for v := range label {
		label[v] = uint32(v)
	}
	edges := snap.Edges()
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if label[e.Src] < label[e.Dst] {
				label[e.Dst] = label[e.Src]
				changed = true
			}
		}
	}
	return label
}

// checkRefined compares one epoch's refined results against scratch oracles
// computed on the same view.
func checkRefined(t *testing.T, v *View, sys System, root VertexID) (bfsPath, prPath string) {
	t.Helper()
	snap := v.Snapshot()

	depths, st, err := v.RefineBFS(sys, root)
	if err != nil {
		t.Fatalf("epoch %d %v: RefineBFS: %v", v.Epoch(), sys, err)
	}
	bfsPath = st.Path
	for i, want := range refSeqDepths(snap, root) {
		if depths[i] != want {
			t.Fatalf("epoch %d %v (%s): RefineBFS depth[%d] = %d, want %d",
				v.Epoch(), sys, st.Path, i, depths[i], want)
		}
	}

	labels, st, err := v.RefineCC(sys)
	if err != nil {
		t.Fatalf("epoch %d %v: RefineCC: %v", v.Epoch(), sys, err)
	}
	for i, want := range refSeqLabels(snap) {
		if labels[i] != want {
			t.Fatalf("epoch %d %v (%s): RefineCC label[%d] = %d, want %d",
				v.Epoch(), sys, st.Path, i, labels[i], want)
		}
	}

	dist, st, err := v.RefineSSSP(sys, root)
	if err != nil {
		t.Fatalf("epoch %d %v: RefineSSSP: %v", v.Epoch(), sys, err)
	}
	wantDist, err := v.BellmanFord(sys, root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantDist {
		if dist[i] != wantDist[i] {
			t.Fatalf("epoch %d %v (%s): RefineSSSP dist[%d] = %d, want %d",
				v.Epoch(), sys, st.Path, i, dist[i], wantDist[i])
		}
	}

	ranks, st, err := v.RefinePageRank(sys, 0)
	if err != nil {
		t.Fatalf("epoch %d %v: RefinePageRank: %v", v.Epoch(), sys, err)
	}
	prPath = st.Path
	wantRanks, err := v.PageRankDelta(sys, 400, DefaultRefineEps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantRanks {
		if math.Abs(ranks[i]-wantRanks[i]) > 1e-6*(1+math.Abs(wantRanks[i])) {
			t.Fatalf("epoch %d %v (%s): RefinePageRank rank[%d] = %.12g, want %.12g",
				v.Epoch(), sys, st.Path, i, ranks[i], wantRanks[i])
		}
	}
	return bfsPath, prPath
}

// TestRefineMatchesScratchAcrossEpochs is the tentpole property test: a
// mixed repair/growth powerlaw stream queried every epoch, rotating the
// framework model, with every refined result checked against a scratch
// oracle on the same view. The refine path (not just the fallback) must
// actually run for the test to mean anything.
func TestRefineMatchesScratchAcrossEpochs(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.03, 4000, 7, StreamOptions{GrowFrac: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 64, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}

	const batch = 256
	systems := []System{Ligra, Polymer, GraphGrind}
	growthEpochs, refined := 0, 0
	epoch := 0
	ext := external(updates)
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		r, err := d.IngestBatch(ext[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if r.Admitted > 0 {
			growthEpochs++
		}
		v := d.View()
		bfsPath, prPath := checkRefined(t, v, systems[epoch%len(systems)], 0)
		if bfsPath == RefineRefined {
			refined++
		}
		if epoch == 0 {
			if bfsPath != RefineScratchSeed || prPath != RefineScratchSeed {
				t.Fatalf("first epoch paths = %s/%s, want scratch-seed", bfsPath, prPath)
			}
		}
		epoch++
	}
	if growthEpochs == 0 {
		t.Fatal("stream admitted no vertices; growth refinement was not exercised")
	}
	if refined < epoch/2 {
		t.Fatalf("refine path ran on only %d of %d epochs; basis seeding is broken", refined, epoch)
	}
}

// TestRefineVerticesCounted holds the vebo_refine_vertices_total series to
// the RefineStats the queries returned: the reset and frontier counts of
// every refine query, summed.
func TestRefineVerticesCounted(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.03, 1024, 7, StreamOptions{GrowFrac: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 64, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	var reset, frontier int64
	ext := external(updates)
	for lo := 0; lo < len(ext); lo += 256 {
		if _, err := d.IngestBatch(ext[lo:min(lo+256, len(ext))]); err != nil {
			t.Fatal(err)
		}
		_, st, err := d.View().RefineBFS(Ligra, 0)
		if err != nil {
			t.Fatal(err)
		}
		reset += int64(st.ResetVertices)
		frontier += int64(st.FrontierVertices)
	}
	if frontier == 0 {
		t.Fatal("no refine query touched a vertex")
	}
	got := map[string]int64{}
	for _, m := range d.Metrics().Gather() {
		if m.Name == "vebo_refine_vertices_total" {
			got[m.Labels] = m.Value
		}
	}
	if got[`kind="reset"`] != reset || got[`kind="frontier"`] != frontier {
		t.Fatalf("vebo_refine_vertices_total = %v, want reset %d, frontier %d", got, reset, frontier)
	}
}

// TestRefineSeedFixUps pins the seed rule: within a numbering lineage a
// refined query copies the basis capture and rewrites only the moved and
// admitted slots; across a placement change it gathers through both
// permutations. A vertex-heavy growth stream with one forced rebuild
// reaches swap, admission, mover-into-hole, spill and rebuild epochs. Before
// every query the seed built from each basis capture must equal a full
// re-permute of the basis result at every occupied slot, and every answer
// must equal the scratch oracles, on each framework model.
func TestRefineSeedFixUps(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.02, 800, 1, StreamOptions{GrowFrac: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ext := external(updates)
	keys := []refineKey{{alg: "bfs"}, {alg: "cc"}, {alg: "sssp"}, {alg: "pagerank"}}
	for _, sys := range []System{Ligra, Polymer, GraphGrind} {
		d, err := NewDynamic(g, DynamicOptions{Partitions: 8, Engine: viewTestOpts})
		if err != nil {
			t.Fatal(err)
		}
		// Epochs seeded from a basis capture, by what the delta holds.
		var swaps, admits, holes, placement, refined int
		for i, lo := 0, 0; lo < len(ext); i, lo = i+1, lo+64 {
			if i == 4 {
				d.inner.Rebuild()
			}
			if _, err := d.IngestBatch(ext[lo:min(lo+64, len(ext))]); err != nil {
				t.Fatal(err)
			}
			v := d.View()
			for _, key := range keys {
				c, b := v.basisCapture(key)
				if c == nil {
					continue
				}
				switch bs := c.vals.(type) {
				case []int64:
					assertSeedIsRepermute(t, v, b, key, bs)
				case []float64:
					assertSeedIsRepermute(t, v, b, key, bs)
				}
				if key.alg != "bfs" {
					continue
				}
				vd := v.deltaOver()
				if vd.Broken {
					placement++
					continue
				}
				if len(vd.Moved) > 0 {
					swaps++
				}
				if len(vd.Grown) > 0 {
					admits++
				}
				if slices.Contains(vd.Seg, graph.NoVertex) {
					holes++
				}
			}
			if bfsPath, _ := checkRefined(t, v, sys, 0); bfsPath == RefineRefined {
				refined++
			}
		}
		st := d.Stats()
		t.Logf("%v: seeded %d swap, %d admission, %d mover-into-hole, %d placement-change epochs; refined %d; spills %d",
			sys, swaps, admits, holes, placement, refined, st.HeadroomSpills)
		if swaps == 0 || admits == 0 || holes == 0 || placement < 2 || st.HeadroomSpills == 0 || refined == 0 {
			t.Fatalf("%v: a case was not exercised", sys)
		}
	}
}

// assertSeedIsRepermute checks seedFrom against the full re-permute it
// replaces: the basis capture gathered back to original IDs, then
// scattered into the view's slots, zero at vertices admitted since.
func assertSeedIsRepermute[T int64 | float64](t *testing.T, v, b *View, key refineKey, bs []T) {
	t.Helper()
	got := seedFrom(v, b, bs, v.deltaOver())
	want := permuteIn(v.ord.Perm, unpermute(b.ord.Perm, bs), v.slots())
	for w, s := range v.ord.Perm {
		if got[s] != want[s] {
			vd := v.deltaOver()
			t.Fatalf("epoch %d %s: seed at slot %d (vertex %d) = %v, want %v (basis epoch %d, %d moved, %d admitted, placement changed %v)",
				v.Epoch(), key.alg, s, w, got[s], want[s], b.Epoch(), len(vd.Moved), len(vd.Grown), vd.Broken)
		}
	}
}

// TestRefinePageRankReturnsOwnSlice: the ranks RefinePageRank returns are the
// caller's to write. Overwriting them must not reach the capture, so the
// next query on the same view is answered from the cache unchanged.
func TestRefinePageRankReturnsOwnSlice(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.03, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 32, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(updates); err != nil {
		t.Fatal(err)
	}
	v := d.View()
	first, _, err := v.RefinePageRank(Ligra, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first)
	for i := range first {
		first[i] = -1
	}
	again, st, err := v.RefinePageRank(Ligra, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Path != RefineCached {
		t.Fatalf("second query path = %s, want cached", st.Path)
	}
	if !slices.Equal(again, want) {
		t.Fatal("writing a returned rank slice changed the cached answer")
	}
}

// TestRefineCachedOnSameView checks that a second identical query on the
// same view is answered from the view's own capture.
func TestRefineCachedOnSameView(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.03, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 32, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(updates); err != nil {
		t.Fatal(err)
	}
	v := d.View()
	first, st, err := v.RefineBFS(Ligra, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Path != RefineScratchSeed {
		t.Fatalf("first query path = %s, want scratch-seed", st.Path)
	}
	// Same key on a different system: captures are model-independent.
	again, st, err := v.RefineBFS(Polymer, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Path != RefineCached {
		t.Fatalf("second query path = %s, want cached", st.Path)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("cached result diverges at %d", i)
		}
	}
	// A different root is a different key and must not hit the cache.
	if _, st, err = v.RefineBFS(Ligra, 1); err != nil {
		t.Fatal(err)
	}
	if st.Path != RefineScratchSeed {
		t.Fatalf("distinct-root query path = %s, want scratch-seed", st.Path)
	}
}

// TestRefineNeverServesStaleAfterRebuild is the invalidation regression: a
// converged result is captured, then edge deletions — across an epoch that
// renumbers the whole vertex space (the lineage's first admission relabels
// the ordering into slotted form) — must never be answered with the
// pre-deletion values. Hand-crafted path topology makes staleness
// detectable at specific vertices.
func TestRefineNeverServesStaleAfterRebuild(t *testing.T) {
	const n = 64
	var edges []Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{Src: VertexID(i), Dst: VertexID(i + 1)})
	}
	g, err := FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 8, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}

	v1 := d.View()
	depths, _, err := v1.RefineBFS(Ligra, 0)
	if err != nil {
		t.Fatal(err)
	}
	if depths[n-1] != n-1 {
		t.Fatalf("path depth[%d] = %d, want %d", n-1, depths[n-1], n-1)
	}

	// Epoch 2: cut the path at 10→11 and bridge 0→20. Everything in [11,20]
	// goes unreachable; [20,n) re-routes through the bridge.
	batch := []EdgeUpdate{
		{Time: 1, Src: 10, Dst: 11, Del: true},
		{Time: 2, Src: 0, Dst: 20, Weight: 1},
	}
	if _, err := d.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	v2 := d.View()
	depths, st, err := v2.RefineBFS(Ligra, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refSeqDepths(v2.Snapshot(), 0) {
		if depths[i] != want {
			t.Fatalf("epoch 2 (%s): depth[%d] = %d, want %d (stale pre-deletion value served?)",
				st.Path, i, depths[i], want)
		}
	}
	if depths[15] != -1 {
		t.Fatalf("cut segment still reachable: depth[15] = %d", depths[15])
	}

	// Epoch 3: heavy skewed churn to force maintenance, another cut at
	// 25→26, and one admission (vertex n) whose first-growth relabel makes
	// this a renumbering epoch.
	churn := []EdgeUpdate{{Time: 3, Src: 25, Dst: 26, Del: true}}
	tm := int64(4)
	for i := 0; i < 300; i++ {
		churn = append(churn, EdgeUpdate{Time: tm, Src: VertexID(40 + i%4), Dst: VertexID(i % n), Weight: 1})
		tm++
	}
	churn = append(churn, EdgeUpdate{Time: tm, Src: 30, Dst: n, Weight: 1})
	if _, err := d.IngestBatch(external(churn)); err != nil {
		t.Fatal(err)
	}
	v3 := d.View()
	if st := d.Stats(); st.Repairs == 0 && st.FullRebuilds == 0 {
		t.Fatal("churn epoch triggered no maintenance; rebuild-cause staleness not exercised")
	}
	if d.inner.RenumEpoch() == 0 {
		t.Fatal("churn epoch did not renumber; renumbering staleness not exercised")
	}
	depths, st, err = v3.RefineBFS(Ligra, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refSeqDepths(v3.Snapshot(), 0) {
		if depths[i] != want {
			t.Fatalf("epoch 3 (%s): depth[%d] = %d, want %d (stale result after rebuild-cause epoch)",
				st.Path, i, depths[i], want)
		}
	}
}

// TestRefineFallbackGate checks that a delta touching more than the gated
// fraction of vertices takes the scratch-fallback path and still returns
// correct results.
func TestRefineFallbackGate(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.03, 3000, 23)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 32, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	// Small first batch: seeds the capture chain.
	if _, err := d.ApplyBatch(updates[:64]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.View().RefineBFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}
	// One huge batch: the delta touches far more than n/5 distinct vertices.
	if _, err := d.ApplyBatch(updates[64:]); err != nil {
		t.Fatal(err)
	}
	v := d.View()
	depths, st, err := v.RefineBFS(Ligra, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Path != RefineScratchFallback {
		t.Fatalf("huge-delta path = %s, want scratch-fallback", st.Path)
	}
	for i, want := range refSeqDepths(v.Snapshot(), 0) {
		if depths[i] != want {
			t.Fatalf("fallback depth[%d] = %d, want %d", i, depths[i], want)
		}
	}
}

// TestRefinePageRankRejectsNaNEps: a NaN threshold fails every ordered
// comparison, so it would pass the eps <= 0 default check, stop the cold run
// after one round and, once cached, let the next epoch refine from that
// unconverged vector. It must be an error that caches nothing.
func TestRefinePageRankRejectsNaNEps(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.03, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 32, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(updates[:250]); err != nil {
		t.Fatal(err)
	}
	v := d.View()
	// Materialize v so it becomes the next view's basis.
	if _, err := v.Reordered(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.RefinePageRank(Ligra, math.NaN()); err == nil {
		t.Fatal("RefinePageRank accepted eps = NaN")
	}
	if _, err := d.ApplyBatch(updates[250:]); err != nil {
		t.Fatal(err)
	}
	v2 := d.View()
	ranks, st, err := v2.RefinePageRank(Ligra, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Path != RefineScratchSeed {
		t.Fatalf("next-epoch path = %s, want scratch-seed (the NaN query cached a capture)", st.Path)
	}
	want, err := v2.PageRankDelta(Ligra, 400, DefaultRefineEps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(ranks[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Fatalf("rank[%d] = %.12g, want %.12g", i, ranks[i], want[i])
		}
	}
}

// TestRefineLeavesViewDeltaIntact runs refinement before the engine patch
// that reads the same view's delta: RefineSSSP and RefinePageRank refine on
// Ligra, then the view patches its GraphGrind engine from the basis's,
// choosing dirty partitions from the delta's endpoints. The patched engine
// must compute what a reuse-disabled twin's scratch engine does, and the
// relabeled graph must equal a scratch relabel of the snapshot — neither
// holds if a warm step rewrote the shared delta in place.
func TestRefineLeavesViewDeltaIntact(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.04, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
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
	refined, relabeled := 0, 0
	const batch = 64
	for lo := 0; lo < len(updates); lo += batch {
		hi := min(lo+batch, len(updates))
		if _, err := dp.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatal(err)
		}
		vp, vs := dp.View(), ds.View()
		b := vp.basis.Load()
		_, sst, err := vp.RefineSSSP(Ligra, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, pst, err := vp.RefinePageRank(Ligra, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sst.Path == RefineRefined && pst.Path == RefineRefined {
			refined++
		}
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
				t.Fatalf("epoch %d: GraphGrind SPMV after refinement diverges at %d: %v vs %v", vp.Epoch(), i, yp[i], ys[i])
			}
		}
		rg, err := vp.Reordered()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Apply(vp.Snapshot(), vp.ord)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rg.Edges(), want.Edges()) {
			t.Fatalf("epoch %d: relabeled graph after refinement differs from a scratch relabel", vp.Epoch())
		}
		if b == nil {
			continue
		}
		// deltaOver relabeled Since's lists in place; the logs behind them
		// must still net to the original-ID lists.
		vd := vp.deltaOver()
		adds, dels, _ := vp.frozen.Since(b.frozen)
		for _, l := range [][2][]graph.Edge{{adds, vd.Adds}, {dels, vd.Dels}} {
			orig, slot := l[0], l[1]
			if len(orig) != len(slot) {
				t.Fatalf("epoch %d: Since returned %d edges, the view's delta holds %d", vp.Epoch(), len(orig), len(slot))
			}
			for i, e := range orig {
				if e.Src != slot[i].Src || e.Dst != slot[i].Dst {
					relabeled++
				}
				e.Src, e.Dst = vp.ord.Perm[e.Src], vp.ord.Perm[e.Dst]
				if e != slot[i] {
					t.Fatalf("epoch %d: Since edge %d relabels to %v, the view's delta holds %v", vp.Epoch(), i, e, slot[i])
				}
			}
		}
	}
	if refined == 0 {
		t.Fatal("no epoch refined both queries; the warm steps never ran")
	}
	if relabeled == 0 {
		t.Fatal("no delta edge changed under the relabel; the in-place rewrite was not observed")
	}
	if dp.ViewWork().EnginePatches == 0 {
		t.Fatal("GraphGrind was never patched; the delta's engine consumer never ran")
	}
}

// TestDynamicRejectsNegativeWeights: refinement's deletion cone and
// RelaxResume assume every stored weight is at least 1, so a weighted graph
// holding a negative weight, and an insertion carrying one, are errors.
// The graph is the case that broke that assumption: with 1→2 stored at −8,
// deleting 0→1 left RefineSSSP's refined distances at [0 10 2 …] where
// BellmanFord gives [0 13 5 …].
func TestDynamicRejectsNegativeWeights(t *testing.T) {
	build := func(w12 int32) *Graph {
		es := []graph.Edge{{Src: 0, Dst: 1, Weight: 10}, {Src: 1, Dst: 2, Weight: w12}, {Src: 2, Dst: 1, Weight: 8}, {Src: 0, Dst: 2, Weight: 5}}
		for v := VertexID(3); v < 100; v++ {
			es = append(es, graph.Edge{Src: v - 1, Dst: v, Weight: 1})
		}
		g, err := graph.FromEdges(100, es, true)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if d, err := NewDynamic(build(-8), DynamicOptions{Partitions: 4}); err == nil {
		if _, _, err := d.View().RefineSSSP(Ligra, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ApplyBatch([]EdgeUpdate{{Src: 0, Dst: 1, Weight: 10, Del: true}}); err != nil {
			t.Fatal(err)
		}
		v := d.View()
		got, st, err := v.RefineSSSP(Ligra, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := v.BellmanFord(Ligra, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("a graph with a negative weight was accepted; after deleting 0→1, RefineSSSP (%s) gives %v, BellmanFord %v",
			st.Path, got[:3], want[:3])
	}
	d, err := NewDynamic(build(8), DynamicOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := d.View().NumEdges()
	if _, err := d.ApplyBatch([]EdgeUpdate{{Src: 1, Dst: 2, Weight: -8}}); err == nil {
		t.Fatal("an insertion with a negative weight was accepted")
	}
	if got := d.View().NumEdges(); got != m {
		t.Fatalf("the rejected insertion left %d edges, want %d", got, m)
	}
}
