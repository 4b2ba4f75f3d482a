package vebo

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestViewPatchedAcrossGrowthEpochs is the growth acceptance property: a
// stream interleaving vertex arrivals with edge churn is replayed through
// two facades — engine reuse on (views patch across repair AND growth
// epochs) versus DisableViewReuse (every view rebuilds from scratch) — and
// BFS, CC and BellmanFord must agree exactly on every epoch for all three
// framework models, across at least three epochs that each admit vertices.
func TestViewPatchedAcrossGrowthEpochs(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.03, 4000, 7, StreamOptions{GrowFrac: 0.02})
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
	growthEpochs := 0
	n := g.NumVertices()
	ext := external(updates)
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		rp, err := dp.IngestBatch(ext[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ds.IngestBatch(ext[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if rp.Admitted != rs.Admitted {
			t.Fatalf("admission skew: %d vs %d", rp.Admitted, rs.Admitted)
		}
		if rp.Admitted > 0 {
			growthEpochs++
		}
		vp, vs := dp.View(), ds.View()
		if vp.NumVertices() != vs.NumVertices() {
			t.Fatalf("vertex count skew: %d vs %d", vp.NumVertices(), vs.NumVertices())
		}
		// Root from the batch so traversals reach fresh structure; results
		// are indexed by original ID, so arrays extend epoch over epoch.
		root := VertexID(int(updates[lo].Dst) % n)
		assertViewsAgree(t, vp, vs, root)
	}

	if growthEpochs < 3 {
		t.Fatalf("only %d growth epochs; the property was not exercised", growthEpochs)
	}
	if dp.NumVertices() == n {
		t.Fatal("stream admitted no vertices")
	}
	work := dp.ViewWork()
	if work.GraphPatches == 0 || work.EnginePatches == 0 {
		t.Fatalf("growth run never patched: %+v", work)
	}
	sw := ds.ViewWork()
	if work.RebuildEdges+work.PatchedEdges+work.RelabeledEdges >= sw.RebuildEdges {
		t.Fatalf("patching across growth epochs saved no work: %d+%d+%d vs %d",
			work.RebuildEdges, work.PatchedEdges, work.RelabeledEdges, sw.RebuildEdges)
	}
	assertDerives(t, dp)
}

// TestViewSnapshotCanonicalAcrossGrowth checks view snapshots over a growing
// vertex space: at every epoch the snapshot spans the view's vertex count
// and equals the scratch build of its own edge multiset.
func TestViewSnapshotCanonicalAcrossGrowth(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.03, 2000, 29, StreamOptions{GrowFrac: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewDynamic(g, DynamicOptions{Partitions: 32, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 128
	ext := external(updates)
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		if _, err := dp.IngestBatch(ext[lo:hi]); err != nil {
			t.Fatal(err)
		}
		v := dp.View()
		snap := v.Snapshot()
		if snap.NumVertices() != v.NumVertices() {
			t.Fatalf("snapshot has %d vertices, view %d", snap.NumVertices(), v.NumVertices())
		}
		want, err := FromEdges(v.NumVertices(), snap.Edges(), snap.Weighted())
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(snap, want) {
			t.Fatalf("epoch %d: snapshot is not canonical", v.Epoch())
		}
	}
}

// TestIngestBatchExternalIDs drives the external-ID ingest path: sparse
// 64-bit IDs are interned onto dense internal IDs, unseen vertices are
// admitted, views expose the mapping, and results keep their external
// keying across growth epochs.
func TestIngestBatchExternalIDs(t *testing.T) {
	g, err := Generate("powerlaw", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(g.NumVertices())
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	// Sparse externals far outside the dense range.
	extA, extB := uint64(1)<<40+17, uint64(1)<<50+99
	res, err := d.IngestBatch([]ExternalEdgeUpdate{
		{Src: extA, Dst: 3},    // new source, existing (identity) destination
		{Src: 3, Dst: extB},    // new destination
		{Src: extA, Dst: extB}, // both already interned now
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 2 {
		t.Fatalf("admitted %d, want 2", res.Admitted)
	}
	v := d.View()
	if v.NumVertices() != int(n)+2 {
		t.Fatalf("view has %d vertices, want %d", v.NumVertices(), n+2)
	}
	ia, ok := v.Resolve(extA)
	if !ok || uint64(ia) != n {
		t.Fatalf("Resolve(%d)=%d,%v want %d", extA, ia, ok, n)
	}
	ib, ok := v.Resolve(extB)
	if !ok || uint64(ib) != n+1 {
		t.Fatalf("Resolve(%d)=%d,%v want %d", extB, ib, ok, n+1)
	}
	if ext, ok := v.External(ia); !ok || ext != extA {
		t.Fatalf("External(%d)=%d,%v want %d", ia, ext, ok, extA)
	}
	if ext, ok := v.External(2); !ok || ext != 2 {
		t.Fatalf("identity seed broken: External(2)=%d,%v", ext, ok)
	}
	exts := v.ExternalIDs()
	if len(exts) != v.NumVertices() || exts[ia] != extA || exts[ib] != extB {
		t.Fatalf("ExternalIDs table wrong: len=%d", len(exts))
	}
	// The graph actually contains the ingested edges.
	snap := v.Snapshot()
	if !snap.HasEdge(ia, 3) || !snap.HasEdge(3, ib) || !snap.HasEdge(ia, ib) {
		t.Fatal("ingested edges missing from snapshot")
	}
	// Deletion through externals; unknown externals fail without admitting.
	if _, err := d.IngestBatch([]ExternalEdgeUpdate{{Src: extA, Dst: 3, Del: true}}); err != nil {
		t.Fatal(err)
	}
	if d.View().Snapshot().HasEdge(ia, 3) {
		t.Fatal("external deletion did not land")
	}
	nBefore := d.NumVertices()
	if _, err := d.IngestBatch([]ExternalEdgeUpdate{{Src: 1 << 60, Dst: 3, Del: true}}); err == nil {
		t.Fatal("expected error deleting through an unknown external")
	}
	if d.NumVertices() != nBefore {
		t.Fatalf("failed deletion admitted vertices: %d -> %d", nBefore, d.NumVertices())
	}
	// Algorithm results stay keyed position-for-position: a vertex's CC
	// label index equals its internal ID, whose external key never moves.
	labels, err := d.View().CC(GraphGrind)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != d.NumVertices() {
		t.Fatalf("CC length %d != n %d", len(labels), d.NumVertices())
	}
	// extB is reachable from vertex 3 (edge 3→extB survives), so label
	// propagation pulls it into 3's component.
	if labels[ib] != labels[3] {
		t.Fatalf("reachable external in a different component: %d vs %d", labels[ib], labels[3])
	}
	// An old view keeps its shorter epoch: Resolve of a later-interned
	// external must fail on it.
	old := d.View()
	if _, err := d.IngestBatch([]ExternalEdgeUpdate{{Src: 1<<45 + 5, Dst: extA}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := old.Resolve(1<<45 + 5); ok {
		t.Fatal("old view resolved an external interned after its epoch")
	}
	if _, ok := d.View().Resolve(1<<45 + 5); !ok {
		t.Fatal("new view cannot resolve the fresh external")
	}
}

// external converts a dense-ID stream into IngestBatch updates, the only
// path that admits vertices.
func external(updates []EdgeUpdate) []ExternalEdgeUpdate {
	ext := make([]ExternalEdgeUpdate, len(updates))
	for i, u := range updates {
		ext[i] = ExternalEdgeUpdate{
			Time: u.Time, Src: uint64(u.Src), Dst: uint64(u.Dst), Weight: u.Weight, Del: u.Del,
		}
	}
	return ext
}

// TestIngestBatchKeepsGrowthStreamIDs pins the property the growth tests
// and experiments rely on when they feed a GrowFrac stream through
// IngestBatch: the stream mints new IDs n, n+1, … in order, each first named
// by the update that introduces it, so the identity-seeded allocator admits
// every vertex under the internal ID equal to its stream ID.
func TestIngestBatchKeepsGrowthStreamIDs(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.02, 3000, 11, StreamOptions{GrowFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	maxID := g.NumVertices() - 1
	for _, u := range updates {
		maxID = max(maxID, int(u.Src), int(u.Dst))
	}
	if maxID < g.NumVertices() {
		t.Fatal("stream admits no vertices")
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	ext := external(updates)
	const batch = 100
	for lo := 0; lo < len(ext); lo += batch {
		if _, err := d.IngestBatch(ext[lo:min(lo+batch, len(ext))]); err != nil {
			t.Fatal(err)
		}
	}
	v := d.View()
	if d.NumVertices() != maxID+1 || v.NumVertices() != maxID+1 {
		t.Fatalf("NumVertices %d (view %d), want highest stream ID + 1 = %d",
			d.NumVertices(), v.NumVertices(), maxID+1)
	}
	for x := 0; x < v.NumVertices(); x++ {
		if id, ok := v.Resolve(uint64(x)); !ok || int(id) != x {
			t.Fatalf("Resolve(%d) = %d, %v; want %d", x, id, ok, x)
		}
	}
}

// TestIngestBatchConcurrentResolve races reader-side Resolve/External
// against writer-side external ingest (meaningful under -race): views
// published before the first IngestBatch must answer safely while the
// allocator is being installed and grown.
func TestIngestBatchConcurrentResolve(t *testing.T) {
	g, err := Generate("powerlaw", 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	pre := d.View() // predates the allocator
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ext := 1<<42 + i%200
				if id, ok := pre.Resolve(ext); ok && int(id) >= pre.NumVertices() {
					t.Errorf("pre-ingest view resolved %d to out-of-epoch id %d", ext, id)
					return
				}
				v := d.View()
				if id, ok := v.Resolve(ext); ok {
					if back, ok2 := v.External(id); !ok2 || back != ext {
						t.Errorf("round trip broke for %d", ext)
						return
					}
				}
			}
		}()
	}
	for i := uint64(0); i < 200; i++ {
		if _, err := d.IngestBatch([]ExternalEdgeUpdate{{Src: 1<<42 + i, Dst: i % 100}}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestGrowthEpochSkipsRelabel pins the O(delta) growth regression: with
// maintenance moves disabled, every admission after the lineage's first
// (which converts the compact ordering to a slotted one, and whose view
// renumbers its graph) lands in reserved headroom, so the old→new injection is the
// identity outside grown segments and no partition may ever take the
// relabel (remap) path — unshifted partitions are reused outright, only
// dirty ones rebuilt.
func TestGrowthEpochSkipsRelabel(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.03, 1500, 13, StreamOptions{GrowFrac: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{
		Partitions: 32, Engine: viewTestOpts,
		RebuildThreshold: 1 << 40, VertexRebuildThreshold: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 128
	ext := external(updates)
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		if _, err := d.IngestBatch(ext[lo:hi]); err != nil {
			t.Fatal(err)
		}
		// Materialize the epoch's engine so the patch-vs-rebuild decision is
		// actually exercised, not just recorded lazily.
		if _, err := d.View().CC(GraphGrind); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().Admitted == 0 {
		t.Fatal("stream admitted no vertices")
	}
	if _, capacity := d.Headroom(); capacity == 0 {
		t.Fatal("lineage never became slotted")
	}
	work := d.ViewWork()
	if work.EnginePatches == 0 || work.PartitionsReused == 0 {
		t.Fatalf("growth epochs never took the patched path: %+v", work)
	}
	if work.PartitionsRelabeled != 0 || work.RelabeledEdges != 0 {
		t.Fatalf("identity-outside-growth violated: %d partitions / %d edges relabeled",
			work.PartitionsRelabeled, work.RelabeledEdges)
	}
}

// TestViewPatchedAcrossHeadroomSpills forces headroom exhaustion mid-stream
// (a vertex-heavy stream outruns the reserved slots) and checks that
// patched and scratch-built views still agree on BFS, CC and BellmanFord for
// all three framework models across the spill boundaries.
func TestViewPatchedAcrossHeadroomSpills(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.02, 1500, 19, StreamOptions{GrowFrac: 0.3})
	if err != nil {
		t.Fatal(err)
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
	const batch = 64
	growthEpochs := 0
	n := g.NumVertices()
	ext := external(updates)
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		rp, err := dp.IngestBatch(ext[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.IngestBatch(ext[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if rp.Admitted > 0 {
			growthEpochs++
		}
		vp, vs := dp.View(), ds.View()
		root := VertexID(int(updates[lo].Dst) % n)
		assertViewsAgree(t, vp, vs, root)
	}
	if growthEpochs < 3 {
		t.Fatalf("only %d growth epochs; the property was not exercised", growthEpochs)
	}
	if st := dp.Stats(); st.HeadroomSpills == 0 {
		t.Fatalf("headroom never spilled (admitted %d): %+v", st.Admitted, st)
	}
}

// TestViewPatchesMoverIntoHole covers the swap that moves a basis vertex
// into a basis hole: a vertex admitted since the basis fills a reserved
// slot, and a swap repair in the same batch pairs it with a basis vertex,
// which takes that slot. The hole has no image left, so the view's seg
// maps it to NoVertex. A vertex-heavy stream makes the case recur; every
// epoch is queried on both sides, so each view patches from its
// predecessor, and patched results must equal scratch builds on all three
// framework models without a scratch fallback.
func TestViewPatchesMoverIntoHole(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.02, 600, 1, StreamOptions{GrowFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	opts := DynamicOptions{Partitions: 8, Engine: viewTestOpts}
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
	holes := 0
	ext := external(updates)
	for lo := 0; lo < len(ext); lo += 32 {
		hi := min(lo+32, len(ext))
		if _, err := dp.IngestBatch(ext[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.IngestBatch(ext[lo:hi]); err != nil {
			t.Fatal(err)
		}
		vp, vs := dp.View(), ds.View()
		assertViewsAgree(t, vp, vs, VertexID(int(updates[lo].Dst)%g.NumVertices()))
		if slices.Contains(vp.delta.Seg, graph.NoVertex) {
			holes++
		}
	}
	if holes == 0 {
		t.Fatal("no swap moved a basis vertex into a basis hole; the case was not exercised")
	}
	assertDerives(t, dp)
}
