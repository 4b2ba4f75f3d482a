package dynamic

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// applyStream replays updates in batches, failing the test on any error.
func applyStream(t *testing.T, d *Graph, updates []graph.EdgeUpdate, batch int) {
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

// referenceSurvivors replays the stream against a plain edge multiset,
// mirroring the subsystem's cancellation order: a deletion removes the most
// recently inserted live (s,d) occurrence, else the earliest base occurrence.
// On unweighted graphs every occurrence of a pair is identical, so any
// cancellation order yields the same multiset.
func referenceSurvivors(g *graph.Graph, updates []graph.EdgeUpdate) []graph.Edge {
	type key struct{ s, d graph.VertexID }
	count := make(map[key]int64)
	for _, e := range g.Edges() {
		count[key{e.Src, e.Dst}]++
	}
	for _, u := range updates {
		k := key{u.Src, u.Dst}
		if u.Del {
			count[k]--
		} else {
			count[k]++
		}
	}
	var edges []graph.Edge
	for k, c := range count {
		for i := int64(0); i < c; i++ {
			edges = append(edges, graph.Edge{Src: k.s, Dst: k.d, Weight: 1})
		}
	}
	return edges
}

// TestSnapshotMatchesFromEdges is the compaction property test: after any
// stream of valid inserts and deletes, a snapshot is edge-for-edge identical
// to graph.FromEdges over the surviving edge multiset.
func TestSnapshotMatchesFromEdges(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g, err := gen.ErdosRenyi(300, 2000, seed)
		if err != nil {
			t.Fatal(err)
		}
		updates, err := gen.EdgeStream(g, gen.StreamConfig{
			Ops: 5000, DeleteFrac: 0.4, PreferentialFrac: 0.5, Seed: seed + 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(g, Config{Partitions: 16, CompactEvery: 512})
		if err != nil {
			t.Fatal(err)
		}
		applyStream(t, d, updates, 128)

		want, err := graph.FromEdges(g.NumVertices(), referenceSurvivors(g, updates), false)
		if err != nil {
			t.Fatal(err)
		}
		snap := d.Snapshot()
		if !graph.Equal(snap, want) {
			t.Fatalf("seed %d: snapshot differs from FromEdges over survivors (snap %d edges, want %d)",
				seed, snap.NumEdges(), want.NumEdges())
		}
		if d.NumEdges() != want.NumEdges() {
			t.Fatalf("seed %d: live edge count %d, want %d", seed, d.NumEdges(), want.NumEdges())
		}
		if d.Stats().Compactions == 0 {
			t.Fatalf("seed %d: expected at least one compaction with CompactEvery=512", seed)
		}
	}
}

// TestCountersMatchScratch checks the incremental Δ(n)/δ(n) accounting: the
// per-partition counters maintained in O(1) per update must equal the counts
// recomputed from scratch from the current assignment and snapshot, and
// after a forced full rebuild Δ(n)/δ(n) must equal core.Reorder run from
// scratch on the snapshot.
func TestCountersMatchScratch(t *testing.T) {
	const P = 24
	g, err := gen.ErdosRenyi(400, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	updates, err := gen.EdgeStream(g, gen.StreamConfig{
		Ops: 4000, DeleteFrac: 0.35, PreferentialFrac: 0.6, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: P})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates, 100)

	snap := d.Snapshot()
	wantEdges := make([]int64, P)
	wantVerts := make([]int64, P)
	for v := 0; v < snap.NumVertices(); v++ {
		p := d.PartitionOf(graph.VertexID(v))
		wantEdges[p] += snap.InDegree(graph.VertexID(v))
		wantVerts[p]++
		if d.InDegree(graph.VertexID(v)) != snap.InDegree(graph.VertexID(v)) {
			t.Fatalf("vertex %d: tracked degree %d, snapshot degree %d",
				v, d.InDegree(graph.VertexID(v)), snap.InDegree(graph.VertexID(v)))
		}
	}
	gotEdges, gotVerts := d.EdgeCounts(), d.VertexCounts()
	for p := 0; p < P; p++ {
		if gotEdges[p] != wantEdges[p] {
			t.Fatalf("partition %d: incremental edge count %d, recomputed %d", p, gotEdges[p], wantEdges[p])
		}
		if gotVerts[p] != wantVerts[p] {
			t.Fatalf("partition %d: incremental vertex count %d, recomputed %d", p, gotVerts[p], wantVerts[p])
		}
	}

	d.Rebuild()
	scratch, err := core.Reorder(snap, P, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.EdgeImbalance() != scratch.EdgeImbalance() {
		t.Fatalf("post-rebuild Δ(n) = %d, core.Reorder from scratch = %d",
			d.EdgeImbalance(), scratch.EdgeImbalance())
	}
	if d.VertexImbalance() != scratch.VertexImbalance() {
		t.Fatalf("post-rebuild δ(n) = %d, core.Reorder from scratch = %d",
			d.VertexImbalance(), scratch.VertexImbalance())
	}
}

// TestOrderingIsValid checks that Ordering() returns a genuine permutation
// grouping each partition into a contiguous new-ID range consistent with the
// tracked vertex counts, and that applying it to the snapshot yields an
// isomorphic graph.
func TestOrderingIsValid(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	updates, err := gen.EdgeStream(g, gen.StreamConfig{
		Ops: 1000, DeleteFrac: 0.3, PreferentialFrac: 0.4, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates, 64)

	r := d.Ordering()
	bounds := r.Boundaries()
	for v := 0; v < d.NumVertices(); v++ {
		p := r.PartitionOf[v]
		newID := int64(r.Perm[v])
		if newID < bounds[p] || newID >= bounds[p+1] {
			t.Fatalf("vertex %d: new ID %d outside partition %d range [%d,%d)",
				v, newID, p, bounds[p], bounds[p+1])
		}
	}
	snap := d.Snapshot()
	rg, err := snap.Relabel(snap.NumVertices(), r.Perm)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsIsomorphicUnder(snap, rg, r.Perm) {
		t.Fatal("relabelled snapshot is not isomorphic under the ordering permutation")
	}
}

// TestIncrementalWithinTwiceOfScratch is the acceptance property at unit
// scale: after a churn stream on the powerlaw recipe, threshold-gated
// incremental maintenance lands within 2× of the Δ(n) a full re-reorder
// achieves, while doing measurably fewer placements than re-reordering after
// every batch.
func TestIncrementalWithinTwiceOfScratch(t *testing.T) {
	const batch = 512
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 20_000, 42, gen.RecipeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 32})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates, batch)

	scratch, err := core.Reorder(d.Snapshot(), 32, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	limit := 2 * scratch.EdgeImbalance()
	if limit < 2 {
		limit = 2
	}
	if d.EdgeImbalance() > limit {
		t.Fatalf("incremental Δ(n) = %d, more than 2× the from-scratch Δ(n) = %d",
			d.EdgeImbalance(), scratch.EdgeImbalance())
	}
	batches := (len(updates) + batch - 1) / batch
	rebuildEvery := int64(batches) * int64(g.NumVertices())
	st := d.Stats()
	if st.Placements >= rebuildEvery {
		t.Fatalf("incremental placements %d not less than rebuild-every-batch %d",
			st.Placements, rebuildEvery)
	}
}

// TestApplyBatchRejectsInvalid checks range and existence validation.
func TestApplyBatchRejectsInvalid(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch([]graph.EdgeUpdate{{Src: 0, Dst: 9}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := d.ApplyBatch([]graph.EdgeUpdate{{Src: 2, Dst: 3, Del: true}}); err == nil {
		t.Fatal("expected delete-of-missing-edge error")
	}
	// Deleting the only edge twice: first succeeds, second fails.
	if _, err := d.ApplyBatch([]graph.EdgeUpdate{{Src: 0, Dst: 1, Del: true}, {Src: 0, Dst: 1, Del: true}}); err == nil {
		t.Fatal("expected second delete to fail")
	}
	if d.NumEdges() != 0 {
		t.Fatalf("live edges = %d, want 0", d.NumEdges())
	}
}

// TestInsertDeleteRoundTrip interleaves inserts and deletes of the same pair
// and checks multiplicity bookkeeping across a compaction.
func TestInsertDeleteRoundTrip(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 2, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ups := []graph.EdgeUpdate{
		{Src: 0, Dst: 1},            // multiplicity 2
		{Src: 0, Dst: 1, Del: true}, // back to 1 (cancels the log insert)
		{Src: 0, Dst: 1, Del: true}, // 0 (cancels the base edge)
		{Src: 0, Dst: 1},            // 1 again
		{Src: 2, Dst: 1},
	}
	if _, err := d.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if snap.NumEdges() != 2 || !snap.HasEdge(0, 1) || !snap.HasEdge(2, 1) {
		t.Fatalf("unexpected snapshot: %d edges", snap.NumEdges())
	}
	if !d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Fatal("HasEdge bookkeeping wrong")
	}
}

// TestRandomizedMixedChurn hammers the subsystem with uniformly random valid
// operations (not via gen) to probe cancellation corner cases.
func TestRandomizedMixedChurn(t *testing.T) {
	const n = 50
	rng := rand.New(rand.NewSource(5))
	g, err := gen.ErdosRenyi(n, 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 4, CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	live := g.Edges()
	var stream []graph.EdgeUpdate
	for i := 0; i < 3000; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live))
			e := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			stream = append(stream, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Del: true})
		} else {
			e := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: 1}
			live = append(live, e)
			stream = append(stream, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst})
		}
	}
	applyStream(t, d, stream, 17)
	want, err := graph.FromEdges(n, live, false)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(d.Snapshot(), want) {
		t.Fatalf("snapshot differs after mixed churn: %d edges vs %d", d.Snapshot().NumEdges(), want.NumEdges())
	}
}

// referenceSurvivorsWeighted replays a stream whose deletions all carry
// explicit weight selectors against a plain (src,dst,weight) multiset. With
// selectors, which occurrence dies is fully determined by the triple, so the
// multiset reference predicts the exact surviving edge set.
func referenceSurvivorsWeighted(g *graph.Graph, updates []graph.EdgeUpdate) map[graph.Edge]int64 {
	count := make(map[graph.Edge]int64)
	for _, e := range g.Edges() {
		count[e]++
	}
	for _, u := range updates {
		e := graph.Edge{Src: u.Src, Dst: u.Dst, Weight: u.Weight}
		if u.Del {
			count[e]--
			if count[e] == 0 {
				delete(count, e)
			}
		} else {
			count[e]++
		}
	}
	return count
}

// TestWeightedDeletionSemantics is the weighted edge-for-edge property test:
// EdgeUpdate.Weight selects which parallel edge a deletion cancels, so after
// any weighted churn stream the snapshot's (src,dst,weight) multiset matches
// the reference replay exactly, across compactions.
func TestWeightedDeletionSemantics(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		g, err := gen.ErdosRenyiWeighted(200, 1500, seed)
		if err != nil {
			t.Fatal(err)
		}
		updates, err := gen.EdgeStream(g, gen.StreamConfig{
			Ops: 4000, DeleteFrac: 0.45, PreferentialFrac: 0.5, Weighted: true, Seed: seed + 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range updates {
			if u.Del && u.Weight == 0 {
				t.Fatalf("update %d: weighted stream emitted deletion without weight selector", i)
			}
		}
		d, err := New(g, Config{Partitions: 16, CompactEvery: 700})
		if err != nil {
			t.Fatal(err)
		}
		applyStream(t, d, updates, 128)

		want := referenceSurvivorsWeighted(g, updates)
		got := make(map[graph.Edge]int64)
		var total int64
		for _, e := range d.Snapshot().Edges() {
			got[e]++
			total++
		}
		for e, c := range want {
			if got[e] != c {
				t.Fatalf("seed %d: edge %+v multiplicity %d, want %d", seed, e, got[e], c)
			}
		}
		if int64(len(got)) != int64(len(want)) || total != d.NumEdges() {
			t.Fatalf("seed %d: %d distinct triples (want %d), %d edges (want %d)",
				seed, len(got), len(want), total, d.NumEdges())
		}
		if d.Stats().Compactions == 0 {
			t.Fatalf("seed %d: expected compactions with CompactEvery=700", seed)
		}
	}
}

// TestWeightedDeleteSelectorValidation checks that a weight selector only
// cancels an edge carrying exactly that weight, and that unselected
// deletions on weighted graphs resolve deterministically (most recent
// pending insertion first, else earliest base occurrence).
func TestWeightedDeleteSelectorValidation(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 5}, {Src: 0, Dst: 1, Weight: 9}}, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Selector matching no live weight fails; the edges stay live.
	if _, err := d.ApplyBatch([]graph.EdgeUpdate{{Src: 0, Dst: 1, Weight: 7, Del: true}}); err == nil {
		t.Fatal("expected error deleting (0,1) weight 7")
	}
	if d.NumEdges() != 2 {
		t.Fatalf("live edges %d, want 2", d.NumEdges())
	}
	// Selector 9 kills exactly the weight-9 parallel edge.
	if _, err := d.ApplyBatch([]graph.EdgeUpdate{{Src: 0, Dst: 1, Weight: 9, Del: true}}); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if snap.NumEdges() != 1 || snap.OutWeights(0)[0] != 5 {
		t.Fatalf("surviving edge wrong: %d edges, weights %v", snap.NumEdges(), snap.OutWeights(0))
	}
	// Unselected delete after inserting weight 3: the pending insertion dies
	// first, leaving the base weight-5 edge.
	if _, err := d.ApplyBatch([]graph.EdgeUpdate{
		{Src: 0, Dst: 1, Weight: 3},
		{Src: 0, Dst: 1, Del: true},
	}); err != nil {
		t.Fatal(err)
	}
	snap = d.Snapshot()
	if snap.NumEdges() != 1 || snap.OutWeights(0)[0] != 5 {
		t.Fatalf("unselected delete resolved wrongly: weights %v", snap.OutWeights(0))
	}
}

// TestVertexImbalanceBounded is the δ(n) regression test on the
// 100k-update powerlaw stream: swap repairs exchange vertices 1-for-1, so
// the post-stream δ(n) stays bounded by the gate threshold while Δ(n) stays
// near the edge threshold.
func TestVertexImbalanceBounded(t *testing.T) {
	const batch = 1024
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.2, 100_000, 42, gen.RecipeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates, batch)
	if got, want := d.VertexImbalance(), int64(DefaultVertexThreshold); got > want {
		t.Fatalf("post-stream δ(n) = %d exceeds the gate threshold %d", got, want)
	}
	if d.EdgeImbalance() > 2*2 {
		t.Fatalf("post-stream Δ(n) = %d degraded past 2× the edge threshold", d.EdgeImbalance())
	}
	// The gate must not degrade incrementality: far fewer placements than
	// re-running Algorithm 2 after every batch.
	batches := int64((len(updates) + batch - 1) / batch)
	if st := d.Stats(); st.Placements*2 >= batches*int64(g.NumVertices()) {
		t.Fatalf("placements %d not well under rebuild-every-batch %d",
			st.Placements, batches*int64(g.NumVertices()))
	}
}

// TestSwapRepairKeepsPlacementShape is the placement-preserving repair
// invariant test: per-partition vertex counts — and therefore the
// ordering's segment boundaries — never change between full rebuilds,
// repairs are pure ID swaps (RenumEpoch stays at its initial value), and the
// edge balance still lands under the effective threshold.
func TestSwapRepairKeepsPlacementShape(t *testing.T) {
	const batch = 256
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 20_000, 42, gen.RecipeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 32})
	if err != nil {
		t.Fatal(err)
	}
	initCounts := d.VertexCounts()
	initRenum := d.RenumEpoch()
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		res, err := d.ApplyBatch(updates[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if res.Rebuilt {
			t.Fatalf("batch at %d fell back to a full rebuild", lo)
		}
		counts := d.VertexCounts()
		for p := range counts {
			if counts[p] != initCounts[p] {
				t.Fatalf("batch at %d: partition %d vertex count drifted %d -> %d",
					lo, p, initCounts[p], counts[p])
			}
		}
	}
	st := d.Stats()
	if st.Swaps == 0 {
		t.Fatal("stream triggered no swap repairs; the test exercises nothing")
	}
	if st.FullRebuilds != 0 {
		t.Fatalf("swap repair fell back to %d full rebuilds", st.FullRebuilds)
	}
	if d.RenumEpoch() != initRenum {
		t.Fatalf("renumbering epoch moved %d -> %d without a rebuild", initRenum, d.RenumEpoch())
	}
	if got, limit := d.EdgeImbalance(), d.EffectiveRebuildThreshold(); got > limit {
		t.Fatalf("post-stream Δ(n) = %d exceeds the effective threshold %d", got, limit)
	}
	// The permutation must still be a valid segment-contiguous ordering.
	r := d.Ordering()
	bounds := r.Boundaries()
	seen := make([]bool, d.NumVertices())
	for v := 0; v < d.NumVertices(); v++ {
		newID := int64(r.Perm[v])
		if seen[newID] {
			t.Fatalf("perm maps two vertices to %d", newID)
		}
		seen[newID] = true
		p := r.PartitionOf[v]
		if newID < bounds[p] || newID >= bounds[p+1] {
			t.Fatalf("vertex %d: new ID %d outside partition %d segment [%d,%d)",
				v, newID, p, bounds[p], bounds[p+1])
		}
	}
}

// uniformInDegreeGraph builds a graph where every vertex has in-degree
// exactly k (sources are the k cyclic successors).
func uniformInDegreeGraph(t *testing.T, n, k int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n*k)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			edges = append(edges, graph.Edge{
				Src: graph.VertexID((v + j) % n), Dst: graph.VertexID(v), Weight: 1,
			})
		}
	}
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAdaptiveThresholdUniformDegrees is the threshold-adaptivity
// regression test (ROADMAP): on uniform-degree streams the Δ(n) gate scales
// to twice the degree granularity, so maintenance picks the swap repair —
// which can meet the scaled gate — instead of falling back to a full
// rebuild on most batches (repairs cannot balance below whole-vertex degree
// granularity, so a fixed threshold of 2 would trip after every batch).
func TestAdaptiveThresholdUniformDegrees(t *testing.T) {
	const (
		n     = 1000
		k     = 5
		batch = 100
	)
	g := uniformInDegreeGraph(t, n, k)
	rng := rand.New(rand.NewSource(3))
	live := g.Edges()
	// Same-destination churn keeps every in-degree at exactly k: with
	// 1000 % 16 != 0 the vertex counts force Δ(n) = k permanently, and no
	// whole-vertex move can express less than k.
	var exact []graph.EdgeUpdate
	for i := 0; i < 2000; i++ {
		j := rng.Intn(len(live))
		e := live[j]
		ne := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: e.Dst, Weight: 1}
		exact = append(exact, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Del: true},
			graph.EdgeUpdate{Src: ne.Src, Dst: ne.Dst})
		live[j] = ne
	}
	// Random-destination churn drifts degrees to k±ε, the near-uniform
	// regime where swaps of granularity 1 exist but Δ(n) wanders well past
	// the scaled gate, so repairs actually run.
	var drift []graph.EdgeUpdate
	for i := 0; i < 4000; i++ {
		j := rng.Intn(len(live))
		e := live[j]
		ne := graph.Edge{Src: e.Src, Dst: graph.VertexID(rng.Intn(n)), Weight: 1}
		drift = append(drift, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Del: true},
			graph.EdgeUpdate{Src: ne.Src, Dst: ne.Dst})
		live[j] = ne
	}

	d, err := New(g, Config{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.EffectiveRebuildThreshold(); got < 2*k {
		t.Fatalf("uniform-degree effective threshold = %d, want >= %d", got, 2*k)
	}
	applyStream(t, d, exact, batch)
	applyStream(t, d, drift, batch)
	st := d.Stats()
	if st.FullRebuilds != 0 {
		t.Fatalf("adaptive gate still fell back to %d full rebuilds", st.FullRebuilds)
	}
	if st.Repairs == 0 || st.Swaps == 0 {
		t.Fatalf("stream triggered no swap repairs (repairs=%d swaps=%d); the gate never fired", st.Repairs, st.Swaps)
	}
	if got, limit := d.EdgeImbalance(), d.EffectiveRebuildThreshold(); got > limit {
		t.Fatalf("post-stream Δ(n) = %d exceeds the effective threshold %d", got, limit)
	}

	// The powerlaw recipe keeps granularity 1, so the adaptive gate must
	// leave its configured threshold alone.
	pg, _, err := gen.StreamFromRecipe("powerlaw", 0.05, 0, 42, gen.RecipeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := New(pg, Config{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := dp.EffectiveRebuildThreshold(); got != 2 {
		t.Fatalf("powerlaw effective threshold = %d, want the configured 2", got)
	}
}

// BenchmarkAdmitBatch times one AdmitBatch of 1024 updates from an
// ingest_heavy-shaped stream — powerlaw at scale 0.2, P=64, the stream's
// deletions included — through delta apply with deletion resolution, the
// balance accounting and the end-of-batch swap repair. Sixteen untimed
// batches fill the pending log first, and compaction is off, so every
// timed batch resolves its deletions over a log of at least 16 batches.
func BenchmarkAdmitBatch(b *testing.B) {
	const p, batch, warm = 64, 1024, 16
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.2, (warm+b.N)*batch, 1, gen.RecipeStreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(g, Config{Partitions: p, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < warm*batch; lo += batch {
		if _, err := d.ApplyBatch(updates[lo : lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		lo := (warm + i) * batch
		if _, err := d.AdmitBatch(0, updates[lo:lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
}
