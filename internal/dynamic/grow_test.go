package dynamic

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestGrowAdmitsZeroDegreeLeastLoaded checks the admission rule: every
// admitted vertex is zero-degree, lands on a partition minimizing the vertex
// count, and the per-partition counters stay consistent.
func TestGrowAdmitsZeroDegreeLeastLoaded(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 1200, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	preVerts := d.VertexCounts()
	first := d.Grow(5)
	if first != 200 {
		t.Fatalf("first admitted ID %d, want 200", first)
	}
	if d.NumVertices() != 205 {
		t.Fatalf("n=%d, want 205", d.NumVertices())
	}
	var total int64
	for _, c := range d.VertexCounts() {
		total += c
	}
	if total != 205 {
		t.Fatalf("vertex counts sum %d, want 205", total)
	}
	// Least-loaded admission can raise δ(n) by at most one step (5 < P
	// partitions each gained at most one vertex).
	if before := core.Spread(preVerts); d.VertexImbalance() > before+1 {
		t.Fatalf("admission worsened δ(n): %d -> %d", before, d.VertexImbalance())
	}
	for v := graph.VertexID(200); v < 205; v++ {
		if d.InDegree(v) != 0 {
			t.Fatalf("admitted vertex %d has degree %d", v, d.InDegree(v))
		}
	}
	if st := d.Stats(); st.Admitted != 5 {
		t.Fatalf("Admitted=%d, want 5", st.Admitted)
	}
}

// TestGrowOrderingSegmentTails checks the segment-growth policy: after
// admissions the cached ordering is still a valid segment-contiguous
// injection into the slot space, every partition's IDs stay inside its
// capacity range, and pinned (pre-growth) orderings are untouched.
func TestGrowOrderingSegmentTails(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 2500, 11)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Ordering()
	beforePerm := append([]graph.VertexID(nil), before.Perm...)
	d.Grow(9)
	after := d.Ordering()
	if len(after.Perm) != 309 {
		t.Fatalf("ordering length %d, want 309", len(after.Perm))
	}
	// Valid injection into the slot space, segment-contiguous by partition.
	if after.Slots() < 309 {
		t.Fatalf("slot space %d smaller than vertex count 309", after.Slots())
	}
	seen := make([]bool, after.Slots())
	bounds := after.Boundaries()
	for v, nw := range after.Perm {
		if seen[nw] {
			t.Fatalf("duplicate new ID %d", nw)
		}
		seen[nw] = true
		p := after.PartitionOf[v]
		if int64(nw) < bounds[p] || int64(nw) >= bounds[p+1] {
			t.Fatalf("vertex %d new ID %d outside partition %d segment [%d,%d)", v, nw, p, bounds[p], bounds[p+1])
		}
	}
	// The pinned pre-growth ordering must not have been mutated.
	for v, nw := range beforePerm {
		if before.Perm[v] != nw {
			t.Fatalf("pre-growth ordering mutated at %d", v)
		}
	}
	// The old→new position map must be the per-partition shift: positions
	// within one partition keep their relative order.
	for v := 0; v < 300; v++ {
		for u := v + 1; u < 300; u++ {
			if before.PartitionOf[v] == before.PartitionOf[u] &&
				after.PartitionOf[v] == after.PartitionOf[u] &&
				(beforePerm[v] < beforePerm[u]) != (after.Perm[v] < after.Perm[u]) {
				t.Fatalf("growth reordered %d and %d within their segment", v, u)
			}
		}
	}
}

// TestAutoGrowApplyBatch checks the dense-ID auto-admission path: inserts
// mentioning out-of-range endpoints grow the graph, deletions never do, and
// the snapshot matches a scratch rebuild over the grown space.
func TestAutoGrowApplyBatch(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 8, AutoGrow: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.ApplyBatch([]graph.EdgeUpdate{
		{Src: 100, Dst: 3},   // one new vertex as source
		{Src: 4, Dst: 103},   // three more, 101..103
		{Src: 103, Dst: 100}, // edge between admitted vertices
		{Src: 100, Dst: 3, Del: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 4 || d.NumVertices() != 104 {
		t.Fatalf("admitted %d (n=%d), want 4 (104)", res.Admitted, d.NumVertices())
	}
	want, err := graph.FromEdges(104, append(g.Edges(),
		graph.Edge{Src: 4, Dst: 103, Weight: 1},
		graph.Edge{Src: 103, Dst: 100, Weight: 1}), false)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(d.Snapshot(), want) {
		t.Fatal("snapshot after auto-growth differs from scratch rebuild")
	}
	// Deleting through an out-of-range endpoint must not grow.
	if _, err := d.ApplyBatch([]graph.EdgeUpdate{{Src: 500, Dst: 0, Del: true}}); err == nil {
		t.Fatal("expected error for out-of-range deletion")
	}
	if d.NumVertices() != 104 {
		t.Fatalf("deletion grew the graph to %d", d.NumVertices())
	}
	// Without AutoGrow, out-of-range inserts still fail.
	d2, err := New(g, Config{Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.ApplyBatch([]graph.EdgeUpdate{{Src: 100, Dst: 0}}); err == nil {
		t.Fatal("expected error without AutoGrow")
	}
}

// TestGrowStreamSnapshotMatchesReference replays a growth stream (vertex
// arrivals interleaved with churn, including deletes of post-growth edges
// after compaction) and checks the final snapshot, live-edge count and
// balance counters against a scratch reference.
func TestGrowStreamSnapshotMatchesReference(t *testing.T) {
	g, err := gen.ErdosRenyi(250, 1500, 9)
	if err != nil {
		t.Fatal(err)
	}
	updates, err := gen.EdgeStream(g, gen.StreamConfig{
		Ops: 4000, DeleteFrac: 0.35, PreferentialFrac: 0.5, GrowFrac: 0.05, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 16, AutoGrow: true, CompactEvery: 700})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates, 128)
	if d.Stats().Admitted == 0 {
		t.Fatal("stream admitted no vertices; growth not exercised")
	}
	want, err := graph.FromEdges(d.NumVertices(), referenceSurvivors(g, updates), false)
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if !graph.Equal(snap, want) {
		t.Fatal("snapshot after growth stream differs from reference")
	}
	if d.NumEdges() != want.NumEdges() {
		t.Fatalf("live edges %d, want %d", d.NumEdges(), want.NumEdges())
	}
	// Tracked counters must match a recount over the final placement.
	edges := make([]int64, d.Partitions())
	verts := make([]int64, d.Partitions())
	for v := 0; v < d.NumVertices(); v++ {
		p := d.PartitionOf(graph.VertexID(v))
		verts[p]++
		edges[p] += snap.InDegree(graph.VertexID(v))
	}
	for p, c := range d.EdgeCounts() {
		if c != edges[p] {
			t.Fatalf("partition %d tracked %d edges, recount %d", p, c, edges[p])
		}
	}
	for p, c := range d.VertexCounts() {
		if c != verts[p] {
			t.Fatalf("partition %d tracked %d vertices, recount %d", p, c, verts[p])
		}
	}
}

// hostileDegreeGraph builds a coarse-degree graph: with P=3, in-degrees
// come in one coarse class D (eight vertices — Algorithm 2 balances them
// 3/3/2) and one mid class D/2 (two vertices, both placed on the 2-count
// partition, equalizing every load at exactly 3D), plus zero-degree sources.
// The 10th-percentile in-degree is D/2, so the adaptive Δ(n) gate is D, and
// every pair transfer between coarse-class partitions is a multiple of D.
func hostileDegreeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const D = 10
	var edges []graph.Edge
	rng := rand.New(rand.NewSource(31))
	addIn := func(dst graph.VertexID, k int) {
		for i := 0; i < k; i++ {
			edges = append(edges, graph.Edge{Src: 10 + graph.VertexID(rng.Intn(30)), Dst: dst, Weight: 1})
		}
	}
	for v := graph.VertexID(0); v < 8; v++ {
		addIn(v, D)
	}
	addIn(8, D/2)
	addIn(9, D/2)
	g, err := graph.FromEdges(40, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
