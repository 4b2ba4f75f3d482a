package algorithms

import (
	"math"
	"slices"
	"testing"

	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/numa"
)

// seqBFSDepths is a sequential oracle for BFSDepths.
func seqBFSDepths(g *graph.Graph, root graph.VertexID) []int64 {
	depth := make([]int64, g.NumVertices())
	for i := range depth {
		depth[i] = RelaxInf
	}
	depth[root] = 0
	queue := []graph.VertexID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, t := range g.OutNeighbors(u) {
			if depth[t] > depth[u]+1 {
				depth[t] = depth[u] + 1
				queue = append(queue, t)
			}
		}
	}
	return depth
}

// seqMinLabelHops is a sequential oracle for CCSeeded with identity
// injections: per vertex the smallest reaching ID and its hop distance,
// iterated to fixpoint.
func seqMinLabelHops(g *graph.Graph) []int64 {
	n := g.NumVertices()
	state := make([]int64, n)
	for v := 0; v < n; v++ {
		state[v] = PackCC(uint32(v), 0)
	}
	for changed := true; changed; {
		changed = false
		for _, e := range g.Edges() {
			if nd := state[e.Src] + 1; nd < state[e.Dst] {
				state[e.Dst] = nd
				changed = true
			}
		}
	}
	return state
}

func TestBFSDepthsMatchesSequential(t *testing.T) {
	g := testGraph(t)
	want := seqBFSDepths(g, 0)
	for _, e := range engines(t, g) {
		got := BFSDepths(e, 0)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: depth[%d] = %d, want %d", e.Name(), v, got[v], want[v])
			}
		}
	}
}

// TestRelaxResumeAfterInsertions checks the resume contract on the
// insert-only case: seeding with the old graph's converged depths (valid
// upper bounds after insertions) and frontiering the inserted-edge sources
// must land on the new graph's exact fixpoint.
func TestRelaxResumeAfterInsertions(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	seedDepth := seqBFSDepths(g, 0)

	extra := []graph.Edge{
		{Src: 0, Dst: graph.VertexID(n - 1)},
		{Src: graph.VertexID(n - 1), Dst: graph.VertexID(n / 2)},
		{Src: graph.VertexID(n / 3), Dst: graph.VertexID(n - 2)},
	}
	g2, err := graph.FromEdges(n, append(g.Edges(), extra...), g.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	want := seqBFSDepths(g2, 0)
	for _, e := range engines(t, g2) {
		val := make([]int64, n)
		copy(val, seedDepth)
		srcs := []graph.VertexID{0, graph.VertexID(n / 3), graph.VertexID(n - 1)}
		got := RelaxResume(e, val, false, frontier.FromVertices(g2, srcs))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: resumed depth[%d] = %d, want %d", e.Name(), v, got[v], want[v])
			}
		}
	}
}

func TestPackCCOrderIsLexicographic(t *testing.T) {
	cases := []struct {
		l1, l2 uint32
		h1, h2 int32
	}{
		{0, 1, 100, 0},     // smaller label wins regardless of hops
		{3, 3, 2, 7},       // same label: fewer hops wins
		{7, 8, 0, 0},       // plain label order
		{5, 5, 0, 1 << 30}, // large hop counts stay in the low word
	}
	for _, c := range cases {
		a, b := PackCC(c.l1, c.h1), PackCC(c.l2, c.h2)
		if !(a < b) {
			t.Fatalf("PackCC(%d,%d) = %d not < PackCC(%d,%d) = %d", c.l1, c.h1, a, c.l2, c.h2, b)
		}
		if UnpackCCLabel(a) != c.l1 || UnpackCCLabel(b) != c.l2 {
			t.Fatalf("label round-trip failed for %+v", c)
		}
	}
}

func TestCCSeededMatchesSequential(t *testing.T) {
	g := testGraph(t)
	want := seqMinLabelHops(g)
	init := make([]uint32, g.NumVertices())
	for v := range init {
		init[v] = uint32(v)
	}
	for _, e := range engines(t, g) {
		got := CCSeeded(e, init)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: cc state[%d] = %x, want %x", e.Name(), v, got[v], want[v])
			}
		}
	}
}

// TestPageRankResumeMatchesCold perturbs a converged graph — insertions,
// deletions and vertex growth — and checks that resuming from the basis
// vector lands within tolerance of a cold equal-ε run on the new graph.
func TestPageRankResumeMatchesCold(t *testing.T) {
	const eps = 1e-9
	g := testGraph(t)
	n := g.NumVertices()
	var seed []float64
	for _, e := range engines(t, g) {
		seed = PageRankDelta(e, 400, eps)
		break
	}

	// New graph: two vertices admitted, a handful of edges inserted (some
	// from grown vertices), the first out-edge of a high-degree vertex
	// deleted, and one more source that gains an edge and loses another —
	// its out-degree is unchanged though its edge set is not.
	n2 := n + 2
	var hub graph.VertexID
	for v := 1; v < n; v++ {
		if g.OutDegree(graph.VertexID(v)) > g.OutDegree(hub) {
			hub = graph.VertexID(v)
		}
	}
	const swap = graph.VertexID(17)
	if swap == hub || g.OutDegree(swap) == 0 || g.HasEdge(swap, 3) {
		t.Fatalf("vertex %d cannot serve as the net-zero-degree source", swap)
	}
	first := func(s graph.VertexID) graph.Edge {
		return graph.Edge{Src: s, Dst: g.OutNeighbors(s)[0], Weight: g.OutWeights(s)[0]}
	}
	dels := []graph.Edge{first(hub), first(swap)}
	var kept []graph.Edge
	pending := slices.Clone(dels)
	for _, e := range g.Edges() {
		if i := slices.Index(pending, e); i >= 0 {
			pending = slices.Delete(pending, i, i+1)
			continue
		}
		kept = append(kept, e)
	}
	adds := []graph.Edge{
		{Src: graph.VertexID(n), Dst: 0, Weight: 1},
		{Src: 4, Dst: graph.VertexID(n + 1), Weight: 1},
		{Src: graph.VertexID(n + 1), Dst: 9, Weight: 1},
		{Src: 9, Dst: 2, Weight: 1},
		{Src: swap, Dst: 3, Weight: 1},
	}
	g2, err := graph.FromEdges(n2, append(kept, adds...), g.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	if g2.OutDegree(swap) != g.OutDegree(swap) {
		t.Fatalf("vertex %d changed degree %d -> %d", swap, g.OutDegree(swap), g2.OutDegree(swap))
	}

	for _, e := range engines(t, g2) {
		rank := make([]float64, n2)
		copy(rank, seed)
		got := PageRankResume(e, rank, graph.Delta{
			Adds: adds, Dels: dels,
			Grown: []graph.VertexID{graph.VertexID(n), graph.VertexID(n + 1)},
		}, n2, 400, eps)
		want := PageRankDelta(e, 400, eps)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
				t.Fatalf("%s: resumed rank[%d] = %.12g, want %.12g", e.Name(), v, got[v], want[v])
			}
		}
	}
}

// TestPageRankResumeDeterministic runs the same resume repeatedly on a
// single-threaded engine, where nothing but PageRankResume's own sweep
// order can vary, and requires identical result bits. Two hundred sources
// each gain an edge to one vertex with no in-edges, so that vertex's small
// rank absorbs the sum of two hundred retained-edge shifts, whose rounding
// depends on the order they are added in.
func TestPageRankResumeDeterministic(t *testing.T) {
	const eps = 1e-9
	g := testGraph(t)
	n := g.NumVertices()
	seed := PageRankDelta(ligra.New(g, smallTopology), 400, eps)
	tgt := graph.VertexID(0)
	for g.InDegree(tgt) > 0 {
		tgt++
	}
	var adds []graph.Edge
	for s := graph.VertexID(1); len(adds) < 200; s += 5 {
		if g.OutDegree(s) > 0 && s != tgt {
			adds = append(adds, graph.Edge{Src: s, Dst: tgt, Weight: 1})
		}
	}
	g2, err := graph.FromEdges(n, append(g.Edges(), adds...), g.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	e := ligra.New(g2, numa.Topology{Sockets: 1, ThreadsPerSocket: 1})
	var first []float64
	for run := 0; run < 8; run++ {
		got := PageRankResume(e, slices.Clone(seed), graph.Delta{Adds: adds}, n, 400, eps)
		if first == nil {
			first = got
			continue
		}
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(first[v]) {
				t.Fatalf("run %d: rank[%d] bits %x, run 0 %x", run, v, math.Float64bits(got[v]), math.Float64bits(first[v]))
			}
		}
	}
}

// resumeBench is the epoch step the resume benchmarks time: a 20k-vertex
// weighted power-law graph g, the graph g2 after 64 insertions and 64
// deletions spread over the vertex space, and the delta between them.
func resumeBench(b *testing.B) (g, g2 *graph.Graph, adds, dels []graph.Edge) {
	b.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		N: 20_000, S: 1.0, MaxDegree: 1000, ZeroInFrac: 0.14, Weighted: true,
		SourceSkew: 0.6, IDCorrelation: 0.5, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	edges := g.Edges()
	stride := len(edges) / 64
	var kept []graph.Edge
	for i, e := range edges {
		if i%stride == 0 && len(dels) < 64 {
			dels = append(dels, e)
		} else {
			kept = append(kept, e)
		}
	}
	for i := 0; i < 64; i++ {
		adds = append(adds, graph.Edge{
			Src: graph.VertexID(i * 7919 % n), Dst: graph.VertexID((i*104729 + 13) % n), Weight: int32(1 + i%100),
		})
	}
	g2, err = graph.FromEdges(n, append(kept, adds...), true)
	if err != nil {
		b.Fatal(err)
	}
	return g, g2, adds, dels
}

// BenchmarkRelaxResume times one refinement of converged shortest-path
// distances after the insertions: the seed is g's fixpoint, which stays a
// valid upper bound on g2's insert-only graph, and the frontier is the
// inserted edges' sources.
func BenchmarkRelaxResume(b *testing.B) {
	g, _, adds, _ := resumeBench(b)
	g2, err := graph.FromEdges(g.NumVertices(), append(g.Edges(), adds...), true)
	if err != nil {
		b.Fatal(err)
	}
	seed := make([]int64, g.NumVertices())
	for i := range seed {
		seed[i] = RelaxInf
	}
	seed[0] = 0
	RelaxResume(ligra.New(g, smallTopology), seed, true, frontier.FromVertex(g, 0))
	e := ligra.New(g2, smallTopology)
	var srcs []graph.VertexID
	for _, ed := range adds {
		srcs = append(srcs, ed.Src)
	}
	slices.Sort(srcs)
	srcs = slices.Compact(srcs)
	val := make([]int64, len(seed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(val, seed)
		RelaxResume(e, val, true, frontier.FromVertices(g2, srcs))
	}
}

// BenchmarkPageRankResume times one PageRank refinement across the
// insertions and deletions from g's converged vector.
func BenchmarkPageRankResume(b *testing.B) {
	const eps = 1e-9
	g, g2, adds, dels := resumeBench(b)
	seed := PageRankDelta(ligra.New(g, smallTopology), 400, eps)
	e := ligra.New(g2, smallTopology)
	rank := make([]float64, len(seed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rank, seed)
		PageRankResume(e, rank, graph.Delta{Adds: adds, Dels: dels}, g.NumVertices(), 400, eps)
	}
}
