package algorithms

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphgrind"
	"repro/internal/layout"
	"repro/internal/ligra"
	"repro/internal/numa"
	"repro/internal/polymer"
)

// smallTopology keeps engine tests cheap.
var smallTopology = numa.Topology{Sockets: 2, ThreadsPerSocket: 2}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		N: 1200, S: 1.0, MaxDegree: 80, ZeroInFrac: 0.1, Weighted: true, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// engines builds the three framework models over g.
func engines(t *testing.T, g *graph.Graph) []engine.Engine {
	t.Helper()
	l := ligra.New(g, smallTopology)
	p, err := polymer.New(g, polymer.Config{Topology: smallTopology})
	if err != nil {
		t.Fatal(err)
	}
	gg, err := graphgrind.New(g, graphgrind.Config{
		Topology: smallTopology, Partitions: 16, Order: layout.CSROrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []engine.Engine{l, p, gg}
}

func almostEqual(a, b, tol float64) bool {
	if math.Abs(a-b) <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*m
}

func TestPageRankMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := RefPageRank(g, 5)
	for _, e := range engines(t, g) {
		got := PageRank(e, 5)
		for v := range want {
			if !almostEqual(got[v], want[v], 1e-9) {
				t.Fatalf("%s: PR[%d] = %g, want %g", e.Name(), v, got[v], want[v])
			}
		}
	}
}

func TestPageRankSumsToOneIsh(t *testing.T) {
	// On a graph without dangling vertices, total rank is conserved at 1.
	g, err := gen.RoadNetwork(20, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines(t, g) {
		got := PageRank(e, 10)
		var sum float64
		for _, r := range got {
			sum += r
		}
		if !almostEqual(sum, 1.0, 1e-6) {
			t.Errorf("%s: rank sum = %g, want 1", e.Name(), sum)
		}
	}
}

func TestBFSMatchesReferenceDepths(t *testing.T) {
	g := testGraph(t)
	root := graph.VertexID(3)
	want := RefBFSDepths(g, root)
	for _, e := range engines(t, g) {
		parent := BFS(e, root)
		got := Depths(parent, root)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: depth[%d] = %d, want %d", e.Name(), v, got[v], want[v])
			}
		}
		// parent edges must exist in the graph
		for v, p := range parent {
			if p >= 0 && graph.VertexID(v) != root {
				if !g.HasEdge(graph.VertexID(p), graph.VertexID(v)) {
					t.Fatalf("%s: parent edge (%d,%d) not in graph", e.Name(), p, v)
				}
			}
		}
	}
}

func TestCCMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := RefCC(g)
	for _, e := range engines(t, g) {
		got := CC(e)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: CC[%d] = %d, want %d", e.Name(), v, got[v], want[v])
			}
		}
		// fixpoint property: label[d] <= label[s] for every edge
		for _, edge := range g.Edges() {
			if got[edge.Dst] > got[edge.Src] {
				t.Fatalf("%s: label fixpoint violated on edge (%d,%d)", e.Name(), edge.Src, edge.Dst)
			}
		}
	}
}

func TestCCOnUndirectedIsComponents(t *testing.T) {
	// two disjoint cliques joined internally: labels must be constant within
	// a component and differ across them.
	var edges []graph.Edge
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				edges = append(edges,
					graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(j)},
					graph.Edge{Src: graph.VertexID(i + 5), Dst: graph.VertexID(j + 5)})
			}
		}
	}
	g, err := graph.FromEdges(10, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines(t, g) {
		got := CC(e)
		for v := 1; v < 5; v++ {
			if got[v] != got[0] {
				t.Fatalf("%s: clique 1 split: %v", e.Name(), got)
			}
			if got[v+5] != got[5] {
				t.Fatalf("%s: clique 2 split: %v", e.Name(), got)
			}
		}
		if got[0] == got[5] {
			t.Fatalf("%s: cliques merged: %v", e.Name(), got)
		}
	}
}

func TestSPMVMatchesReference(t *testing.T) {
	g := testGraph(t)
	x := make([]float64, g.NumVertices())
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	want := RefSPMV(g, x)
	for _, e := range engines(t, g) {
		got := SPMV(e, x)
		for v := range want {
			if !almostEqual(got[v], want[v], 1e-9) {
				t.Fatalf("%s: SPMV[%d] = %g, want %g", e.Name(), v, got[v], want[v])
			}
		}
	}
}

func TestBellmanFordMatchesReference(t *testing.T) {
	g := testGraph(t)
	root := graph.VertexID(3)
	want := RefSSSP(g, root)
	for _, e := range engines(t, g) {
		got := BellmanFord(e, root)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", e.Name(), v, got[v], want[v])
			}
		}
	}
}

func TestBCMatchesReference(t *testing.T) {
	g := testGraph(t)
	gt := g.Transpose()
	root := graph.VertexID(3)
	want := RefBC(g, root)
	type pair struct{ fwd, bwd engine.Engine }
	lf := ligra.New(g, smallTopology)
	lb := ligra.New(gt, smallTopology)
	pf, err := polymer.New(g, polymer.Config{Topology: smallTopology})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := polymer.New(gt, polymer.Config{Topology: smallTopology})
	if err != nil {
		t.Fatal(err)
	}
	gf, err := graphgrind.New(g, graphgrind.Config{Topology: smallTopology, Partitions: 16, Order: layout.CSROrder})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := graphgrind.New(gt, graphgrind.Config{Topology: smallTopology, Partitions: 16, Order: layout.CSROrder})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range []pair{{lf, lb}, {pf, pb}, {gf, gb}} {
		got := BC(pr.fwd, pr.bwd, root)
		for v := range want {
			if !almostEqual(got[v], want[v], 1e-6) {
				t.Fatalf("%s: BC[%d] = %g, want %g", pr.fwd.Name(), v, got[v], want[v])
			}
		}
	}
}

func TestPageRankDeltaApproximatesPageRank(t *testing.T) {
	g := testGraph(t)
	exact := RefPageRank(g, 30)
	for _, e := range engines(t, g) {
		approx := PageRankDelta(e, 30, 1e-7)
		var num, den float64
		for v := range exact {
			num += math.Abs(approx[v] - exact[v])
			den += exact[v]
		}
		if rel := num / den; rel > 0.02 {
			t.Errorf("%s: PRD total relative error %.4f > 2%%", e.Name(), rel)
		}
	}
}

func TestPageRankDeltaFrontierShrinks(t *testing.T) {
	// The paper's motivating observation: in PRD, many low-degree vertices
	// converge early, so the active set shrinks over iterations.
	g := testGraph(t)
	e := ligra.New(g, smallTopology)
	PageRankDelta(e, 10, 1e-3)
	m := e.Metrics()
	var firstActive, lastActive int64 = -1, -1
	for _, s := range m.Steps {
		if s.Kind != engine.StepVertexMap {
			if firstActive < 0 {
				firstActive = s.ActiveVertices
			}
			lastActive = s.ActiveVertices
		}
	}
	if lastActive >= firstActive {
		t.Errorf("PRD frontier did not shrink: first %d, last %d", firstActive, lastActive)
	}
}

func TestBPIsDeterministicAcrossEngines(t *testing.T) {
	g := testGraph(t)
	prior := make([]float64, g.NumVertices())
	for i := range prior {
		prior[i] = math.Sin(float64(i)) * 0.1
	}
	var ref []float64
	for _, e := range engines(t, g) {
		got := BP(e, 5, prior)
		if ref == nil {
			ref = got
			// sanity: beliefs bounded in (-1, 1)
			for v, b := range got {
				if b <= -1 || b >= 1 || math.IsNaN(b) {
					t.Fatalf("belief[%d] = %g out of range", v, b)
				}
			}
			continue
		}
		for v := range ref {
			if !almostEqual(got[v], ref[v], 1e-9) {
				t.Fatalf("%s: BP[%d] = %g, want %g", e.Name(), v, got[v], ref[v])
			}
		}
	}
}

func TestBFSOnDisconnectedRemainderUnreached(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	g, err := graph.FromEdges(6, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines(t, g) {
		parent := BFS(e, 0)
		if parent[3] != -1 || parent[4] != -1 || parent[5] != -1 {
			t.Fatalf("%s: unreachable vertices got parents: %v", e.Name(), parent)
		}
		if parent[1] != 0 || parent[2] != 1 {
			t.Fatalf("%s: wrong parents: %v", e.Name(), parent)
		}
	}
}

// Results must be invariant under VEBO reordering: computing on the
// reordered graph and mapping back through the permutation gives the same
// answer (exactly, for integer algorithms).
func TestReorderInvariance(t *testing.T) {
	g := testGraph(t)
	root := graph.VertexID(3)

	// reorder with VEBO via the core package
	r, rg := reorderForTest(t, g, 8)

	e := ligra.New(g, smallTopology)
	er := ligra.New(rg, smallTopology)

	// BFS depths map through the permutation
	d1 := Depths(BFS(e, root), root)
	d2 := Depths(BFS(er, r[root]), r[root])
	for v := range d1 {
		if d1[v] != d2[r[v]] {
			t.Fatalf("BFS depth not reorder-invariant at %d: %d vs %d", v, d1[v], d2[r[v]])
		}
	}

	// Bellman-Ford distances map through the permutation
	s1 := BellmanFord(e, root)
	s2 := BellmanFord(er, r[root])
	for v := range s1 {
		if s1[v] != s2[r[v]] {
			t.Fatalf("BF dist not reorder-invariant at %d", v)
		}
	}

	// PageRank maps through the permutation (tolerance: FP order)
	p1 := PageRank(e, 5)
	p2 := PageRank(er, 5)
	for v := range p1 {
		if !almostEqual(p1[v], p2[r[v]], 1e-9) {
			t.Fatalf("PR not reorder-invariant at %d: %g vs %g", v, p1[v], p2[r[v]])
		}
	}
}
