package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 800, S: 1.0, MaxDegree: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, 2*(n-1))
	for i := 0; i < n-1; i++ {
		edges = append(edges,
			graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)},
			graph.Edge{Src: graph.VertexID(i + 1), Dst: graph.VertexID(i)})
	}
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIdentity(t *testing.T) {
	g := testGraph(t)
	perm := Identity(g)
	for v, p := range perm {
		if int(p) != v {
			t.Fatalf("Identity[%d] = %d", v, p)
		}
	}
}

func TestRandomIsPermutationAndSeeded(t *testing.T) {
	g := testGraph(t)
	a := Random(g, 1)
	b := Random(g, 1)
	c := Random(g, 2)
	if !IsPermutation(a) {
		t.Fatal("Random not a permutation")
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if !same {
		t.Error("same seed gave different permutations")
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds gave identical permutations")
	}
}

func TestDegreeSortOrdersByInDegree(t *testing.T) {
	g := testGraph(t)
	perm := DegreeSort(g)
	if !IsPermutation(perm) {
		t.Fatal("DegreeSort not a permutation")
	}
	// invert: newID -> old
	inv := make([]graph.VertexID, len(perm))
	for old, p := range perm {
		inv[p] = graph.VertexID(old)
	}
	for i := 1; i < len(inv); i++ {
		if g.InDegree(inv[i-1]) < g.InDegree(inv[i]) {
			t.Fatalf("degree order violated at new IDs %d,%d", i-1, i)
		}
	}
}

func TestRCMIsPermutation(t *testing.T) {
	g := testGraph(t)
	perm := RCM(g)
	if !IsPermutation(perm) {
		t.Fatal("RCM not a permutation")
	}
}

// bandwidth computes max |perm[u]-perm[v]| over edges.
func bandwidth(g *graph.Graph, perm []graph.VertexID) int64 {
	var bw int64
	for _, e := range g.Edges() {
		d := int64(perm[e.Src]) - int64(perm[e.Dst])
		if d < 0 {
			d = -d
		}
		if d > bw {
			bw = d
		}
	}
	return bw
}

func TestRCMReducesBandwidthOnShuffledPath(t *testing.T) {
	// A path has optimal bandwidth 1. Shuffle it, then RCM must restore a
	// near-optimal bandwidth, far below the shuffled one.
	g := pathGraph(t, 300)
	shuffled, err := g.Relabel(g.NumVertices(), Random(g, 7))
	if err != nil {
		t.Fatal(err)
	}
	before := bandwidth(shuffled, Identity(shuffled))
	perm := RCM(shuffled)
	after := bandwidth(shuffled, perm)
	if after > 3 {
		t.Errorf("RCM bandwidth on path = %d, want <= 3", after)
	}
	if after >= before {
		t.Errorf("RCM did not reduce bandwidth: %d -> %d", before, after)
	}
}

func TestRCMHandlesDisconnected(t *testing.T) {
	// two disjoint triangles + isolated vertices
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
	}
	g, err := graph.FromEdges(8, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if !IsPermutation(RCM(g)) {
		t.Fatal("RCM on disconnected graph not a permutation")
	}
}

func TestGorderIsPermutation(t *testing.T) {
	g := testGraph(t)
	perm := Gorder(g, GorderConfig{})
	if !IsPermutation(perm) {
		t.Fatal("Gorder not a permutation")
	}
}

func TestGorderImprovesWindowLocality(t *testing.T) {
	// Gorder maximizes co-access within a sliding window of size w: count
	// the edges whose endpoints land within w of each other. On a graph
	// with real structure (a road grid) Gorder must beat a random order.
	g, err := gen.RoadNetwork(20, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	const w = 5
	windowHits := func(perm []graph.VertexID) int {
		hits := 0
		for _, e := range g.Edges() {
			d := int64(perm[e.Src]) - int64(perm[e.Dst])
			if d < 0 {
				d = -d
			}
			if d <= w {
				hits++
			}
		}
		return hits
	}
	gorder := windowHits(Gorder(g, GorderConfig{Window: w}))
	random := windowHits(Random(g, 3))
	if gorder <= random {
		t.Errorf("Gorder window hits %d not better than random %d", gorder, random)
	}
}

func TestGorderEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if perm := Gorder(g, GorderConfig{}); len(perm) != 0 {
		t.Fatalf("Gorder on empty graph returned %v", perm)
	}
}

func TestGorderDisconnected(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}
	g, err := graph.FromEdges(6, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if !IsPermutation(Gorder(g, GorderConfig{Window: 2})) {
		t.Fatal("Gorder on disconnected graph not a permutation")
	}
}

func TestCompose(t *testing.T) {
	first := []graph.VertexID{1, 2, 0}
	second := []graph.VertexID{2, 0, 1}
	got, err := Compose(first, second)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.VertexID{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Compose = %v, want %v", got, want)
		}
	}
	if _, err := Compose(first, second[:2]); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestIsPermutation(t *testing.T) {
	if !IsPermutation([]graph.VertexID{2, 0, 1}) {
		t.Error("valid permutation rejected")
	}
	if IsPermutation([]graph.VertexID{0, 0, 1}) {
		t.Error("duplicate accepted")
	}
	if IsPermutation([]graph.VertexID{0, 1, 7}) {
		t.Error("out-of-range accepted")
	}
}

// Property: every ordering algorithm emits a valid permutation on random
// graphs, and relabelling preserves isomorphism.
func TestAllOrderingsValidQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80) + 2
		g, err := gen.ErdosRenyi(n, int64(rng.Intn(240)), seed)
		if err != nil {
			return false
		}
		perms := [][]graph.VertexID{
			Identity(g),
			Random(g, seed),
			DegreeSort(g),
			RCM(g),
			Gorder(g, GorderConfig{Window: 3}),
		}
		for _, p := range perms {
			if !IsPermutation(p) {
				return false
			}
			h, err := g.Relabel(g.NumVertices(), p)
			if err != nil {
				return false
			}
			if !graph.IsIsomorphicUnder(g, h, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
