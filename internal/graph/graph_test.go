package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// small fixture: the 6-vertex example graph of the paper's Figure 3.
// In-degrees: v0:1 v1:2 v2:2 v3:2 v4:4 v5:3 (total 14 edges).
func fig3Graph(t *testing.T) *Graph {
	t.Helper()
	edges := []Edge{
		{Src: 1, Dst: 0}, // v0 in-degree 1
		{Src: 0, Dst: 1}, {Src: 2, Dst: 1},
		{Src: 1, Dst: 2}, {Src: 3, Dst: 2},
		{Src: 4, Dst: 3}, {Src: 5, Dst: 3},
		{Src: 0, Dst: 4}, {Src: 1, Dst: 4}, {Src: 3, Dst: 4}, {Src: 5, Dst: 4},
		{Src: 0, Dst: 5}, {Src: 2, Dst: 5}, {Src: 4, Dst: 5},
	}
	g, err := FromEdges(6, edges, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestFromEdgesBasics(t *testing.T) {
	g := fig3Graph(t)
	if g.NumVertices() != 6 {
		t.Fatalf("vertices = %d, want 6", g.NumVertices())
	}
	if g.NumEdges() != 14 {
		t.Fatalf("edges = %d, want 14", g.NumEdges())
	}
	wantIn := []int64{1, 2, 2, 2, 4, 3}
	for v, want := range wantIn {
		if got := g.InDegree(VertexID(v)); got != want {
			t.Errorf("InDegree(%d) = %d, want %d", v, got, want)
		}
	}
	var sumOut int64
	for v := 0; v < 6; v++ {
		sumOut += g.OutDegree(VertexID(v))
	}
	if sumOut != 14 {
		t.Errorf("sum of out-degrees = %d, want 14", sumOut)
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	_, err := FromEdges(2, []Edge{{Src: 0, Dst: 5}}, false)
	if err == nil {
		t.Fatal("expected error for out-of-range destination")
	}
	_, err = FromEdges(-1, nil, false)
	if err == nil {
		t.Fatal("expected error for negative n")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.CountZeroInDegree() != 0 {
		t.Fatal("zero-in-degree count of empty graph should be 0")
	}
}

func TestIsolatedVertices(t *testing.T) {
	g, err := FromEdges(5, []Edge{{Src: 0, Dst: 1}}, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if got := g.CountZeroInDegree(); got != 4 {
		t.Errorf("zero in-degree = %d, want 4", got)
	}
	if got := g.CountZeroOutDegree(); got != 4 {
		t.Errorf("zero out-degree = %d, want 4", got)
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := fig3Graph(t)
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.OutNeighbors(VertexID(v))
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] > nbrs[i] {
				t.Fatalf("out-neighbours of %d not sorted: %v", v, nbrs)
			}
		}
		in := g.InNeighbors(VertexID(v))
		for i := 1; i < len(in); i++ {
			if in[i-1] > in[i] {
				t.Fatalf("in-neighbours of %d not sorted: %v", v, in)
			}
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := fig3Graph(t)
	if !g.HasEdge(0, 4) {
		t.Error("expected edge (0,4)")
	}
	if g.HasEdge(4, 0) {
		t.Error("unexpected edge (4,0)")
	}
}

func TestTranspose(t *testing.T) {
	g := fig3Graph(t)
	tr := g.Transpose()
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edges = %d, want %d", tr.NumEdges(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(VertexID(v)) != tr.OutDegree(VertexID(v)) {
			t.Errorf("vertex %d: in-degree %d != transpose out-degree %d",
				v, g.InDegree(VertexID(v)), tr.OutDegree(VertexID(v)))
		}
	}
	// transposing twice restores the original structure
	if !Equal(g, tr.Transpose()) {
		t.Error("double transpose differs from original")
	}
}

func TestRelabelIdentity(t *testing.T) {
	g := fig3Graph(t)
	perm := make([]VertexID, g.NumVertices())
	for i := range perm {
		perm[i] = VertexID(i)
	}
	h, err := g.Relabel(g.NumVertices(), perm)
	if err != nil {
		t.Fatalf("Relabel: %v", err)
	}
	if !Equal(g, h) {
		t.Error("identity relabel changed the graph")
	}
}

func TestRelabelIsomorphism(t *testing.T) {
	g := fig3Graph(t)
	perm := []VertexID{3, 0, 5, 1, 2, 4}
	h, err := g.Relabel(g.NumVertices(), perm)
	if err != nil {
		t.Fatalf("Relabel: %v", err)
	}
	if !IsIsomorphicUnder(g, h, perm) {
		t.Error("relabelled graph is not isomorphic under perm")
	}
	// degree multiset must be preserved
	gh := g.DegreeHistogramIn()
	hh := h.DegreeHistogramIn()
	if len(gh) != len(hh) {
		t.Fatalf("degree histogram lengths differ: %d vs %d", len(gh), len(hh))
	}
	for d := range gh {
		if gh[d] != hh[d] {
			t.Errorf("count of in-degree %d: %d vs %d", d, gh[d], hh[d])
		}
	}
}

// TestRelabelRejectsBadPerm checks Relabel's perm checks, which Patch runs
// across a lineage break: a repeated or out-of-range image, a perm of the
// wrong length and a dropped non-empty row are errors, and an injection
// into a larger space that drops an empty row is not.
func TestRelabelRejectsBadPerm(t *testing.T) {
	g := fig3Graph(t)
	if _, err := g.Relabel(g.NumVertices(), []VertexID{0, 0, 1, 2, 3, 4}); err == nil {
		t.Error("expected error for duplicate mapping")
	}
	if _, err := g.Relabel(g.NumVertices(), []VertexID{0, 1, 2}); err == nil {
		t.Error("expected error for short permutation")
	}
	if _, err := g.Relabel(g.NumVertices(), []VertexID{0, 1, 2, 3, 4, 99}); err == nil {
		t.Error("expected error for out-of-range mapping")
	}
	// Row 2 is empty.
	sg, err := FromEdges(3, []Edge{{0, 1, 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][]VertexID{{0, 1, 1}, {0, 1, 4}, {0, NoVertex, 3}} {
		if _, err := sg.Relabel(4, perm); err == nil {
			t.Errorf("perm %v into 4 accepted", perm)
		}
	}
	for _, perm := range [][]VertexID{{0, 1, 3}, {1, 0, NoVertex}} {
		if _, err := sg.Relabel(4, perm); err != nil {
			t.Errorf("perm %v into 4 rejected: %v", perm, err)
		}
	}
}

func TestCharacterize(t *testing.T) {
	g := fig3Graph(t)
	s := g.Characterize()
	if s.Vertices != 6 || s.Edges != 14 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxInDegree != 4 {
		t.Errorf("MaxInDegree = %d, want 4", s.MaxInDegree)
	}
	if s.ZeroInDegree != 0 {
		t.Errorf("ZeroInDegree = %d, want 0", s.ZeroInDegree)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := fig3Graph(t)
	edges := g.Edges()
	h, err := FromEdges(g.NumVertices(), edges, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if !Equal(g, h) {
		t.Error("rebuilding from Edges() changed the graph")
	}
}

func TestAdjacencyIORoundTrip(t *testing.T) {
	g := fig3Graph(t)
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatalf("WriteAdjacency: %v", err)
	}
	h, err := ReadAdjacency(&buf)
	if err != nil {
		t.Fatalf("ReadAdjacency: %v", err)
	}
	if !Equal(g, h) {
		t.Error("adjacency round-trip changed the graph")
	}
}

func TestWeightedAdjacencyIORoundTrip(t *testing.T) {
	edges := []Edge{{0, 1, 5}, {1, 2, 7}, {2, 0, 9}, {0, 2, 1}}
	g, err := FromEdges(3, edges, true)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatalf("WriteAdjacency: %v", err)
	}
	h, err := ReadAdjacency(&buf)
	if err != nil {
		t.Fatalf("ReadAdjacency: %v", err)
	}
	if !h.Weighted() {
		t.Fatal("weighted flag lost")
	}
	if !Equal(g, h) {
		t.Error("weighted adjacency round-trip changed the graph")
	}
}

// TestWriteFormatsFixed pins the serialized bytes of one unweighted and
// one weighted graph, so the weight storage behind them can change without
// changing the files.
func TestWriteFormatsFixed(t *testing.T) {
	wg, err := FromEdges(4, []Edge{{2, 1, 7}, {0, 3, -2}, {2, 1, 3}, {3, 0, 0}, {0, 1, 5}}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		adj  string
	}{
		{"unweighted", fig3Graph(t),
			"AdjacencyGraph\n6\n14\n0\n3\n6\n8\n10\n12\n1\n4\n5\n0\n2\n4\n1\n5\n2\n4\n3\n5\n3\n4\n"},
		{"weighted", wg,
			"WeightedAdjacencyGraph\n4\n5\n0\n2\n2\n4\n1\n3\n1\n1\n0\n5\n-2\n3\n7\n1\n"},
	} {
		var adj bytes.Buffer
		if err := WriteAdjacency(&adj, tc.g); err != nil {
			t.Fatal(err)
		}
		if adj.String() != tc.adj {
			t.Errorf("%s: WriteAdjacency = %q, want %q", tc.name, adj.String(), tc.adj)
		}
	}
}

// TestUnweightedStorage pins the storage contract of unweighted graphs from
// every constructor: no weight arrays, and weight accessors that read as
// all ones of row length.
func TestUnweightedStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40
	g, err := FromEdges(n, randomEdges(rng, n, 300), false)
	if err != nil {
		t.Fatal(err)
	}
	perm := randomPerm(rng, n)
	relabeled, err := g.Relabel(n, perm)
	if err != nil {
		t.Fatal(err)
	}
	into := make([]VertexID, n)
	for v := range into {
		into[v] = VertexID(2 * v)
	}
	grown, _, err := g.Patch(2*n, permDelta(n, nil, nil, into, false))
	if err != nil {
		t.Fatal(err)
	}
	// A patch with growth and swaps: 0<->1 and 5<->9 exchange IDs, two new
	// vertices get edges, and one edge of each swapped row goes.
	swaps := make([]VertexID, n)
	for v := range swaps {
		swaps[v] = VertexID(v)
	}
	swaps[0], swaps[1], swaps[5], swaps[9] = 1, 0, 9, 5
	var dels []Edge
	for _, v := range []VertexID{0, 5} {
		if nb := g.OutNeighbors(v); len(nb) > 0 {
			dels = append(dels, Edge{Src: swaps[v], Dst: swaps[nb[0]], Weight: 1})
		}
	}
	adds := []Edge{{n, 3, 1}, {2, n + 1, 1}, {n + 1, n, 1}, {1, 1, 1}}
	patched, _, err := g.Patch(n+2, permDelta(n, adds, dels, swaps, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"FromEdges", g}, {"Relabel", relabeled}, {"Patch into 2n", grown},
		{"Patch", patched}, {"Transpose", patched.Transpose()},
	} {
		h := tc.g
		if h.out.ws != nil || h.in.ws != nil {
			t.Errorf("%s: unweighted graph stores weight arrays", tc.name)
		}
		for v := VertexID(0); int(v) < h.NumVertices(); v++ {
			ow, iw := h.OutWeights(v), h.InWeights(v)
			if int64(len(ow)) != h.OutDegree(v) || int64(len(iw)) != h.InDegree(v) {
				t.Fatalf("%s: vertex %d: weight rows of length %d/%d, degrees %d/%d",
					tc.name, v, len(ow), len(iw), h.OutDegree(v), h.InDegree(v))
			}
			for _, w := range append(ow, iw...) {
				if w != 1 {
					t.Fatalf("%s: vertex %d: weight %d, want 1", tc.name, v, w)
				}
			}
		}
		for _, e := range h.Edges() {
			if e.Weight != 1 {
				t.Fatalf("%s: edge %+v: weight is not 1", tc.name, e)
			}
		}
	}
}

func TestReadAdjacencyRejectsGarbage(t *testing.T) {
	cases := []string{
		"NotAHeader\n1\n0\n0\n",
		"AdjacencyGraph\n2\n1\n0\n0\n7\n", // target out of range
		"AdjacencyGraph\n2\n1\n5\n0\n0\n", // non-monotonic offsets
		"AdjacencyGraph\n2\n",             // truncated
		// Header sizes far beyond the input must fail at EOF, not allocate.
		"AdjacencyGraph\n4294967297\n1\n",                  // n beyond VertexID
		"AdjacencyGraph\n4294967296\n0\n",                  // n at the limit, no offsets
		"AdjacencyGraph\n1\n100000000000\n0\n",             // m with no targets
		"WeightedAdjacencyGraph\n1\n1\n0\n0\n9999999999\n", // weight beyond int32
		"AdjacencyGraph\n2\n2\n1\n2\n0\n1\n",               // offsets not starting at 0
	}
	for i, c := range cases {
		if _, err := ReadAdjacency(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func randomEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			Src:    VertexID(rng.Intn(n)),
			Dst:    VertexID(rng.Intn(n)),
			Weight: int32(rng.Intn(100) + 1),
		}
	}
	return edges
}

func randomPerm(rng *rand.Rand, n int) []VertexID {
	perm := make([]VertexID, n)
	for i, p := range rng.Perm(n) {
		perm[i] = VertexID(p)
	}
	return perm
}

// Property: relabelling preserves isomorphism and degree multisets for random
// graphs and random permutations.
func TestRelabelPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 2
		m := rng.Intn(300)
		g, err := FromEdges(n, randomEdges(rng, n, m), true)
		if err != nil {
			return false
		}
		perm := randomPerm(rng, n)
		h, err := g.Relabel(g.NumVertices(), perm)
		if err != nil {
			return false
		}
		return IsIsomorphicUnder(g, h, perm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adjacency-format round trip is identity for random graphs.
func TestAdjacencyRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		m := rng.Intn(200)
		g, err := FromEdges(n, randomEdges(rng, n, m), seed%2 == 0)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteAdjacency(&buf, g); err != nil {
			return false
		}
		h, err := ReadAdjacency(&buf)
		if err != nil {
			return false
		}
		return Equal(g, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		g, err := FromEdges(n, randomEdges(rng, n, rng.Intn(250)), false)
		if err != nil {
			return false
		}
		return Equal(g, g.Transpose().Transpose())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
