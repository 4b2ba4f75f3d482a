package layout

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hilbert"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 300, S: 1.0, MaxDegree: 40, Seed: 8, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// edgeMultiset counts (src,dst,w) triples.
func edgeMultiset(c *COO) map[[3]int64]int {
	m := make(map[[3]int64]int)
	for i := 0; i < c.Len(); i++ {
		m[[3]int64{int64(c.Src[i]), int64(c.Dst[i]), int64(c.Weight[i])}]++
	}
	return m
}

func TestBuildPreservesEdgeMultiset(t *testing.T) {
	g := testGraph(t)
	var ref map[[3]int64]int
	for _, o := range []Order{CSROrder, HilbertOrder} {
		c, err := Build(g, o)
		if err != nil {
			t.Fatalf("Build(%v): %v", o, err)
		}
		if int64(c.Len()) != g.NumEdges() {
			t.Fatalf("%v: %d edges, want %d", o, c.Len(), g.NumEdges())
		}
		ms := edgeMultiset(c)
		if ref == nil {
			ref = ms
			continue
		}
		if len(ms) != len(ref) {
			t.Fatalf("%v: edge multiset size differs", o)
		}
		for k, v := range ref {
			if ms[k] != v {
				t.Fatalf("%v: edge %v count %d, want %d", o, k, ms[k], v)
			}
		}
	}
}

func TestCSROrderSorted(t *testing.T) {
	g := testGraph(t)
	c, err := Build(g, CSROrder)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < c.Len(); i++ {
		if c.Src[i-1] > c.Src[i] ||
			(c.Src[i-1] == c.Src[i] && c.Dst[i-1] > c.Dst[i]) {
			t.Fatalf("CSR order violated at %d: (%d,%d) > (%d,%d)",
				i, c.Src[i-1], c.Dst[i-1], c.Src[i], c.Dst[i])
		}
	}
}

func TestHilbertOrderSortedByCurveIndex(t *testing.T) {
	g := testGraph(t)
	c, err := Build(g, HilbertOrder)
	if err != nil {
		t.Fatal(err)
	}
	k := hilbert.OrderFor(g.NumVertices())
	var prev uint64
	for i := 0; i < c.Len(); i++ {
		d := hilbert.XY2D(k, uint32(c.Src[i]), uint32(c.Dst[i]))
		if i > 0 && d < prev {
			t.Fatalf("Hilbert order violated at %d: %d < %d", i, d, prev)
		}
		prev = d
	}
}

func TestBuildRange(t *testing.T) {
	g := testGraph(t)
	lo, hi := graph.VertexID(50), graph.VertexID(120)
	c, err := BuildRange(g, lo, hi, CSROrder)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for v := lo; v < hi; v++ {
		want += g.InDegree(v)
	}
	if int64(c.Len()) != want {
		t.Fatalf("range COO has %d edges, want %d", c.Len(), want)
	}
	for i := 0; i < c.Len(); i++ {
		if c.Dst[i] < lo || c.Dst[i] >= hi {
			t.Fatalf("edge %d destination %d outside [%d,%d)", i, c.Dst[i], lo, hi)
		}
	}
}

func TestBuildRangeInvalid(t *testing.T) {
	g := testGraph(t)
	if _, err := BuildRange(g, 10, 5, CSROrder); err == nil {
		t.Error("expected error for reversed range")
	}
	if _, err := BuildRange(g, 0, graph.VertexID(g.NumVertices()+5), CSROrder); err == nil {
		t.Error("expected error for out-of-range hi")
	}
}

func TestBuildRangeWholeGraphMatchesBuild(t *testing.T) {
	g := testGraph(t)
	a, err := Build(g, HilbertOrder)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildRange(g, 0, graph.VertexID(g.NumVertices()), HilbertOrder)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Src[i] != b.Src[i] || a.Dst[i] != b.Dst[i] {
			t.Fatalf("edge %d differs: (%d,%d) vs (%d,%d)",
				i, a.Src[i], a.Dst[i], b.Src[i], b.Dst[i])
		}
	}
}

// referenceBuildRange is the comparison-sort construction the key-sort
// kernels replace: gather the range's in-edges destination-major, then
// sort.Stable by the order's comparator.
func referenceBuildRange(g *graph.Graph, lo, hi graph.VertexID, o Order) []graph.Edge {
	var es []graph.Edge
	for v := lo; v < hi; v++ {
		ws := g.InWeights(v)
		for i, s := range g.InNeighbors(v) {
			es = append(es, graph.Edge{Src: s, Dst: v, Weight: ws[i]})
		}
	}
	k := hilbert.OrderFor(g.NumVertices())
	sort.SliceStable(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if o == HilbertOrder {
			return hilbert.XY2D(k, a.Src, a.Dst) < hilbert.XY2D(k, b.Src, b.Dst)
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return es
}

// TestBuildRangeMatchesStableSort pins BuildRange and BuildRanges entry for
// entry to the stable comparison sort, for every order, on random weighted
// and unweighted multigraphs dense in parallel edges of differing weights,
// over random, empty and end-of-space ranges. The multi-range call takes a
// random subset of a random cut of the vertex space, shuffled, so one
// worker's scratch left over from a larger range must not leak into a
// smaller one and the CSR gather must not depend on the ranges' order.
func TestBuildRangeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(150)
		weighted := trial%2 == 0
		edges := make([]graph.Edge, rng.Intn(6*n))
		for i := range edges {
			// Few distinct endpoints per edge count: many duplicate (src, dst).
			edges[i] = graph.Edge{
				Src:    graph.VertexID(rng.Intn(1 + n/3)),
				Dst:    graph.VertexID(rng.Intn(n)),
				Weight: int32(rng.Intn(4)),
			}
		}
		g, err := graph.FromEdges(n, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		check := func(o Order, r Range, got *COO) {
			t.Helper()
			want := referenceBuildRange(g, r.Lo, r.Hi, o)
			if got.Len() != len(want) || len(got.Dst) != len(want) || len(got.Weight) != len(want) {
				t.Fatalf("trial %d %v [%d,%d): %d edges, want %d", trial, o, r.Lo, r.Hi, got.Len(), len(want))
			}
			for i, e := range want {
				if got.Src[i] != e.Src || got.Dst[i] != e.Dst || got.Weight[i] != e.Weight {
					t.Fatalf("trial %d %v [%d,%d) entry %d: (%d,%d,%d), want (%d,%d,%d)",
						trial, o, r.Lo, r.Hi, i, got.Src[i], got.Dst[i], got.Weight[i], e.Src, e.Dst, e.Weight)
				}
			}
		}
		a := graph.VertexID(rng.Intn(n + 1))
		c := graph.VertexID(rng.Intn(n + 1))
		nv := graph.VertexID(n)
		var cut []Range
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			if rng.Intn(3) > 0 {
				cut = append(cut, Range{graph.VertexID(lo), graph.VertexID(hi)})
			}
			lo = hi
		}
		rng.Shuffle(len(cut), func(i, j int) { cut[i], cut[j] = cut[j], cut[i] })
		for _, o := range []Order{CSROrder, HilbertOrder} {
			for _, r := range []Range{{min(a, c), max(a, c)}, {0, nv}, {0, 0}, {nv, nv}, {a, nv}} {
				got, err := BuildRange(g, r.Lo, r.Hi, o)
				if err != nil {
					t.Fatalf("trial %d %v [%d,%d): %v", trial, o, r.Lo, r.Hi, err)
				}
				check(o, r, got)
			}
			got, _, err := BuildRanges(g, cut, o, 2)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, o, err)
			}
			for i, r := range cut {
				check(o, r, got[i])
			}
		}
	}
}

func TestBuildRangesRejectsOverlap(t *testing.T) {
	g := testGraph(t)
	if _, _, err := BuildRanges(g, []Range{{10, 20}, {15, 30}}, CSROrder, 1); err == nil {
		t.Error("expected error for overlapping ranges")
	}
}

// TestUnweightedCOOsShareUnitWeights pins the weight sharing of unweighted
// COOs: every COO of a build reads a prefix of the one all-ones slice the
// build returns, and weighted COOs keep arrays of their own.
func TestUnweightedCOOsShareUnitWeights(t *testing.T) {
	edges := make([]graph.Edge, 0, 400)
	for i := range 400 {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i % 37), Dst: graph.VertexID(i % 100), Weight: 7})
	}
	ranges := []Range{{0, 30}, {30, 70}, {70, 100}}
	for _, weighted := range []bool{false, true} {
		g, err := graph.FromEdges(100, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []Order{CSROrder, HilbertOrder} {
			coos, ones, err := BuildRanges(g, ranges, o, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !weighted && len(ones) == 0 {
				t.Fatalf("%v: an unweighted build returned no ones", o)
			}
			for _, c := range coos {
				shared := len(ones) > 0 && c.Len() > 0 && &c.Weight[0] == &ones[0]
				if shared == weighted {
					t.Fatalf("%v weighted=%v: COO weights shared=%v", o, weighted, shared)
				}
				if cap(c.Weight) != c.Len() {
					t.Fatalf("%v: weight capacity %d exceeds the COO's %d edges", o, cap(c.Weight), c.Len())
				}
				for _, w := range c.Weight {
					if want := map[bool]int32{false: 1, true: 7}[weighted]; w != want {
						t.Fatalf("%v weighted=%v: weight %d, want %d", o, weighted, w, want)
					}
				}
			}
		}
	}
}

func TestOrderString(t *testing.T) {
	if CSROrder.String() != "csr" || HilbertOrder.String() != "hilbert" {
		t.Error("Order.String labels wrong")
	}
	if Order(99).String() == "" {
		t.Error("unknown order should stringify")
	}
}
