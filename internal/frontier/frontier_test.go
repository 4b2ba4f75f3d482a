package frontier

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(100, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromVertex(t *testing.T) {
	g := testGraph(t)
	f := FromVertex(g, 7)
	if f.Count() != 1 || !f.Has(7) || f.Has(8) {
		t.Fatal("FromVertex wrong membership")
	}
	if f.OutEdges() != g.OutDegree(7) {
		t.Fatalf("OutEdges = %d, want %d", f.OutEdges(), g.OutDegree(7))
	}
}

func TestFromVerticesAndHas(t *testing.T) {
	g := testGraph(t)
	vs := []graph.VertexID{3, 17, 42, 99}
	f := FromVertices(g, vs)
	for _, v := range vs {
		if !f.Has(v) {
			t.Fatalf("missing %d", v)
		}
	}
	for _, v := range []graph.VertexID{0, 4, 50, 98} {
		if f.Has(v) {
			t.Fatalf("spurious %d", v)
		}
	}
	var want int64
	for _, v := range vs {
		want += g.OutDegree(v)
	}
	if f.OutEdges() != want {
		t.Fatalf("OutEdges = %d, want %d", f.OutEdges(), want)
	}
}

func TestAll(t *testing.T) {
	g := testGraph(t)
	f := All(g)
	if f.Count() != int64(g.NumVertices()) {
		t.Fatalf("Count = %d", f.Count())
	}
	if f.OutEdges() != g.NumEdges() {
		t.Fatalf("OutEdges = %d", f.OutEdges())
	}
	if !f.IsDense() {
		t.Fatal("All should be dense")
	}
}

func TestConversionRoundTrip(t *testing.T) {
	g := testGraph(t)
	vs := []graph.VertexID{1, 2, 50}
	f := FromVertices(g, vs)
	d := f.Dense()
	if !f.IsDense() {
		t.Fatal("not dense after Dense()")
	}
	for _, v := range vs {
		if !d[v] {
			t.Fatalf("dense bitmap missing %d", v)
		}
	}
	s := f.Sparse()
	if f.IsDense() {
		t.Fatal("still dense after Sparse()")
	}
	if len(s) != 3 || s[0] != 1 || s[1] != 2 || s[2] != 50 {
		t.Fatalf("sparse = %v", s)
	}
	// counts survive conversions
	if f.Count() != 3 {
		t.Fatalf("Count = %d after conversions", f.Count())
	}
}

func TestFromDense(t *testing.T) {
	g := testGraph(t)
	bits := make([]bool, g.NumVertices())
	bits[5], bits[10] = true, true
	f := FromDense(g, bits)
	if f.Count() != 2 {
		t.Fatalf("Count = %d", f.Count())
	}
	if f.OutEdges() != g.OutDegree(5)+g.OutDegree(10) {
		t.Fatalf("OutEdges = %d", f.OutEdges())
	}
}

func TestShouldBeDense(t *testing.T) {
	g := testGraph(t)
	m := g.NumEdges()
	if FromVertices(g, nil).ShouldBeDense(m) {
		t.Error("empty frontier should not be dense")
	}
	if !All(g).ShouldBeDense(m) {
		t.Error("full frontier should be dense")
	}
}

func TestDensity(t *testing.T) {
	g := testGraph(t)
	if Density(All(g), g.NumEdges()) <= 1.0 {
		t.Error("full frontier density should exceed 1 (vertices + edges)")
	}
	if Density(FromVertices(g, nil), 0) != 0 {
		t.Error("zero-edge graph density should be 0")
	}
}

// A frontier keeps both representations once built, so alternating Dense
// and Sparse calls (Ligra's VertexMap reads PageRank's all-vertices frontier
// sparse, its next dense EdgeMap reads it dense) allocate nothing after the
// first conversion each way.
func TestAlternatingConversionsAllocateOnce(t *testing.T) {
	g := testGraph(t)
	for name, f := range map[string]*Frontier{
		"dense":  All(g),
		"sparse": FromVertices(g, []graph.VertexID{1, 2, 50}),
		"empty":  FromVertices(g, nil),
	} {
		want := f.Count()
		if allocs := testing.AllocsPerRun(10, func() {
			f.Sparse()
			f.Dense()
		}); allocs != 0 {
			t.Errorf("%s: %.0f allocations per alternation after the first", name, allocs)
		}
		if int64(len(f.Sparse())) != want {
			t.Errorf("%s: sparse view has %d vertices, want %d", name, len(f.Sparse()), want)
		}
		var set int64
		for _, b := range f.Dense() {
			if b {
				set++
			}
		}
		if set != want {
			t.Errorf("%s: dense view has %d vertices, want %d", name, set, want)
		}
	}
}
