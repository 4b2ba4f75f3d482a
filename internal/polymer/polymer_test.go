package polymer

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numa"
)

var top = numa.Topology{Sockets: 4, ThreadsPerSocket: 2}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 2000, S: 1.0, MaxDegree: 100, ZeroInFrac: 0.05, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewPartitionsPerSocket(t *testing.T) {
	g := testGraph(t)
	p, err := New(g, Config{Topology: top})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Partitions()) != top.Sockets {
		t.Fatalf("partitions = %d, want %d", len(p.Partitions()), top.Sockets)
	}
	if p.Name() != "polymer" {
		t.Fatal("wrong name")
	}
}

func TestBoundsValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := New(g, Config{Topology: top, Bounds: []int64{0, 5}}); err == nil {
		t.Fatal("expected bounds length error")
	}
}

// TestFineBoundsCoarsened checks that a boundary list finer than one range
// per socket is merged by core.CoarsenBounds.
func TestFineBoundsCoarsened(t *testing.T) {
	g := testGraph(t)
	n := int64(g.NumVertices())
	fine := make([]int64, 4*top.Sockets+2)
	for i := range fine {
		fine[i] = int64(i) * n / int64(len(fine)-1)
	}
	p, err := New(g, Config{Topology: top, Bounds: fine})
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(g, Config{Topology: top, Bounds: core.CoarsenBounds(fine, top.Sockets)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Partitions(), want.Partitions()) || !slices.Equal(p.units, want.units) {
		t.Fatalf("partitions %v, want %v", p.Partitions(), want.Partitions())
	}
	if len(p.Partitions()) != top.Sockets {
		t.Fatalf("%d partitions, want one per socket", len(p.Partitions()))
	}
}

func TestPartitionCostsCoverTotal(t *testing.T) {
	g := testGraph(t)
	p, err := New(g, Config{Topology: top})
	if err != nil {
		t.Fatal(err)
	}
	k := enginetest.Const(true)
	p.EdgeMap(frontier.All(g), k)
	step := p.Metrics().LastStep()
	if step.Kind != engine.StepEdgeMapDense {
		t.Fatalf("kind = %v", step.Kind)
	}
	if len(step.PartitionCosts) != top.Sockets {
		t.Fatalf("partition costs = %d", len(step.PartitionCosts))
	}
	var sum int64
	for _, c := range step.PartitionCosts {
		sum += c
	}
	if sum != step.TotalCost {
		t.Fatalf("partition costs sum %d != total %d", sum, step.TotalCost)
	}
}

// With static scheduling, VEBO bounds must reduce the dense-edgemap
// makespan relative to Algorithm 1 partitioning of the original graph.
func TestVEBOImprovesStaticMakespan(t *testing.T) {
	g := testGraph(t)
	r, err := core.Reorder(g, top.Sockets, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := core.Apply(g, r)
	if err != nil {
		t.Fatal(err)
	}
	k := enginetest.Const(true)
	run := func(g *graph.Graph, bounds []int64) int64 {
		p, err := New(g, Config{Topology: top, Bounds: bounds})
		if err != nil {
			t.Fatal(err)
		}
		p.EdgeMap(frontier.All(g), k)
		return p.Metrics().LastStep().Makespan
	}
	orig := run(g, nil)
	vebo := run(rg, r.Boundaries())
	if vebo > orig {
		t.Errorf("VEBO makespan %d worse than original %d", vebo, orig)
	}
}

func TestVertexMapStaticOverFullRange(t *testing.T) {
	g := testGraph(t)
	p, err := New(g, Config{Topology: top})
	if err != nil {
		t.Fatal(err)
	}
	out := p.VertexMap(frontier.All(g), func(v graph.VertexID) bool { return v < 10 })
	if out.Count() != 10 {
		t.Fatalf("kept %d", out.Count())
	}
	if p.Metrics().LastStep().Kind != engine.StepVertexMap {
		t.Fatal("missing vertexmap step")
	}
}
