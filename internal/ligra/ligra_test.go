package ligra

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numa"
)

var top = numa.Topology{Sockets: 2, ThreadsPerSocket: 2}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 1500, S: 1.0, MaxDegree: 80, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGrainDefault(t *testing.T) {
	g := testGraph(t)
	l := New(g, top)
	if u := l.units[0]; u.Hi-u.Lo != 64 { // n/384 < 64 → clamped
		t.Fatalf("grain = %d, want 64", u.Hi-u.Lo)
	}
	if l.Name() != "ligra" || l.Graph() != g {
		t.Fatal("identity accessors wrong")
	}
}

func TestDirectionOptimization(t *testing.T) {
	g := testGraph(t)
	l := New(g, top)
	k := enginetest.Const(false)
	l.EdgeMap(frontier.All(g), k)
	if got := l.Metrics().LastStep().Kind; got != engine.StepEdgeMapDense {
		t.Fatalf("full frontier used %v", got)
	}
	l.EdgeMap(frontier.FromVertex(g, 0), k)
	if got := l.Metrics().LastStep().Kind; got != engine.StepEdgeMapSparse {
		t.Fatalf("single-vertex frontier used %v", got)
	}
}

func TestDenseMakespanIsDynamic(t *testing.T) {
	// With dynamic list scheduling, the makespan must respect Graham's
	// bound rather than the static max-block cost.
	g := testGraph(t)
	l := New(g, top)
	k := enginetest.Const(true)
	l.EdgeMap(frontier.All(g), k)
	step := l.Metrics().LastStep()
	var maxUnit int64
	for _, c := range step.UnitCosts {
		if c > maxUnit {
			maxUnit = c
		}
	}
	w := int64(top.Threads())
	if step.Makespan > step.TotalCost/w+maxUnit {
		t.Errorf("makespan %d exceeds Graham bound %d", step.Makespan, step.TotalCost/w+maxUnit)
	}
}

func TestVertexMapCountsActiveOnly(t *testing.T) {
	g := testGraph(t)
	l := New(g, top)
	f := frontier.FromVertices(g, []graph.VertexID{1, 2, 3})
	visits := 0
	l.VertexMap(f, func(v graph.VertexID) bool { visits++; return false })
	if visits != 3 {
		t.Fatalf("visited %d vertices, want 3", visits)
	}
	if got := l.Metrics().LastStep().TotalCost; got != 3*engine.CostVertex {
		t.Fatalf("vertexmap cost %d", got)
	}
}
