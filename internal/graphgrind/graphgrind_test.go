package graphgrind

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/numa"
	"repro/internal/partition"
)

var top = numa.Topology{Sockets: 2, ThreadsPerSocket: 2}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 2000, S: 1.0, MaxDegree: 100, ZeroInFrac: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newEngine(t *testing.T, g *graph.Graph, parts int, o layout.Order, bounds []int64) *GraphGrind {
	t.Helper()
	gg, err := New(g, Config{
		Topology:   top,
		Partitions: parts,
		Order:      o,
		Bounds:     bounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gg
}

func TestNewDefaults(t *testing.T) {
	g := testGraph(t)
	gg, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gg.Partitions()) != DefaultPartitions {
		t.Fatalf("partitions = %d, want %d", len(gg.Partitions()), DefaultPartitions)
	}
	if gg.Name() != "graphgrind" {
		t.Fatal("wrong name")
	}
}

func TestBoundsValidation(t *testing.T) {
	g := testGraph(t)
	_, err := New(g, Config{Partitions: 4, Bounds: []int64{0, 10}})
	if err == nil {
		t.Fatal("expected bounds length error")
	}
}

func TestDenseEdgeMapRecordsPartitionCosts(t *testing.T) {
	g := testGraph(t)
	gg := newEngine(t, g, 16, layout.CSROrder, nil)
	k := enginetest.Const(true)
	gg.EdgeMap(frontier.All(g), k)
	step := gg.Metrics().LastStep()
	if step.Kind != engine.StepEdgeMapDense {
		t.Fatalf("step kind = %v", step.Kind)
	}
	if len(step.PartitionCosts) != 16 {
		t.Fatalf("partition costs = %d entries", len(step.PartitionCosts))
	}
	if step.Makespan <= 0 || step.TotalCost <= 0 {
		t.Fatalf("bad accounting: %+v", step)
	}
}

func TestSparseEdgeMapUsed(t *testing.T) {
	g := testGraph(t)
	gg := newEngine(t, g, 16, layout.CSROrder, nil)
	k := enginetest.Const(false)
	gg.EdgeMap(frontier.FromVertex(g, 5), k)
	if got := gg.Metrics().LastStep().Kind; got != engine.StepEdgeMapSparse {
		t.Fatalf("tiny frontier used %v", got)
	}
}

// A sparse step charges CostEdge per frontier out-edge, binned by the
// destination's partition, as both its unit and its partition costs, at any
// loop width: SparsePush bins per worker and sums the bins after the loop.
func TestSparseStepCostsPerPartition(t *testing.T) {
	// A sparse graph fits a frontier of several chunks well inside the
	// sparse direction's bound.
	g, err := gen.ErdosRenyi(20_000, 40_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	gg := newEngine(t, g, 16, layout.CSROrder, nil)
	var srcs []graph.VertexID
	var edges int64
	for v := graph.VertexID(0); int64(len(srcs))+edges < g.NumEdges()/40; v += 3 {
		srcs, edges = append(srcs, v), edges+g.OutDegree(v)
	}
	if len(srcs) <= 2*engine.SparseChunk {
		t.Fatalf("frontier of %d sources spans too few chunks", len(srcs))
	}
	want := make([]int64, len(gg.Partitions()))
	for _, s := range srcs {
		for _, d := range g.OutNeighbors(s) {
			want[partition.Of(gg.Partitions(), d)] += engine.CostEdge
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		f := frontier.FromVertices(g, srcs)
		gg.EdgeMap(f, enginetest.Const(true))
		step := gg.Metrics().LastStep()
		if step.Kind != engine.StepEdgeMapSparse {
			t.Fatalf("GOMAXPROCS=%d: step kind = %v", procs, step.Kind)
		}
		if !slices.Equal(step.UnitCosts, want) || !slices.Equal(step.PartitionCosts, want) {
			t.Fatalf("GOMAXPROCS=%d: unit costs %v, partition costs %v, want %v", procs, step.UnitCosts, step.PartitionCosts, want)
		}
		if step.TotalCost != f.OutEdges() {
			t.Fatalf("GOMAXPROCS=%d: total cost %d, want %d", procs, step.TotalCost, f.OutEdges())
		}
	}
}

// VEBO bounds must produce near-equal per-partition dense costs, unlike
// Algorithm 1 on the original order.
func TestVEBOBalancesPartitionCosts(t *testing.T) {
	g := testGraph(t)
	const P = 16
	r, err := core.Reorder(g, P, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := core.Apply(g, r)
	if err != nil {
		t.Fatal(err)
	}
	k := enginetest.Const(true)

	spread := func(gg *GraphGrind, g *graph.Graph) float64 {
		gg.EdgeMap(frontier.All(g), k)
		costs := gg.Metrics().LastStep().PartitionCosts
		lo, hi := costs[0], costs[0]
		for _, c := range costs {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if lo == 0 {
			lo = 1
		}
		return float64(hi) / float64(lo)
	}

	orig := spread(newEngine(t, g, P, layout.CSROrder, nil), g)
	vebo := spread(newEngine(t, rg, P, layout.CSROrder, r.Boundaries()), rg)
	if vebo >= orig {
		t.Errorf("VEBO cost spread %.2f not better than original %.2f", vebo, orig)
	}
	if vebo > 1.2 {
		t.Errorf("VEBO cost spread %.2f, want near 1", vebo)
	}
}

func TestHilbertAndCSRProduceSameResults(t *testing.T) {
	g := testGraph(t)
	counts := func(o layout.Order) []int64 {
		c := make([]int64, g.NumVertices())
		k := enginetest.Count(c)
		gg := newEngine(t, g, 8, o, nil)
		gg.EdgeMap(frontier.All(g), k)
		return c
	}
	a := counts(layout.CSROrder)
	b := counts(layout.HilbertOrder)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("order-dependent result at %d: %d vs %d", v, a[v], b[v])
		}
	}
}

func TestVertexMapStaticMakespan(t *testing.T) {
	g := testGraph(t)
	gg := newEngine(t, g, 8, layout.CSROrder, nil)
	out := gg.VertexMap(frontier.All(g), func(v graph.VertexID) bool { return v%2 == 0 })
	if out.Count() != int64((g.NumVertices()+1)/2) {
		t.Fatalf("vertexmap kept %d vertices", out.Count())
	}
	if gg.Metrics().LastStep().Kind != engine.StepVertexMap {
		t.Fatal("missing vertexmap step")
	}
}
