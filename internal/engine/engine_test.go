package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/layout"
)

func TestMakespanStatic(t *testing.T) {
	// 4 units, 2 workers: blocks {10,1} and {1,1} → makespan 11.
	if got := MakespanStatic([]int64{10, 1, 1, 1}, 2); got != 11 {
		t.Errorf("MakespanStatic = %d, want 11", got)
	}
	if got := MakespanStatic(nil, 4); got != 0 {
		t.Errorf("empty = %d", got)
	}
	if got := MakespanStatic([]int64{5}, 8); got != 5 {
		t.Errorf("single = %d", got)
	}
	// one worker = total
	if got := MakespanStatic([]int64{3, 4, 5}, 1); got != 12 {
		t.Errorf("one worker = %d", got)
	}
}

func TestMakespanDynamic(t *testing.T) {
	// list scheduling spreads the load: {10,1,1,1} on 2 workers → 10 vs 3.
	if got := MakespanDynamic([]int64{10, 1, 1, 1}, 2); got != 10 {
		t.Errorf("MakespanDynamic = %d, want 10", got)
	}
	if got := MakespanDynamic([]int64{3, 4, 5}, 1); got != 12 {
		t.Errorf("one worker = %d", got)
	}
	if got := MakespanDynamic(nil, 3); got != 0 {
		t.Errorf("empty = %d", got)
	}
}

func TestMakespanGrouped(t *testing.T) {
	// 4 units in 2 groups of 2, 1 worker per group: group sums 11 and 2.
	if got := MakespanGrouped([]int64{10, 1, 1, 1}, 2, 1); got != 11 {
		t.Errorf("MakespanGrouped = %d, want 11", got)
	}
	// 2 workers per group: group 0 max(10,1)=10.
	if got := MakespanGrouped([]int64{10, 1, 1, 1}, 2, 2); got != 10 {
		t.Errorf("MakespanGrouped = %d, want 10", got)
	}
}

// Property: both makespans respect the scheduling-theory bounds — at least
// the max unit cost and the average load, at most the total; and dynamic
// list scheduling obeys Graham's bound makespan ≤ total/w + max unit.
func TestMakespanBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 1
		w := rng.Intn(8) + 1
		costs := make([]int64, n)
		var total, maxc int64
		for i := range costs {
			costs[i] = int64(rng.Intn(100))
			total += costs[i]
			if costs[i] > maxc {
				maxc = costs[i]
			}
		}
		d := MakespanDynamic(costs, w)
		s := MakespanStatic(costs, w)
		avg := (total + int64(w) - 1) / int64(w) // ceil(mean), valid lower bound
		if d > total || s > total {
			return false
		}
		if d < maxc || d < avg || s < maxc || s < avg {
			return false
		}
		// Graham's list-scheduling guarantee
		return d <= total/int64(w)+maxc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSplitRange(t *testing.T) {
	units := SplitRange(10, 3)
	want := []Range{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 6}, {Lo: 6, Hi: 9}, {Lo: 9, Hi: 10}}
	if !reflect.DeepEqual(units, want) {
		t.Errorf("SplitRange = %v", units)
	}
	if got := SplitRange(0, 5); len(got) != 0 {
		t.Errorf("empty range produced %v", got)
	}
	if got := SplitRange(5, 0); len(got) != 5 {
		t.Errorf("unit 0 should clamp to 1, got %v", got)
	}
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 500, S: 1.0, MaxDegree: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDensePullVisitsEveryEdgeOnce(t *testing.T) {
	g := testGraph(t)
	counts := make([]int64, g.NumVertices())
	k := countKernel(counts)
	units := SplitRange(g.NumVertices(), 64)
	out, costs := DensePull(g, frontier.All(g), k, units, 1)
	for v := 0; v < g.NumVertices(); v++ {
		if counts[v] != g.InDegree(graph.VertexID(v)) {
			t.Fatalf("vertex %d updated %d times, in-degree %d",
				v, counts[v], g.InDegree(graph.VertexID(v)))
		}
	}
	if len(costs) != len(units) {
		t.Fatalf("%d unit costs for %d units", len(costs), len(units))
	}
	// every vertex with an in-edge must be active in the output
	for v := 0; v < g.NumVertices(); v++ {
		wantActive := g.InDegree(graph.VertexID(v)) > 0
		if out.Has(graph.VertexID(v)) != wantActive {
			t.Fatalf("vertex %d active=%v, want %v", v, out.Has(graph.VertexID(v)), wantActive)
		}
	}
}

func TestSparsePushVisitsFrontierEdges(t *testing.T) {
	g := testGraph(t)
	counts := make([]int64, g.NumVertices())
	k := countKernel(counts)
	srcs := []graph.VertexID{1, 5, 9}
	f := frontier.FromVertices(g, srcs)
	out, _, _ := SparsePush(g, f, k, 2, 1, nil, 0)
	want := make([]int64, g.NumVertices())
	activeDst := map[graph.VertexID]bool{}
	for _, s := range srcs {
		for _, d := range g.OutNeighbors(s) {
			want[d]++
			activeDst[d] = true
		}
	}
	for v := range counts {
		if counts[v] != want[v] {
			t.Fatalf("dst %d updated %d times, want %d", v, counts[v], want[v])
		}
	}
	if out.Count() != int64(len(activeDst)) {
		t.Fatalf("out frontier has %d vertices, want %d", out.Count(), len(activeDst))
	}
}

func TestDenseCOOMatchesDensePull(t *testing.T) {
	g := testGraph(t)
	units := SplitRange(g.NumVertices(), 100)
	coos, _, err := layout.BuildRanges(g, units, layout.HilbertOrder, 1)
	if err != nil {
		t.Fatal(err)
	}
	c1 := make([]int64, g.NumVertices())
	DensePull(g, frontier.All(g), countKernel(c1), units, 1)
	c2 := make([]int64, g.NumVertices())
	DenseCOO(g, frontier.All(g), countKernel(c2), coos, units, 1)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("DenseCOO and DensePull disagree on update counts")
	}
}

// DensePull charges each destination CostVertex plus the edges its Pull
// reports scanned, hands every destination to Pull exactly once, and
// activates only what Pull activates.
func TestDensePullChargesScannedEdges(t *testing.T) {
	g := testGraph(t)
	pulls := make([]int, g.NumVertices())
	// Even destinations stop after at most two edges (an early exit); odd
	// ones accept no updates at all.
	k := EdgeKernel{Pull: func(d graph.VertexID, srcs []graph.VertexID, _ []int32, _ []bool) (int, bool) {
		pulls[d]++
		if d%2 == 1 {
			return 0, false
		}
		return min(len(srcs), 2), false
	}}
	units := SplitRange(g.NumVertices(), 64)
	out, costs := DensePull(g, frontier.All(g), k, units, 2)
	for u, r := range units {
		want := int64(CostVertex) * int64(r.Hi-r.Lo)
		for d := r.Lo; d < r.Hi; d++ {
			if d%2 == 0 {
				want += min(g.InDegree(d), 2) * CostEdge
			}
		}
		if costs[u] != want {
			t.Fatalf("unit %d cost %d, want %d", u, costs[u], want)
		}
	}
	for d, c := range pulls {
		if c != 1 {
			t.Fatalf("destination %d pulled %d times", d, c)
		}
	}
	if !out.IsEmpty() {
		t.Error("output frontier not empty")
	}
}

func TestSparsePushDeduplicatesOutput(t *testing.T) {
	// two sources pointing at the same destination: output contains it once.
	edges := []graph.Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}}
	g, err := graph.FromEdges(3, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	out, _, _ := SparsePush(g, frontier.FromVertices(g, []graph.VertexID{0, 1}), countKernel(make([]int64, 3)), 1, 2, nil, 0)
	if out.Count() != 1 || !out.Has(2) {
		t.Fatalf("out frontier = %v vertices", out.Count())
	}
}

// TestSparsePushDedupsEveryActivation drives SparsePush with a kernel that
// activates its destination on every edge, as PageRank's does, so workers
// report each shared destination many times over. The output frontier must
// still be sorted, duplicate-free and exactly the set of destinations
// reached, and each chunk must cost its sources and their out-edges.
func TestSparsePushDedupsEveryActivation(t *testing.T) {
	g := testGraph(t)
	rng := rand.New(rand.NewSource(5))
	var srcs []graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if rng.Intn(3) == 0 {
			srcs = append(srcs, graph.VertexID(v))
		}
	}
	const chunk = 4
	out, costs, _ := SparsePush(g, frontier.FromVertices(g, srcs), countKernel(make([]int64, g.NumVertices())), chunk, 4, nil, 0)
	want := make(map[graph.VertexID]bool)
	wantCosts := make([]int64, (len(srcs)+chunk-1)/chunk)
	for i, s := range srcs {
		wantCosts[i/chunk] += CostVertex + CostEdge*g.OutDegree(s)
		for _, d := range g.OutNeighbors(s) {
			want[d] = true
		}
	}
	got := out.Sparse()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("output not sorted and duplicate-free at %d: %d then %d", i, got[i-1], got[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("output has %d vertices, want %d", len(got), len(want))
	}
	for _, d := range got {
		if !want[d] {
			t.Fatalf("output holds %d, which no active source reaches", d)
		}
	}
	if !reflect.DeepEqual(costs, wantCosts) {
		t.Fatalf("chunk costs %v, want %v", costs, wantCosts)
	}
}

func TestVertexMapVariants(t *testing.T) {
	g := testGraph(t)
	f := frontier.FromVertices(g, []graph.VertexID{2, 4, 6, 8})
	keepEven := func(v graph.VertexID) bool { return v%4 == 0 }
	outD, _ := VertexMapDynamic(g, f, keepEven, 2, 2)
	f2 := frontier.FromVertices(g, []graph.VertexID{2, 4, 6, 8})
	outS, _ := VertexMapStatic(g, f2, keepEven, 4, 2)
	for _, v := range []graph.VertexID{4, 8} {
		if !outD.Has(v) || !outS.Has(v) {
			t.Fatalf("vertex %d missing from output", v)
		}
	}
	if outD.Count() != 2 || outS.Count() != 2 {
		t.Fatalf("counts %d/%d, want 2/2", outD.Count(), outS.Count())
	}
}

func TestStepKindString(t *testing.T) {
	if StepEdgeMapSparse.String() != "edgemap-sparse" ||
		StepEdgeMapDense.String() != "edgemap-dense" ||
		StepVertexMap.String() != "vertexmap" ||
		StepKind(9).String() != "unknown" {
		t.Error("StepKind labels wrong")
	}
}

// Record builds each step from its input frontier and costs, and
// accumulates the makespans it is given.
func TestMetricsAccumulation(t *testing.T) {
	g := testGraph(t)
	srcs := []graph.VertexID{1, 5, 9}
	var m Metrics
	m.Record(StepEdgeMapDense, frontier.FromVertices(g, srcs), []int64{3, 4}, 10, []int64{7})
	m.Record(StepVertexMap, frontier.FromVertices(g, srcs), []int64{2}, 5, nil)
	if m.ModelTime != 15 {
		t.Errorf("ModelTime = %d", m.ModelTime)
	}
	var outEdges int64
	for _, s := range srcs {
		outEdges += g.OutDegree(s)
	}
	want := Step{Kind: StepEdgeMapDense, ActiveVertices: 3, ActiveEdges: outEdges, TotalCost: 7,
		Makespan: 10, UnitCosts: []int64{3, 4}, PartitionCosts: []int64{7}}
	if !reflect.DeepEqual(m.Steps[0], want) {
		t.Errorf("first step %+v, want %+v", m.Steps[0], want)
	}
	if m.LastStep().Kind != StepVertexMap {
		t.Error("LastStep wrong")
	}
	m.Reset()
	if m.ModelTime != 0 || len(m.Steps) != 0 || m.LastStep() != nil {
		t.Error("Reset incomplete")
	}
}
