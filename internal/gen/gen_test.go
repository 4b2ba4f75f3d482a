package gen

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestRMATBasics(t *testing.T) {
	g, err := RMAT(10, 8, 0.57, 0.19, 0.19, 1)
	if err != nil {
		t.Fatalf("RMAT: %v", err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("vertices = %d, want 1024", g.NumVertices())
	}
	if g.NumEdges() != 8*1024 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), 8*1024)
	}
	// RMAT with skewed quadrants must produce a skewed degree distribution:
	// max in-degree far above the average.
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxInDegree()) < 5*avg {
		t.Errorf("max in-degree %d not skewed vs avg %.1f", g.MaxInDegree(), avg)
	}
	// and a substantial fraction of zero-in-degree vertices.
	if frac := float64(g.CountZeroInDegree()) / float64(g.NumVertices()); frac < 0.2 {
		t.Errorf("zero-in-degree fraction %.2f too small for RMAT", frac)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, err := RMAT(8, 4, 0.57, 0.19, 0.19, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RMAT(8, 4, 0.57, 0.19, 0.19, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(a, b) {
		t.Error("same seed produced different RMAT graphs")
	}
	c, err := RMAT(8, 4, 0.57, 0.19, 0.19, 43)
	if err != nil {
		t.Fatal(err)
	}
	if graph.Equal(a, c) {
		t.Error("different seeds produced identical RMAT graphs")
	}
}

func TestRMATRejectsBadArgs(t *testing.T) {
	if _, err := RMAT(8, 4, 0.9, 0.9, 0.9, 1); err == nil {
		t.Error("expected error for probabilities summing over 1")
	}
	if _, err := RMAT(31, 4, 0.5, 0.2, 0.2, 1); err == nil {
		t.Error("expected error for oversized scale")
	}
}

func TestPowerLawShape(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{
		N: 20000, S: 1.0, MaxDegree: 400, ZeroInFrac: 0.14, Seed: 7,
	})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	if g.NumVertices() != 20000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	frac := float64(g.CountZeroInDegree()) / float64(g.NumVertices())
	// forced 14% plus natural Zipf zeros: must be at least the forced share.
	if frac < 0.14 {
		t.Errorf("zero-in fraction %.3f below forced 0.14", frac)
	}
	if g.MaxInDegree() > 400 {
		t.Errorf("max in-degree %d exceeds cap 400", g.MaxInDegree())
	}
	// Under the Zipf law the per-degree vertex count decays like d^-s:
	// each decade of degree must be rarer than the previous.
	hist := g.DegreeHistogramIn()
	at := func(d int) int64 {
		if d < len(hist) {
			return hist[d]
		}
		return 0
	}
	if !(at(1) > at(10) && at(10) > at(100)) {
		t.Errorf("degree counts not Zipf-decaying: c(1)=%d c(10)=%d c(100)=%d",
			at(1), at(10), at(100))
	}
}

func TestPowerLawValidation(t *testing.T) {
	bad := []PowerLawConfig{
		{N: 0, S: 1, MaxDegree: 5},
		{N: 10, S: 0, MaxDegree: 5},
		{N: 10, S: 1, MaxDegree: 0},
		{N: 10, S: 1, MaxDegree: 5, ZeroInFrac: 1.5},
	}
	for i, cfg := range bad {
		if _, err := PowerLaw(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	cfg := PowerLawConfig{N: 3000, S: 1, MaxDegree: 100, Seed: 5}
	a, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(a, b) {
		t.Error("same config produced different power-law graphs")
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(1000, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 5000 {
		t.Fatalf("edges = %d, want 5000", g.NumEdges())
	}
	// ER in-degrees are approximately Poisson(5): max should be modest.
	if g.MaxInDegree() > 40 {
		t.Errorf("max in-degree %d implausibly high for ER", g.MaxInDegree())
	}
	if _, err := ErdosRenyi(0, 5, 1); err == nil {
		t.Error("expected error for n=0")
	}
}

func TestRoadNetworkShape(t *testing.T) {
	g, err := RoadNetwork(50, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Fatalf("vertices = %d, want 2000", g.NumVertices())
	}
	if g.MaxInDegree() > 9 {
		t.Errorf("max degree %d exceeds road cap 9", g.MaxInDegree())
	}
	if g.CountZeroInDegree() != 0 {
		t.Errorf("road network has %d isolated vertices", g.CountZeroInDegree())
	}
	// Symmetry: every edge has its reverse.
	for _, e := range g.Edges() {
		if !g.HasEdge(e.Dst, e.Src) {
			t.Fatalf("missing reverse edge of (%d,%d)", e.Src, e.Dst)
		}
	}
}

func TestRoadNetworkLocality(t *testing.T) {
	// Row-major IDs: the mean |src-dst| gap must be tiny relative to n.
	g, err := RoadNetwork(60, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sumGap float64
	for _, e := range g.Edges() {
		sumGap += math.Abs(float64(int64(e.Src) - int64(e.Dst)))
	}
	meanGap := sumGap / float64(g.NumEdges())
	if meanGap > 65 {
		t.Errorf("mean ID gap %.1f; road network should be local (≈ width)", meanGap)
	}
}

func TestRecipesBuildAll(t *testing.T) {
	for _, r := range Recipes() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			g, err := r.Build(0.05, 1)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if g.NumVertices() == 0 || g.NumEdges() == 0 {
				t.Fatalf("recipe %s produced empty graph", r.Name)
			}
			if !r.Directed {
				// undirected recipes must be symmetric
				for _, e := range g.Edges()[:min(200, int(g.NumEdges()))] {
					if !g.HasEdge(e.Dst, e.Src) {
						t.Fatalf("undirected recipe %s asymmetric at (%d,%d)", r.Name, e.Src, e.Dst)
					}
				}
			}
		})
	}
}

func TestRecipeShapeParameters(t *testing.T) {
	// Twitter-like: ~14%+ zero in-degree; Friendster-like: ~48%+; RMAT: large.
	check := func(name string, minZeroFrac, maxZeroFrac float64) {
		r, err := RecipeByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := r.Build(0.2, 3)
		if err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		frac := float64(g.CountZeroInDegree()) / float64(g.NumVertices())
		if frac < minZeroFrac || frac > maxZeroFrac {
			t.Errorf("%s zero-in fraction %.2f outside [%.2f, %.2f]",
				name, frac, minZeroFrac, maxZeroFrac)
		}
	}
	check("twitter", 0.14, 0.60)
	check("friendster", 0.48, 0.85)
	check("rmat", 0.30, 0.90)
	check("usaroad", 0, 0)
}

func TestRecipeByNameUnknown(t *testing.T) {
	if _, err := RecipeByName("nope"); err == nil {
		t.Error("expected error for unknown recipe")
	}
}

// Property: generators are deterministic in their seed and always produce
// structurally valid graphs.
func TestGeneratorDeterminismQuick(t *testing.T) {
	f := func(seed int64) bool {
		a, err := ErdosRenyi(200, 600, seed)
		if err != nil {
			return false
		}
		b, err := ErdosRenyi(200, 600, seed)
		if err != nil {
			return false
		}
		return graph.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
