package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func communityGraph(t *testing.T) *graph.Graph {
	t.Helper()
	// two dense communities joined by a few bridges: streaming partitioners
	// should separate them.
	rng := rand.New(rand.NewSource(5))
	var edges []graph.Edge
	addCommunity := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for k := 0; k < 6; k++ {
				w := lo + rng.Intn(hi-lo)
				if w != v {
					edges = append(edges,
						graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(w)},
						graph.Edge{Src: graph.VertexID(w), Dst: graph.VertexID(v)})
				}
			}
		}
	}
	addCommunity(0, 100)
	addCommunity(100, 200)
	for i := 0; i < 5; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(100 + i)})
	}
	g, err := graph.FromEdges(200, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLDGBasics(t *testing.T) {
	g := communityGraph(t)
	a, err := LDG(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes()
	if sizes[0]+sizes[1] != 200 {
		t.Fatalf("sizes %v", sizes)
	}
	// capacity constraint: no partition beyond n/p + 1
	for i, s := range sizes {
		if float64(s) > 200.0/2+1 {
			t.Errorf("partition %d oversized: %d", i, s)
		}
	}
	if _, err := LDG(g, 0); err == nil {
		t.Error("expected error for p=0")
	}
}

func TestFennelBasics(t *testing.T) {
	g := communityGraph(t)
	a, err := Fennel(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range a.Sizes() {
		total += s
	}
	if total != 200 {
		t.Fatalf("total %d", total)
	}
	if _, err := Fennel(g, -1); err == nil {
		t.Error("expected error for negative p")
	}
}

func TestStreamingPartitionersCutLessThanRandom(t *testing.T) {
	g := communityGraph(t)
	// random assignment baseline
	rng := rand.New(rand.NewSource(8))
	randomA := &Assignment{P: 2, PartOf: make([]uint32, g.NumVertices())}
	for v := range randomA.PartOf {
		randomA.PartOf[v] = uint32(rng.Intn(2))
	}
	randCut := randomA.EdgeCut(g)

	ldg, err := LDG(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	fennel, err := Fennel(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cut := ldg.EdgeCut(g); cut >= randCut {
		t.Errorf("LDG cut %d not below random %d", cut, randCut)
	}
	if cut := fennel.EdgeCut(g); cut >= randCut {
		t.Errorf("Fennel cut %d not below random %d", cut, randCut)
	}
}

func TestAssignmentRelabel(t *testing.T) {
	g := communityGraph(t)
	a, err := LDG(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	perm, bounds := a.Relabel()
	// perm must be a permutation
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if seen[p] {
			t.Fatal("duplicate in relabel permutation")
		}
		seen[p] = true
	}
	// every vertex's new ID must fall inside its partition's bounds
	for v, p := range a.PartOf {
		newID := int64(perm[v])
		if newID < bounds[p] || newID >= bounds[p+1] {
			t.Fatalf("vertex %d: new ID %d outside bounds of partition %d", v, newID, p)
		}
	}
	// the relabelled graph is isomorphic
	h, err := g.Relabel(g.NumVertices(), perm)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsIsomorphicUnder(g, h, perm) {
		t.Fatal("relabelled graph not isomorphic")
	}
}

func TestFromRanges(t *testing.T) {
	g := communityGraph(t)
	parts, err := ByDestination(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := FromRanges(parts, g.NumVertices())
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if int(a.PartOf[v]) != Of(parts, graph.VertexID(v)) {
			t.Fatalf("vertex %d: assignment %d != Of %d", v, a.PartOf[v], Of(parts, graph.VertexID(v)))
		}
	}
}

// The trade-off the paper describes: streaming partitioners get lower edge
// cut; VEBO gets strictly better vertex/edge balance and never worse than
// the capacity slack the streaming heuristics allow.
func TestVEBOBeatsStreamingOnBalance(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		N: 5000, S: 1.0, MaxDegree: 200, ZeroInFrac: 0.1, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	const P = 16
	r, err := core.Reorder(g, P, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spreadOf := func(xs []int64) int64 {
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return hi - lo
	}
	for name, build := range map[string]func() (*Assignment, error){
		"ldg":    func() (*Assignment, error) { return LDG(g, P) },
		"fennel": func() (*Assignment, error) { return Fennel(g, P) },
	} {
		a, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if es := spreadOf(a.EdgeCounts(g)); es <= r.EdgeImbalance() {
			t.Errorf("%s edge spread %d not worse than VEBO's %d", name, es, r.EdgeImbalance())
		}
	}
}

// Property: assignments are always valid and conserve vertices.
func TestStreamingValidityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 1
		g, err := gen.ErdosRenyi(n, int64(rng.Intn(400)), seed)
		if err != nil {
			return false
		}
		p := rng.Intn(7) + 1
		ldg, err := LDG(g, p)
		if err != nil || ldg.Validate() != nil {
			return false
		}
		fen, err := Fennel(g, p)
		if err != nil || fen.Validate() != nil {
			return false
		}
		var s1, s2 int64
		for _, s := range ldg.Sizes() {
			s1 += s
		}
		for _, s := range fen.Sizes() {
			s2 += s
		}
		return s1 == int64(n) && s2 == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
