package dynamic

import (
	"testing"

	"repro/internal/graph"
)

func TestDeriveRefinePlanUnrollsMultiplicities(t *testing.T) {
	e1 := graph.Edge{Src: 1, Dst: 2, Weight: 1}
	e2 := graph.Edge{Src: 1, Dst: 3, Weight: 1}
	e3 := graph.Edge{Src: 4, Dst: 1, Weight: 7}
	vd := ViewDelta{
		Adds:  []graph.Edge{e1, e1},
		Dels:  []graph.Edge{e2, e3, e3, e3},
		Moved: []graph.VertexID{5, 9},
		Grown: 3,
	}
	p := DeriveRefinePlan(vd)
	if len(p.Adds) != 2 || p.Adds[0] != e1 || p.Adds[1] != e1 {
		t.Fatalf("Adds = %v, want [%v %v]", p.Adds, e1, e1)
	}
	dels := p.Dels
	if len(dels) != 4 || dels[0] != e2 || dels[1] != e3 || dels[2] != e3 || dels[3] != e3 {
		t.Fatalf("Dels = %v, want [%v %v %v %v]", dels, e2, e3, e3, e3)
	}
	if p.OutDegDelta[1] != 1 || p.OutDegDelta[4] != -3 {
		t.Fatalf("OutDegDelta = %v, want {1:1, 4:-3}", p.OutDegDelta)
	}
	if len(p.Moved) != 2 || p.Moved[0] != 5 || p.Moved[1] != 9 {
		t.Fatalf("Moved = %v, want sorted [5 9]", p.Moved)
	}
	if p.Grown != 3 {
		t.Fatalf("Grown = %d, want 3", p.Grown)
	}
	// The plan's edge lists are the caller's to rewrite in place.
	p.Adds[0].Src = 7
	if vd.Adds[0] != e1 {
		t.Fatal("DeriveRefinePlan shares its edge lists with the delta")
	}
	if p.Empty() {
		t.Fatal("plan with changes reports Empty")
	}
}

func TestDeriveRefinePlanKeepsNetZeroDegreeSources(t *testing.T) {
	// A source whose insertions and deletions balance must still appear in
	// OutDegDelta (zero entry): its edge set changed even though its degree
	// did not, and PageRank's contribution sweep keys off that map.
	a := graph.Edge{Src: 2, Dst: 5, Weight: 1}
	b := graph.Edge{Src: 2, Dst: 6, Weight: 1}
	p := DeriveRefinePlan(ViewDelta{Adds: []graph.Edge{a}, Dels: []graph.Edge{b}})
	if dd, ok := p.OutDegDelta[2]; !ok || dd != 0 {
		t.Fatalf("OutDegDelta[2] = %d (present=%v), want 0 present", dd, ok)
	}
	if p.Touched() != 3 {
		t.Fatalf("Touched = %d, want 3 (vertices 2, 5, 6)", p.Touched())
	}
}

func TestDeriveRefinePlanEmpty(t *testing.T) {
	if p := DeriveRefinePlan(ViewDelta{}); !p.Empty() {
		t.Fatalf("empty delta yields non-empty plan: %+v", p)
	}
	// PlacementChanged alone (pure renumbering) is a no-op for results: they
	// live in original-ID space.
	if p := DeriveRefinePlan(ViewDelta{PlacementChanged: true}); !p.Empty() {
		t.Fatalf("placement-only delta yields non-empty plan: %+v", p)
	}
}
