package dynamic

import (
	"testing"

	"repro/internal/graph"
)

func TestViewDeltaEmpty(t *testing.T) {
	if !(ViewDelta{}).Empty() {
		t.Fatal("zero delta reports non-empty")
	}
	// PlacementChanged alone (pure renumbering) is a no-op for results: they
	// live in original-ID space.
	if !(ViewDelta{PlacementChanged: true}).Empty() {
		t.Fatal("placement-only delta reports non-empty")
	}
	e := graph.Edge{Src: 1, Dst: 2, Weight: 1}
	for _, vd := range []ViewDelta{
		{Adds: []graph.Edge{e}},
		{Dels: []graph.Edge{e}},
		{Moved: []graph.VertexID{5}},
		{Grown: 1},
	} {
		if vd.Empty() {
			t.Fatalf("delta %+v reports empty", vd)
		}
	}
}

func TestViewDeltaTouched(t *testing.T) {
	// Source 2 gains one edge and loses another: its degree is unchanged but
	// both destinations count, and 2 counts once.
	a := graph.Edge{Src: 2, Dst: 5, Weight: 1}
	b := graph.Edge{Src: 2, Dst: 6, Weight: 1}
	if got := (ViewDelta{Adds: []graph.Edge{a}, Dels: []graph.Edge{b}}).Touched(); got != 3 {
		t.Fatalf("Touched = %d, want 3 (vertices 2, 5, 6)", got)
	}
	// Unrolled multiplicities and endpoints shared across the lists count
	// once; moved and admitted vertices do not count at all.
	e1 := graph.Edge{Src: 1, Dst: 2, Weight: 1}
	e3 := graph.Edge{Src: 4, Dst: 1, Weight: 7}
	vd := ViewDelta{
		Adds:  []graph.Edge{e1, e1},
		Dels:  []graph.Edge{e3, e3, e3},
		Moved: []graph.VertexID{5, 9},
		Grown: 3,
	}
	if got := vd.Touched(); got != 3 {
		t.Fatalf("Touched = %d, want 3 (vertices 1, 2, 4)", got)
	}
	if (ViewDelta{PlacementChanged: true, Moved: []graph.VertexID{7}}).Touched() != 0 {
		t.Fatal("delta without edge changes touches endpoints")
	}
}
