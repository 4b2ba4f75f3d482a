package bench

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/order"
	"repro/internal/partition"
)

// TestVariantPipeline pins the ordering → boundaries → COO-order rule every
// paper experiment relies on: each variant is g relabeled by its
// permutation; VEBO orders carry core.Reorder's boundaries and CSR order,
// every other order nil boundaries (Algorithm 1) and Hilbert order; and the
// partitions follow the boundaries when there are any.
func TestVariantPipeline(t *testing.T) {
	const p = 16
	g, err := buildRecipe(Config{Scale: 0.02, Seed: 7}, "livejournal")
	if err != nil {
		t.Fatal(err)
	}
	randPerm := order.Random(g, 11)
	vs, err := table3Variants(g, p)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := relabeled(g, "random", randPerm)
	if err != nil {
		t.Fatal(err)
	}
	rvv, err := veboAfter(rv, p)
	if err != nil {
		t.Fatal(err)
	}
	hl, err := relabeled(g, "high-to-low", order.DegreeSort(g))
	if err != nil {
		t.Fatal(err)
	}
	vs = append(vs, rv, rvv, hl)

	// The VEBO orders each variant should carry: of g, and of g's random
	// relabeling.
	r, err := core.Reorder(g, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rrv, err := core.Reorder(rv.g, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantPerm, err := order.Compose(randPerm, rrv.Perm)
	if err != nil {
		t.Fatal(err)
	}
	vebo := map[string]struct {
		perm   []graph.VertexID
		bounds []int64
	}{
		"vebo":        {r.Perm, r.Boundaries()},
		"random+vebo": {wantPerm, rrv.Boundaries()},
	}

	labels := map[string]bool{}
	for _, v := range vs {
		labels[v.label] = true
		if !graph.IsIsomorphicUnder(g, v.g, v.perm) {
			t.Errorf("%s: graph is not g relabeled by its permutation", v.label)
		}
		want, isVEBO := vebo[v.label]
		switch {
		case isVEBO && !reflect.DeepEqual(v.perm, want.perm):
			t.Errorf("%s: permutation differs from the composed VEBO order", v.label)
		case isVEBO && (!reflect.DeepEqual(v.bounds, want.bounds) || v.coo != layout.CSROrder):
			t.Errorf("%s: bounds %v, COO order %v; want core.Reorder's boundaries and CSR order", v.label, v.bounds, v.coo)
		case !isVEBO && (v.bounds != nil || v.coo != layout.HilbertOrder):
			t.Errorf("%s: bounds %v, COO order %v; want nil and Hilbert order", v.label, v.bounds, v.coo)
		}
		parts, err := v.partitions(p)
		if err != nil {
			t.Fatal(err)
		}
		wantParts, err := partition.ByDestination(v.g, p)
		if isVEBO {
			wantParts, err = partition.ByVertexRanges(v.g, want.bounds)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parts, wantParts) {
			t.Errorf("%s: partitions differ from ByVertexRanges (VEBO) / ByDestination (others)", v.label)
		}
	}
	for _, l := range []string{"orig", "rcm", "gorder", "vebo", "random", "random+vebo", "high-to-low"} {
		if !labels[l] {
			t.Errorf("no %s variant built", l)
		}
	}
}
