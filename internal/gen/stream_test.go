package gen

import (
	"testing"

	"repro/internal/graph"
)

// replayable checks that every deletion targets a live edge when replayed in
// order, and returns the final live edge count.
func replayable(t *testing.T, g *graph.Graph, updates []graph.EdgeUpdate) int64 {
	t.Helper()
	type key struct{ s, d graph.VertexID }
	count := make(map[key]int64)
	live := g.NumEdges()
	for _, e := range g.Edges() {
		count[key{e.Src, e.Dst}]++
	}
	for i, u := range updates {
		k := key{u.Src, u.Dst}
		if u.Del {
			if count[k] <= 0 {
				t.Fatalf("update %d deletes non-live edge (%d,%d)", i, u.Src, u.Dst)
			}
			count[k]--
			live--
		} else {
			count[k]++
			live++
		}
	}
	return live
}

func TestEdgeStreamValidAndDeterministic(t *testing.T) {
	g, err := ErdosRenyi(500, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{Ops: 4000, DeleteFrac: 0.35, PreferentialFrac: 0.6, Seed: 17}
	a, err := EdgeStream(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != cfg.Ops {
		t.Fatalf("got %d updates, want %d", len(a), cfg.Ops)
	}
	replayable(t, g, a)

	b, err := EdgeStream(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream not deterministic at update %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, err := EdgeStream(g, StreamConfig{Ops: cfg.Ops, DeleteFrac: cfg.DeleteFrac, PreferentialFrac: cfg.PreferentialFrac, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestEdgeStreamTimestampsAndMix(t *testing.T) {
	g, err := ErdosRenyi(200, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	updates, err := EdgeStream(g, StreamConfig{Ops: 5000, DeleteFrac: 0.3, PreferentialFrac: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var dels int
	for i, u := range updates {
		if u.Time != int64(i) {
			t.Fatalf("update %d has time %d", i, u.Time)
		}
		if u.Del {
			dels++
		}
	}
	frac := float64(dels) / float64(len(updates))
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("deletion fraction %.3f far from configured 0.3", frac)
	}
}

func TestEdgeStreamWeights(t *testing.T) {
	g, err := ErdosRenyi(50, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	updates, err := EdgeStream(g, StreamConfig{Ops: 500, Weighted: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range updates {
		if u.Del {
			continue
		}
		if u.Weight < 1 || u.Weight > 100 {
			t.Fatalf("update %d has weight %d outside [1,100]", i, u.Weight)
		}
	}
}

func TestEdgeStreamValidatesConfig(t *testing.T) {
	g, err := ErdosRenyi(10, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EdgeStream(g, StreamConfig{Ops: -1}); err == nil {
		t.Error("expected error for negative ops")
	}
	if _, err := EdgeStream(g, StreamConfig{Ops: 1, DeleteFrac: 1}); err == nil {
		t.Error("expected error for DeleteFrac = 1")
	}
	if _, err := EdgeStream(g, StreamConfig{Ops: 1, PreferentialFrac: 1.5}); err == nil {
		t.Error("expected error for PreferentialFrac > 1")
	}
}

func TestStreamFromRecipe(t *testing.T) {
	for _, name := range []string{"powerlaw", "usaroad", "twitter"} {
		g, updates, err := StreamFromRecipe(name, 0.05, 2000, 42, RecipeStreamOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(updates) != 2000 {
			t.Fatalf("%s: got %d updates", name, len(updates))
		}
		replayable(t, g, updates)
		for i, u := range updates {
			if !u.Del && !g.Weighted() && u.Weight != 1 {
				t.Fatalf("%s: unweighted recipe produced weight %d at update %d", name, u.Weight, i)
			}
		}
	}
	if _, _, err := StreamFromRecipe("nope", 1, 10, 1, RecipeStreamOptions{}); err == nil {
		t.Error("expected error for unknown recipe")
	}
}

// TestRecipesHaveChurnProfile: a recipe added without a churn profile would
// stream with no deletions and uniform attachment.
func TestRecipesHaveChurnProfile(t *testing.T) {
	for _, r := range Recipes() {
		if r.deleteFrac <= 0 || r.deleteFrac >= 1 || r.preferentialFrac <= 0 || r.preferentialFrac > 1 {
			t.Errorf("%s: churn profile deleteFrac=%v preferentialFrac=%v", r.Name, r.deleteFrac, r.preferentialFrac)
		}
	}
}

// TestEdgeStreamGrowth checks the vertex-arrival knob: new endpoints appear
// densely (n, n+1, … with no gaps), every deletion still targets a live
// edge, arrivals scale with GrowFrac, and a zero knob leaves the stream
// byte-identical to the pre-growth generator.
func TestEdgeStreamGrowth(t *testing.T) {
	g, err := ErdosRenyi(300, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{Ops: 5000, DeleteFrac: 0.3, PreferentialFrac: 0.5, GrowFrac: 0.04, Seed: 21}
	updates, err := EdgeStream(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayable(t, g, updates)
	next := graph.VertexID(g.NumVertices())
	arrivals := 0
	for i, u := range updates {
		mx := u.Src
		if u.Dst > mx {
			mx = u.Dst
		}
		if mx >= next {
			if u.Del {
				t.Fatalf("update %d: deletion mentions unseen vertex %d", i, mx)
			}
			if mx != next {
				t.Fatalf("update %d: arrival skipped IDs (%d, expected %d)", i, mx, next)
			}
			if u.Src >= next && u.Dst >= next {
				t.Fatalf("update %d: arrival not anchored to an existing vertex", i)
			}
			next++
			arrivals++
		}
	}
	if arrivals == 0 {
		t.Fatal("GrowFrac produced no arrivals")
	}
	// Arrival rate ≈ GrowFrac × insert rate; allow wide slack.
	inserts := 0
	for _, u := range updates {
		if !u.Del {
			inserts++
		}
	}
	want := cfg.GrowFrac * float64(inserts)
	if float64(arrivals) < want/2 || float64(arrivals) > want*2 {
		t.Fatalf("arrivals=%d, expected about %.0f", arrivals, want)
	}

	// GrowFrac: 0 must not perturb the generator's random sequence.
	base := cfg
	base.GrowFrac = 0
	a, err := EdgeStream(g, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EdgeStream(g, StreamConfig{Ops: cfg.Ops, DeleteFrac: cfg.DeleteFrac, PreferentialFrac: cfg.PreferentialFrac, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("GrowFrac=0 changed the stream at %d", i)
		}
	}

	// Config validation.
	if _, err := EdgeStream(g, StreamConfig{Ops: 1, GrowFrac: 1.5}); err == nil {
		t.Error("expected range error for GrowFrac")
	}
}
