package vebo

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// refineAnswer is one Refine* query's answer and how it was reached.
type refineAnswer struct {
	bfs  []int32
	cc   []uint32
	sssp []int64
	st   [3]RefineStats
}

// askRefine runs RefineBFS, RefineCC and RefineSSSP on Ligra, in order or
// reversed.
func askRefine(t *testing.T, v *View, root VertexID, reversed bool) refineAnswer {
	var a refineAnswer
	var err error
	queries := []func(){
		func() { a.bfs, a.st[0], err = v.RefineBFS(Ligra, root) },
		func() { a.cc, a.st[1], err = v.RefineCC(Ligra) },
		func() { a.sssp, a.st[2], err = v.RefineSSSP(Ligra, root) },
	}
	if reversed {
		slices.Reverse(queries)
	}
	for _, q := range queries {
		if q(); err != nil {
			t.Error(err)
		}
	}
	return a
}

// TestOverlayMatchesDerivedChain pins the contract the refine overlay
// keeps. Two dynamic graphs replay one growing stream; every epoch, two
// reader goroutines on each view answer Ligra RefineBFS, RefineCC and
// RefineSSSP, and the second graph's view derives its graph first
// (Reordered), so only the first reads rows through overlays. Epoch by
// epoch the answers must be equal, and so must Path, SeedEpoch,
// ResetVertices and FrontierVertices of the queries that were not served
// from a cache. The first graph must derive at most once per overlayEpochs
// epochs plus once per dense step or scratch path, which its graph spans
// name as their cause; the second derives every epoch.
func TestOverlayMatchesDerivedChain(t *testing.T) {
	const batch, epochs = 48, 60
	g, updates, err := GenerateStreamOpts("powerlaw", 0.03, batch*epochs, 7, StreamOptions{GrowFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	opts := DynamicOptions{Partitions: 32, Engine: viewTestOpts, SpanCapacity: 64 * epochs}
	over, err := NewDynamic(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := NewDynamic(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ext := external(updates)
	root := VertexID(0)
	for v := range VertexID(g.NumVertices()) {
		if g.OutDegree(v) > g.OutDegree(root) {
			root = v
		}
	}
	// answers returns the two readers' answers on d's view.
	answers := func(d *Dynamic, derive bool) [2]refineAnswer {
		v := d.View()
		if derive {
			if _, err := v.Reordered(); err != nil {
				t.Fatal(err)
			}
		}
		var as [2]refineAnswer
		var wg sync.WaitGroup
		for r := range as {
			wg.Add(1)
			go func() {
				defer wg.Done()
				as[r] = askRefine(t, v, root, r == 1)
			}()
		}
		wg.Wait()
		return as
	}
	// computed returns the stats of query q of the readers that computed
	// it rather than read a cached capture.
	computed := func(as [2]refineAnswer, q int) []RefineStats {
		var sts []RefineStats
		for _, a := range as {
			if a.st[q].Path != RefineCached {
				sts = append(sts, a.st[q])
			}
		}
		return sts
	}
	for k := 0; ; k++ {
		ao, ad := answers(over, false), answers(derived, true)
		for _, a := range append(ao[:], ad[:]...) {
			if !slices.Equal(a.bfs, ad[0].bfs) || !slices.Equal(a.cc, ad[0].cc) || !slices.Equal(a.sssp, ad[0].sssp) {
				t.Fatalf("epoch %d: answers differ between readers or graphs", k)
			}
		}
		for q := range 3 {
			so, sd := computed(ao, q), computed(ad, q)
			if len(so) == 0 || len(sd) == 0 {
				t.Fatalf("epoch %d: query %d computed by no reader", k, q)
			}
			for _, st := range append(so, sd...) {
				if st != sd[0] {
					t.Fatalf("epoch %d: query %d stats %+v through the overlay, %+v derived", k, q, st, sd[0])
				}
			}
		}
		if k == epochs {
			break
		}
		for _, d := range []*Dynamic{over, derived} {
			if _, err := d.IngestBatch(ext[k*batch : (k+1)*batch]); err != nil {
				t.Fatal(err)
			}
		}
	}

	causes := map[string]int64{}
	var overlaid int
	for _, sp := range over.Spans().Snapshot() {
		if sp.Name == "graph" && sp.Cause == "reorder-patch" {
			causes[sp.Labels["cause"]]++
		}
		if _, ok := sp.Attrs["overlay_rows"]; ok {
			overlaid++
		}
	}
	patches := over.ViewWork().GraphPatches
	if n := causes[deriveBound] + causes[deriveDenseStep] + causes[deriveCold]; n != patches {
		t.Errorf("%d derivations, %d graph spans with cause bound, dense-step or cold (%v)", patches, n, causes)
	}
	if limit := int64(epochs/(overlayEpochs-1) + 1); causes[deriveBound] > limit {
		t.Errorf("%d derivations at the bound over %d epochs, want at most %d", causes[deriveBound], epochs, limit)
	}
	if overlaid == 0 || patches >= derived.ViewWork().GraphPatches {
		t.Errorf("%d queries answered through an overlay; %d derivations, %d without overlays",
			overlaid, patches, derived.ViewWork().GraphPatches)
	}
	if got := derived.ViewWork().GraphPatches; got != epochs+1 {
		t.Errorf("the deriving graph derived %d times over %d views", got, epochs+1)
	}
}

// TestOverlayEngineBindsDerivedGraph pins what a view's Ligra engine reads
// once the view derives: a refinement builds the engine over the view's
// overlay, and Engine derives the graph and returns that engine reading
// the derived graph. RefinePageRank, whose resume reads the whole graph,
// builds no overlay and derives with cause query.
func TestOverlayEngineBindsDerivedGraph(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.03, 144, 7, StreamOptions{GrowFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 32, Engine: viewTestOpts, SpanCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	ext := external(updates)
	next := func(k int) *View {
		if _, err := d.IngestBatch(ext[k*48 : (k+1)*48]); err != nil {
			t.Fatal(err)
		}
		return d.View()
	}
	// The first growth spills into a larger slot space, which derives.
	for k, v := range []*View{d.View(), next(0)} {
		if _, _, err := v.RefineBFS(Ligra, 0); err != nil {
			t.Fatal(k, err)
		}
		if _, _, err := v.RefinePageRank(Ligra, 0); err != nil {
			t.Fatal(k, err)
		}
	}

	v := next(1)
	if _, st, err := v.RefineBFS(Ligra, 0); err != nil || st.Path != RefineRefined {
		t.Fatalf("RefineBFS: %v, path %q", err, st.Path)
	}
	lazy, err := v.refineEngine(Ligra)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lazy.Rows().(*graph.Overlay); !ok {
		t.Fatalf("a refined view's Ligra engine reads %T, not its overlay", lazy.Rows())
	}
	e, err := v.Engine(Ligra)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := v.Reordered()
	if err != nil {
		t.Fatal(err)
	}
	if e != lazy || e.Rows() != graph.Rows(rg) {
		t.Errorf("Engine returned %p reading %T, want the overlay engine %p bound to the derived graph", e, e.Rows(), lazy)
	}

	if _, _, err := v.RefinePageRank(Ligra, 0); err != nil {
		t.Fatal(err)
	}

	v = next(2)
	if _, st, err := v.RefinePageRank(Ligra, 0); err != nil || st.Path != RefineRefined {
		t.Fatalf("RefinePageRank: %v, path %q", err, st.Path)
	}
	if v.ov.Load() != nil {
		t.Error("RefinePageRank built an overlay")
	}
	var last string
	for _, sp := range d.Spans().Snapshot() {
		if sp.Name == "graph" && sp.Cause == "reorder-patch" {
			last = sp.Labels["cause"]
		}
	}
	if last != deriveQuery {
		t.Errorf("RefinePageRank derived with cause %q, want %q", last, deriveQuery)
	}
}
