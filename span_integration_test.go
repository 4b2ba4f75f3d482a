package vebo

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
)

// applyStream pushes updates through ApplyBatch in fixed-size batches.
func applyStream(t *testing.T, d *Dynamic, updates []EdgeUpdate, batch int) {
	t.Helper()
	for lo := 0; lo < len(updates); lo += batch {
		hi := min(lo+batch, len(updates))
		if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuerySpansLinkToPublish is the causality acceptance check: every query
// span in the collector parent-links to the publish span of the epoch it
// read, and every publish span (after the first) parent-links to the ingest
// batch that produced its epoch.
func TestQuerySpansLinkToPublish(t *testing.T) {
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 512, 11, gen.RecipeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates, 128)

	v := d.View()
	if _, err := v.BFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PageRank(GraphGrind, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.RefineBFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}

	byID := make(map[obs.SpanID]obs.Span)
	var queries, publishes, batches int
	for _, sp := range d.Spans().Snapshot() {
		byID[sp.ID] = sp
		switch sp.Kind {
		case "query":
			queries++
		case "publish":
			publishes++
		case "ingest":
			batches++
		}
	}
	if queries < 3 || publishes == 0 || batches == 0 {
		t.Fatalf("span mix too thin: %d queries, %d publishes, %d batches", queries, publishes, batches)
	}

	for _, sp := range byID {
		switch sp.Kind {
		case "query", "build":
			if sp.Parent == 0 {
				t.Fatalf("%s span %q has no parent link", sp.Kind, sp.Name)
			}
			parent, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("%s span %q parent %d not retained", sp.Kind, sp.Name, sp.Parent)
			}
			if parent.Kind != "publish" {
				t.Errorf("%s span %q parents a %q span, want publish", sp.Kind, sp.Name, parent.Kind)
			}
			if parent.Epoch != sp.Epoch {
				t.Errorf("%s span %q epoch %d != publish epoch %d", sp.Kind, sp.Name, sp.Epoch, parent.Epoch)
			}
		case "publish":
			// All but the initial epoch-0 publish chain back to a batch.
			if sp.Parent == 0 {
				if sp.Epoch != 0 {
					t.Errorf("publish of epoch %d has no batch parent", sp.Epoch)
				}
				continue
			}
			parent, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("publish span parent %d not retained", sp.Parent)
			}
			if parent.Kind != "ingest" {
				t.Errorf("publish parents a %q span, want ingest", parent.Kind)
			}
		case "maintain":
			if sp.Parent == 0 {
				t.Errorf("maintain span %q (cause %q) has no batch parent", sp.Name, sp.Cause)
			}
		}
	}
}

// TestSpanBuildQueryVocabulary checks that every graph/engine construction
// cause and every refine answer path of the DESIGN.md §6 vocabulary is filed
// as a span, that a derivation's span names why it derived (its cause
// label: a query, a scratch refine path, or a dense step through the
// overlay) and a refinement through the overlay its overlay_rows, and that
// publish spans carry their lineage attributes. The
// scratch relabel (graph/reorder-build) is the DisableViewReuse ablation's,
// so a second graph without reuse files it. The maintenance causes are
// pinned in internal/dynamic's span tests.
func TestSpanBuildQueryVocabulary(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.03, 3000, 23)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 32, Engine: viewTestOpts})
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 0 derives its relabeled graph from the compaction base, builds
	// its engines and seeds a refine capture, which a second identical
	// query then answers from cache.
	query := func(v *View) {
		t.Helper()
		v.Snapshot()
		for _, sys := range []System{Ligra, GraphGrind} {
			if _, err := v.BFS(sys, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := v.RefineBFS(Ligra, 0); err != nil {
			t.Fatal(err)
		}
	}
	query(d.View())
	if _, _, err := d.View().RefineBFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}
	// A small batch: the next view patches its relabeled graph and engines and
	// refines from the capture.
	applyStream(t, d, updates[:64], 64)
	query(d.View())
	// Batches refined before anything derives: the queries read rows
	// through the views' overlays, until the larger batch's first dense
	// step derives.
	for _, b := range [][2]int{{64, 96}, {96, 296}} {
		applyStream(t, d, updates[b[0]:b[1]], b[1]-b[0])
		if _, _, err := d.View().RefineBFS(Ligra, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.View().RefineCC(Ligra); err != nil {
			t.Fatal(err)
		}
	}
	// A huge batch: refinement falls back to scratch.
	applyStream(t, d, updates[296:], len(updates))
	if _, _, err := d.View().RefineBFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}

	ds, err := NewDynamic(g, DynamicOptions{Partitions: 32, Engine: viewTestOpts, DisableViewReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.View().Reordered(); err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]bool)
	for _, sp := range append(d.Spans().Snapshot(), ds.Spans().Snapshot()...) {
		seen[sp.Name+"/"+sp.Cause] = true
		if why, ok := sp.Labels["cause"]; ok {
			seen[sp.Name+"/"+sp.Cause+"/"+why] = true
		}
		if _, ok := sp.Attrs["overlay_rows"]; ok {
			seen[sp.Name+"/"+sp.Cause+"/overlay_rows"] = true
		}
		if sp.Kind == "publish" {
			if _, ok := sp.Attrs["renum_epoch"]; !ok {
				t.Fatalf("publish span of epoch %d lacks renum_epoch: %+v", sp.Epoch, sp.Attrs)
			}
		}
	}
	for _, want := range []string{
		"graph/snapshot-build", "graph/reorder-build", "graph/reorder-patch",
		"engine/build", "engine/patch",
		"query:bfs/full",
		"query:refine-bfs/" + RefineScratchSeed, "query:refine-bfs/" + RefineCached,
		"query:refine-bfs/" + RefineRefined, "query:refine-bfs/" + RefineScratchFallback,
		"graph/reorder-patch/" + deriveQuery, "graph/reorder-patch/" + deriveCold,
		"graph/reorder-patch/" + deriveDenseStep, "graph/reorder-build/" + deriveQuery,
		"query:refine-bfs/" + RefineRefined + "/overlay_rows",
	} {
		if !seen[want] {
			t.Errorf("no %s span filed", want)
		}
	}
}

// TestGraphSpansReportFolds pins the fold attributes of the graph
// derivation spans: every reorder-patch span carries fold and
// written_edges, each span that folded is counted by cause in
// vebo_graph_folds_total, and a stream whose epochs rewrite many rows
// folds at least once because of dead edges.
func TestGraphSpansReportFolds(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.03, 2000, 23)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 32})
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		t.Helper()
		v := d.View()
		v.Snapshot()
		if _, err := v.BFS(Ligra, 0); err != nil {
			t.Fatal(err)
		}
	}
	query()
	for lo := 0; lo < len(updates); lo += 250 {
		applyStream(t, d, updates[lo:lo+250], 250)
		query()
	}
	var spans, folds int64
	for _, sp := range d.Spans().Snapshot() {
		if sp.Name != "graph" || sp.Cause != "reorder-patch" {
			continue
		}
		fold, ok := sp.Attrs["fold"]
		if _, written := sp.Attrs["written_edges"]; !ok || !written {
			t.Fatalf("%s span of epoch %d lacks fold or written_edges: %+v", sp.Cause, sp.Epoch, sp.Attrs)
		}
		spans, folds = spans+1, folds+fold
	}
	dead := d.Metrics().Counter("vebo_graph_folds_total", "cause", "dead").Value()
	chunks := d.Metrics().Counter("vebo_graph_folds_total", "cause", "chunks").Value()
	if dead == 0 || dead+chunks != folds {
		t.Fatalf("%d of %d spans folded; vebo_graph_folds_total dead=%d chunks=%d", folds, spans, dead, chunks)
	}
}

// TestEpochAgeGrowsBetweenPublishes is the staleness regression test:
// vebo_epoch_age_ns samples grow monotonically while no new epoch is
// published, then drop once a fresh view supersedes the stale one.
func TestEpochAgeGrowsBetweenPublishes(t *testing.T) {
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 256, 13, gen.RecipeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates[:128], 128)

	ageH := d.Metrics().Histogram("vebo_epoch_age_ns")
	sample := func() int64 {
		prevSum, prevCount := ageH.Sum(), ageH.Count()
		if _, err := d.View().BFS(Ligra, 0); err != nil {
			t.Fatal(err)
		}
		if ageH.Count() != prevCount+1 {
			t.Fatalf("query did not observe epoch age: count %d -> %d", prevCount, ageH.Count())
		}
		return ageH.Sum() - prevSum
	}

	age1 := sample()
	time.Sleep(20 * time.Millisecond)
	age2 := sample()
	if age2 <= age1 {
		t.Fatalf("epoch age not monotonic against a stale view: %v then %v",
			time.Duration(age1), time.Duration(age2))
	}

	// A new publish resets the clock: the very next query reads a younger
	// view than the stale sample above.
	applyStream(t, d, updates[128:], 128)
	age3 := sample()
	if age3 >= age2 {
		t.Fatalf("epoch age did not drop after a fresh publish: %v then %v",
			time.Duration(age2), time.Duration(age3))
	}
	if d.Metrics().Histogram("vebo_publish_lag_ns").Count() == 0 {
		t.Fatal("vebo_publish_lag_ns never observed a publish")
	}
}

// TestSpansEndpoint serves /spans off the obs handler and checks the export
// is a loadable Chrome trace carrying the run's spans, and that the runtime
// sampler feeds go_* series into /metrics on scrape.
func TestSpansEndpoint(t *testing.T) {
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 256, 17, gen.RecipeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates, 128)
	if _, err := d.View().BFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(d.ObsHandler())
	defer srv.Close()

	trace := scrape(t, srv.URL, "/spans")
	for _, want := range []string{`"traceEvents"`, `"recordedSpans"`, `"publish"`, `"query:bfs"`, `"thread_name"`} {
		if !strings.Contains(trace, want) {
			t.Fatalf("/spans export missing %s:\n%.2000s", want, trace)
		}
	}

	metrics := scrape(t, srv.URL, "/metrics")
	for _, name := range []string{"go_goroutines ", "go_heap_alloc_bytes ", "vebo_epoch_age_ns_count", "vebo_publish_lag_ns_count", "vebo_delta_backlog "} {
		if !strings.Contains(metrics, name) {
			t.Fatalf("/metrics scrape missing %q", name)
		}
	}
	if metricValue(t, metrics, "go_goroutines") <= 0 {
		t.Fatal("go_goroutines not sampled on scrape")
	}
}

// TestIngestBatchParentsGrowthSpans checks that IngestBatch admits inside
// its batch: every grow and spill span an IngestBatch call files is a child
// of that call's batch span. A vertex-heavy stream makes it spill both
// ways (slotting the ordering on the first admission, then re-laying
// exhausted headroom).
func TestIngestBatchParentsGrowthSpans(t *testing.T) {
	g, updates, err := GenerateStreamOpts("powerlaw", 0.02, 1500, 19, StreamOptions{GrowFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	ext := external(updates)
	causes := make(map[string]int)
	var seen obs.SpanID // the largest span ID of earlier calls
	for lo := 0; lo < len(ext); lo += 64 {
		if _, err := d.IngestBatch(ext[lo:min(lo+64, len(ext))]); err != nil {
			t.Fatal(err)
		}
		var batch obs.SpanID
		var growth []obs.Span
		last := seen
		for _, sp := range d.Spans().Snapshot() {
			last = max(last, sp.ID)
			if sp.ID <= seen {
				continue
			}
			switch sp.Name {
			case "batch":
				batch = sp.ID
			case "grow", "spill":
				growth = append(growth, sp)
			}
		}
		if batch == 0 {
			t.Fatalf("IngestBatch at update %d filed no batch span", lo)
		}
		for _, sp := range growth {
			if sp.Parent != batch {
				t.Fatalf("%s span (cause %q) parents span %d, want its batch span %d", sp.Name, sp.Cause, sp.Parent, batch)
			}
			causes[sp.Name+"/"+sp.Cause]++
		}
		seen = last
	}
	for _, c := range []string{"grow/growth-headroom", "grow/growth-spill", "spill/first-growth", "spill/headroom-exhausted"} {
		if causes[c] == 0 {
			t.Errorf("no %s span; filed: %v", c, causes)
		}
	}
}
