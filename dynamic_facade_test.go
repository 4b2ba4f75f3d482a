package vebo

import (
	"testing"

	"repro/internal/graph"
)

// TestDynamicFacadePipeline exercises the streaming facade end to end:
// generate a recipe graph plus churn stream, apply it in batches, and check
// the tracked imbalance and snapshot bookkeeping.
func TestDynamicFacadePipeline(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.05, 5000, 21)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 32})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 500
	for lo := 0; lo < len(updates); lo += batch {
		hi := lo + batch
		if hi > len(updates) {
			hi = len(updates)
		}
		if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatalf("ApplyBatch(%d:%d): %v", lo, hi, err)
		}
	}
	edge, vert := d.Imbalance()
	if edge < 0 || vert < 0 {
		t.Fatalf("negative imbalance Δ=%d δ=%d", edge, vert)
	}
	r := d.Ordering()
	if r.EdgeImbalance() != edge || r.VertexImbalance() != vert {
		t.Fatalf("Ordering imbalances (%d,%d) disagree with Imbalance (%d,%d)",
			r.EdgeImbalance(), r.VertexImbalance(), edge, vert)
	}
	st := d.Stats()
	if st.Updates != int64(len(updates)) {
		t.Fatalf("stats recorded %d updates, want %d", st.Updates, len(updates))
	}
}

// TestNewDynamicRejectsEnginePartitioning: views take their partitions and
// bounds from the live ordering, so engine options setting either would be
// silently ignored; NewDynamic refuses them instead.
func TestNewDynamicRejectsEnginePartitioning(t *testing.T) {
	g, _, err := GenerateStream("powerlaw", 0.02, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []EngineOptions{
		{Partitions: 7},
		{Bounds: []int64{0, 1}},
		{Sockets: 2, ThreadsPerSocket: 2, Partitions: 7, Bounds: []int64{0, 1}},
	} {
		if _, err := NewDynamic(g, DynamicOptions{Partitions: 4, Engine: eng}); err == nil {
			t.Errorf("NewDynamic accepted Engine %+v", eng)
		}
	}
	if _, err := NewDynamic(g, DynamicOptions{Partitions: 4, Engine: viewTestOpts}); err != nil {
		t.Fatalf("topology-only engine options rejected: %v", err)
	}
}

// TestDynamicEnginesMatchFreshGraph is the acceptance check that all three
// engines produce identical algorithm results on a post-stream snapshot and
// on a freshly built equivalent graph.
func TestDynamicEnginesMatchFreshGraph(t *testing.T) {
	g, updates, err := GenerateStream("powerlaw", 0.04, 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := EngineOptions{Sockets: 2, ThreadsPerSocket: 2}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 32, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(updates); err != nil {
		t.Fatal(err)
	}

	snap := d.Snapshot()
	fresh, err := FromEdges(snap.NumVertices(), snap.Edges(), snap.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(snap, fresh) {
		t.Fatal("snapshot and freshly built graph differ structurally")
	}

	for _, sys := range []System{Ligra, Polymer, GraphGrind} {
		// The view's cached engine (reordered snapshot, live bounds).
		de, err := d.View().Engine(sys)
		if err != nil {
			t.Fatalf("%v: dynamic engine: %v", sys, err)
		}
		// The same construction over the freshly built graph.
		r := d.Ordering()
		rg, err := r.Apply(fresh)
		if err != nil {
			t.Fatal(err)
		}
		fopts := opts
		fopts.Partitions = 32
		fopts.Bounds = r.Boundaries()
		fe, err := NewEngine(sys, rg, fopts)
		if err != nil {
			t.Fatalf("%v: fresh engine: %v", sys, err)
		}

		// PageRank runs dense-only (the frontier is All every iteration), so
		// per-destination accumulation order — and hence the float output —
		// is deterministic for structurally equal graphs. CC converges to
		// the unique min-label fixpoint regardless of update order.
		dr := PageRank(de, 5)
		fr := PageRank(fe, 5)
		for i := range dr {
			if dr[i] != fr[i] {
				t.Fatalf("%v: PageRank diverges at vertex %d: %v vs %v", sys, i, dr[i], fr[i])
			}
		}
		dc := CC(de)
		fc := CC(fe)
		for i := range dc {
			if dc[i] != fc[i] {
				t.Fatalf("%v: CC diverges at vertex %d: %d vs %d", sys, i, dc[i], fc[i])
			}
		}
	}
}
