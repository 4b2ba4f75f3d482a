package dynamic

import (
	"sort"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// instrumented builds a dynamic graph with a live registry and span ring,
// the configuration every span regression below scrapes.
func instrumented(t *testing.T, g *graph.Graph, cfg Config) (*Graph, *obs.Registry, *obs.Spans) {
	t.Helper()
	reg := obs.NewRegistry()
	sp := obs.NewSpans(256)
	cfg.Metrics = reg
	cfg.Spans = sp
	d, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, reg, sp
}

// findSpan returns the last retained span named name (and carrying cause,
// when non-empty).
func findSpan(spans []obs.Span, name, cause string) *obs.Span {
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == name && (cause == "" || spans[i].Cause == cause) {
			return &spans[i]
		}
	}
	return nil
}

// epochStory returns the retained spans pinned to epoch in causal order
// (span IDs are assigned at start, so a parent precedes its children and
// maintenance steps appear in the order they ran).
func epochStory(sp *obs.Spans, epoch int64) []obs.Span {
	var story []obs.Span
	for _, s := range sp.Snapshot() {
		if s.Epoch == epoch {
			story = append(story, s)
		}
	}
	sort.Slice(story, func(i, j int) bool { return story[i].ID < story[j].ID })
	return story
}

// TestTraceThresholdTrip pins the first required cause annotation: a
// Δ(n)-gated repair must leave a "repair" span with cause "threshold-trip"
// carrying the before/after imbalances, so the epoch's story is readable
// from the span ring alone. Swaps are the whole repair: the batch files no
// follow-up "resort" span.
func TestTraceThresholdTrip(t *testing.T) {
	const D = 10
	g := hostileDegreeGraph(t)
	d, reg, sp := instrumented(t, g, Config{
		Partitions:             3,
		VertexRebuildThreshold: 1 << 40,
	})
	if got := d.EffectiveRebuildThreshold(); got != D {
		t.Fatalf("adaptive gate = %d, want %d", got, D)
	}
	// One coarse-class vertex of a partition X gains 2D in-edges, a gap of
	// 2D over the gate D; trading a D-degree vertex of X for a zero-degree
	// one of the least-loaded partition moves D and closes it. The D/2
	// class lives together on qmid, which takes one more edge so the
	// remaining partition is the unambiguous arg-min.
	qmid := int(d.PartitionOf(8))
	X := -1
	var target, qv graph.VertexID
	for v := graph.VertexID(0); v < 8; v++ {
		switch int(d.PartitionOf(v)) {
		case qmid:
			qv = v
		default:
			if X < 0 {
				X = int(d.PartitionOf(v))
			}
			if int(d.PartitionOf(v)) == X {
				target = v
			}
		}
	}
	var batch []graph.EdgeUpdate
	for i := 0; i < 2*D; i++ {
		batch = append(batch, graph.EdgeUpdate{Src: graph.VertexID(10 + i), Dst: target})
	}
	batch = append(batch, graph.EdgeUpdate{Src: 30, Dst: qv})
	res, err := d.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.Rebuilt {
		t.Fatalf("expected a pure repair batch, got %+v", res)
	}

	spans := sp.Snapshot()
	rep := findSpan(spans, "repair", "threshold-trip")
	if rep == nil {
		t.Fatalf("no repair/threshold-trip span: %+v", spans)
	}
	if rep.Epoch != d.Epoch() {
		t.Fatalf("repair span epoch %d, graph epoch %d", rep.Epoch, d.Epoch())
	}
	if rep.Attrs["delta_before"] <= rep.Attrs["threshold"] {
		t.Fatalf("repair span claims gate did not trip: %+v", rep.Attrs)
	}
	if rep.Attrs["delta_after"] >= rep.Attrs["delta_before"] {
		t.Fatalf("repair span shows no improvement: %+v", rep.Attrs)
	}
	if rep.Attrs["swaps"] == 0 || rep.Attrs["delta_after"] > rep.Attrs["threshold"] {
		t.Fatalf("repair should swap Δ(n) back under the gate: %+v", rep.Attrs)
	}
	if rep.Dur <= 0 {
		t.Fatalf("repair span missing wall-clock duration")
	}
	// The batch span closes the epoch and parents its maintenance.
	be := findSpan(spans, "batch", "")
	if be == nil || be.Attrs["repaired"] != 1 || be.Attrs["edge_imbalance"] != d.EdgeImbalance() {
		t.Fatalf("batch span missing or not marked repaired: %+v", be)
	}
	if rep.Parent != be.ID {
		t.Fatalf("repair span parent %d, want batch %d", rep.Parent, be.ID)
	}
	for _, s := range spans {
		if s.Name == "resort" {
			t.Fatalf("swapping batch filed a resort span: %+v", s)
		}
	}

	// Registry counters mirror the spans.
	if got := reg.Counter("vebo_repairs_total").Value(); got != 1 {
		t.Fatalf("vebo_repairs_total = %d", got)
	}
	if got, want := reg.Counter("vebo_swaps_total").Value(), rep.Attrs["swaps"]; got != want {
		t.Fatalf("vebo_swaps_total = %d, repair span swaps = %d", got, want)
	}
	if st := d.Stats(); st.Swaps != rep.Attrs["swaps"] || st.FullRebuilds != 0 {
		t.Fatalf("stats = %+v, want %d swaps and no rebuild", st, rep.Attrs["swaps"])
	}
}

// TestTraceRepairShortfall pins the second required cause annotation: when
// the pair search finds no improving swap, the repair leaves Δ(n) over its
// gate and the full rebuild must be annotated "repair-shortfall" — the span
// ring alone answers "why did epoch E rebuild instead of patch". Direct
// Rebuild and Compact calls, which run outside any batch, file parentless
// "forced" and "log-bound" spans.
func TestTraceRepairShortfall(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 1, Dst: 0, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	d, reg, sp := instrumented(t, g, Config{
		Partitions:             2,
		RebuildThreshold:       1,
		VertexRebuildThreshold: 1 << 40,
	})
	// Pile all new mass on vertex 0: every candidate transfer is 0 or the
	// whole gap, so no swap strictly improves.
	var batch []graph.EdgeUpdate
	for i := 0; i < 10; i++ {
		batch = append(batch, graph.EdgeUpdate{Src: graph.VertexID(1 + i%3), Dst: 0})
	}
	res, err := d.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Fatalf("scenario no longer forces a rebuild: %+v", res)
	}

	reb := findSpan(sp.Snapshot(), "rebuild", "")
	if reb == nil {
		t.Fatalf("no rebuild span: %+v", sp.Snapshot())
	}
	if reb.Cause != "repair-shortfall" {
		t.Fatalf("rebuild cause = %q, want repair-shortfall", reb.Cause)
	}
	// The full epoch story: the spans pinned to E, in ID order, alone
	// explain the rebuild — the batch, a gated repair that fell short, then
	// the rebuild naming the shortfall.
	story := epochStory(sp, reb.Epoch)
	if len(story) != 3 || story[0].Name != "batch" {
		t.Fatalf("epoch %d story = %+v, want batch, repair, rebuild", reb.Epoch, story)
	}
	rep := findSpan(story, "repair", "threshold-trip")
	if rep == nil || rep.Attrs["swaps"] != 0 || rep.Attrs["delta_after"] <= rep.Attrs["threshold"] {
		t.Fatalf("epoch %d story lacks a repair that fell short: %+v", reb.Epoch, story)
	}
	if rep.ID >= reb.ID {
		t.Fatalf("repair (span %d) not ordered before rebuild (span %d)", rep.ID, reb.ID)
	}
	if reb.Attrs["delta_after"] != d.EdgeImbalance() || reb.Attrs["vertex_after"] != d.VertexImbalance() {
		t.Fatalf("rebuild span attrs %+v disagree with the graph", reb.Attrs)
	}

	if got := reg.Counter("vebo_rebuilds_total", "cause", "repair-shortfall").Value(); got != 1 {
		t.Fatalf("vebo_rebuilds_total{cause=repair-shortfall} = %d", got)
	}

	pending := d.PendingOps()
	d.Rebuild()
	d.Compact()
	forced := findSpan(sp.Snapshot(), "rebuild", "forced")
	if forced == nil || forced.Parent != 0 || forced.Attrs["placements"] != int64(d.NumVertices()) {
		t.Fatalf("direct Rebuild filed %+v, want a parentless rebuild/forced span", forced)
	}
	if got := reg.Counter("vebo_rebuilds_total", "cause", "forced").Value(); got != 1 {
		t.Fatalf("vebo_rebuilds_total{cause=forced} = %d", got)
	}
	cs := findSpan(sp.Snapshot(), "compact", "log-bound")
	if cs == nil || cs.Parent != 0 || cs.Attrs["pending_ops"] != pending || cs.Attrs["base_edges"] != d.NumEdges() {
		t.Fatalf("direct Compact filed %+v, want compact/log-bound with pending_ops=%d base_edges=%d",
			cs, pending, d.NumEdges())
	}
}

// TestTraceRebuildCauses pins the remaining reachable batch rebuild cause: a
// δ(n) gate that a swap repair (which never changes vertex counts) cannot
// close is "vertex-threshold".
func TestTraceRebuildCauses(t *testing.T) {
	// Vertex 0 takes four in-edges, the other four vertices one each, so
	// VEBO places 0 alone against the rest: δ(n)=3 at Δ(n)=0.
	var star []graph.Edge
	for v := graph.VertexID(1); v <= 4; v++ {
		star = append(star, graph.Edge{Src: v, Dst: 0, Weight: 1}, graph.Edge{Src: 0, Dst: v, Weight: 1})
	}
	g, err := graph.FromEdges(5, star, false)
	if err != nil {
		t.Fatal(err)
	}
	d, reg, sp := instrumented(t, g, Config{
		Partitions: 2, RebuildThreshold: 1 << 40, VertexRebuildThreshold: 1,
	})
	res, err := d.ApplyBatch([]graph.EdgeUpdate{{Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Fatalf("scenario no longer forces a rebuild: %+v", res)
	}
	reb := findSpan(sp.Snapshot(), "rebuild", "")
	if reb == nil || reb.Cause != "vertex-threshold" {
		t.Fatalf("rebuild span = %+v, want cause vertex-threshold", reb)
	}
	if got := reg.Counter("vebo_rebuilds_total", "cause", "vertex-threshold").Value(); got != 1 {
		t.Fatalf("vebo_rebuilds_total{cause=vertex-threshold} = %d", got)
	}
}

// TestTraceGrowthSpill pins the third required cause annotation: admissions
// served entirely from reserved headroom slots are annotated
// "growth-headroom"; a batch forced through a relabeling epoch because every
// segment's headroom was exhausted is "growth-spill" and bumps
// vebo_headroom_spill_total.
func TestTraceGrowthSpill(t *testing.T) {
	g, err := graph.FromEdges(12, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
		{Src: 4, Dst: 5, Weight: 1}, {Src: 6, Dst: 7, Weight: 1},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	d, reg, sp := instrumented(t, g, Config{Partitions: 4})
	// Cache the compact ordering first, as a published view does, so the
	// first growth has to relabel it into slotted form.
	d.Ordering()
	if first := d.Grow(3); first != 12 {
		t.Fatalf("first admitted ID %d, want 12", first)
	}
	gs := findSpan(sp.Snapshot(), "grow", "")
	if gs == nil {
		t.Fatalf("no grow span: %+v", sp.Snapshot())
	}
	if gs.Cause != "growth-headroom" {
		t.Fatalf("grow cause = %q, want growth-headroom (attrs %+v)", gs.Cause, gs.Attrs)
	}
	if gs.Attrs["admitted"] != 3 || gs.Attrs["vertices"] != 15 || gs.Attrs["spills"] != 0 {
		t.Fatalf("grow span attrs = %+v", gs.Attrs)
	}
	free, capacity := d.Headroom()
	if capacity == 0 || gs.Attrs["headroom_free"] != free {
		t.Fatalf("Headroom() = (%d, %d), span free %d", free, capacity, gs.Attrs["headroom_free"])
	}
	// The conversion of a compact lineage to a slotted one is not a spill.
	if s := findSpan(sp.Snapshot(), "spill", ""); s == nil || s.Cause != "first-growth" {
		t.Fatalf("slotting spill span = %+v, want cause first-growth", s)
	}
	if got := reg.Counter("vebo_headroom_spill_total").Value(); got != 0 {
		t.Fatalf("vebo_headroom_spill_total = %d after headroom admissions", got)
	}
	// Per-partition slot gauges mirror the free headroom.
	var gaugeFree int64
	for p := 0; p < d.Partitions(); p++ {
		gaugeFree += reg.Gauge("vebo_headroom_slots", "partition", strconv.Itoa(p)).Value()
	}
	if gaugeFree != free {
		t.Fatalf("vebo_headroom_slots sum = %d, Headroom() free = %d", gaugeFree, free)
	}

	// Minimal headroom (one slot per partition, no proportional term) forces
	// an exhaustion spill mid-batch: two admissions fill the slots, the third
	// triggers a relabeling epoch.
	g2, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	d2, reg2, sp2 := instrumented(t, g2, Config{Partitions: 2, MinHeadroom: 1, HeadroomFrac: -1})
	d2.Grow(3)
	gs2 := findSpan(sp2.Snapshot(), "grow", "")
	if gs2 == nil || gs2.Cause != "growth-spill" {
		t.Fatalf("exhausted grow span = %+v, want growth-spill", gs2)
	}
	if gs2.Attrs["spills"] != 1 {
		t.Fatalf("spill grow span attrs = %+v", gs2.Attrs)
	}
	if s := findSpan(sp2.Snapshot(), "spill", "headroom-exhausted"); s == nil {
		t.Fatalf("no spill/headroom-exhausted span: %+v", sp2.Snapshot())
	}
	if got := reg2.Counter("vebo_headroom_spill_total").Value(); got != 1 {
		t.Fatalf("vebo_headroom_spill_total = %d, want 1", got)
	}
	if st := d2.Stats(); st.HeadroomSpills != 1 {
		t.Fatalf("Stats().HeadroomSpills = %d, want 1", st.HeadroomSpills)
	}
}

// TestTraceGaugesTrackState checks that the registry gauges published after
// every batch agree with the structure's own accessors.
func TestTraceGaugesTrackState(t *testing.T) {
	g := hostileDegreeGraph(t)
	d, reg, _ := instrumented(t, g, Config{Partitions: 3})
	if _, err := d.ApplyBatch([]graph.EdgeUpdate{
		{Src: 11, Dst: 0}, {Src: 12, Dst: 1}, {Src: 13, Dst: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Gauge("vebo_epoch").Value(), d.Epoch(); got != want {
		t.Fatalf("vebo_epoch = %d, want %d", got, want)
	}
	if got, want := reg.Gauge("vebo_vertices").Value(), int64(d.NumVertices()); got != want {
		t.Fatalf("vebo_vertices = %d, want %d", got, want)
	}
	if got, want := reg.Gauge("vebo_live_edges").Value(), d.NumEdges(); got != want {
		t.Fatalf("vebo_live_edges = %d, want %d", got, want)
	}
	if got, want := reg.Gauge("vebo_edge_imbalance").Value(), d.EdgeImbalance(); got != want {
		t.Fatalf("vebo_edge_imbalance = %d, want %d", got, want)
	}
}
