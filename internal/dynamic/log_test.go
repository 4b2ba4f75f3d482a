package dynamic

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// frozenCapture pairs a capture with FromEdges over the reference
// multiset at its epoch, and records the ordering and renumbering epoch
// in force when it was taken.
type frozenCapture struct {
	f     Frozen
	snap  *graph.Graph
	ord   *core.Result
	renum int64
}

// capture freezes d, whose live multiset snap is.
func capture(d *Graph, snap *graph.Graph) frozenCapture {
	return frozenCapture{d.Freeze(), snap, d.Ordering(), d.renumEpoch}
}

// HasEdge reports whether at least one live (s,dst) edge exists, from the
// writer's own bookkeeping: a surviving pending insertion of the pair, or
// an uncancelled position in its base run. Tests hold it against snapshots.
func (d *Graph) HasEdge(s, dst graph.VertexID) bool {
	if _, ok := d.addAlive[keyOf(s, dst)]; ok {
		return true
	}
	lo, ws := d.baseRun(s, dst)
	for j := range ws {
		if !d.isCancelled(lo + int64(j)) {
			return true
		}
	}
	return false
}

// checkSince requires Since to bridge every ordered capture pair of one
// generation — the netted lists are sorted, share no edge, and patch the
// earlier snapshot into exactly the later one — and to refuse pairs a
// compaction apart. Each bridged pair's slot-space delta must hold too
// (checkChange). It returns how many pairs fell on each side.
func checkSince(t *testing.T, caps []frozenCapture) (bridged, refused int) {
	t.Helper()
	slotted := make([]*graph.Graph, len(caps))
	for i, c := range caps {
		g, err := core.Apply(c.snap, c.ord)
		if err != nil {
			t.Fatal(err)
		}
		slotted[i] = g
	}
	for i, b := range caps {
		for j, c := range caps[i:] {
			adds, dels, ok := c.f.Since(b.f)
			if _, okE := c.f.EntriesSince(b.f); okE != ok {
				t.Fatalf("epochs %d→%d: EntriesSince ok=%v, Since ok=%v", b.f.epoch, c.f.epoch, okE, ok)
			}
			if c.f.base != b.f.base {
				if ok {
					t.Fatalf("epochs %d→%d: Since bridged a compaction", b.f.epoch, c.f.epoch)
				}
				refused++
				continue
			}
			if !ok {
				t.Fatalf("epochs %d→%d: Since refused a pair of one generation", b.f.epoch, c.f.epoch)
			}
			if !slices.IsSortedFunc(adds, graph.CompareEdges) || !slices.IsSortedFunc(dels, graph.CompareEdges) {
				t.Fatalf("epochs %d→%d: netted lists are not sorted", b.f.epoch, c.f.epoch)
			}
			for _, e := range adds {
				if _, found := slices.BinarySearchFunc(dels, e, graph.CompareEdges); found {
					t.Fatalf("epochs %d→%d: %v both added and deleted", b.f.epoch, c.f.epoch, e)
				}
			}
			got, _, err := b.snap.Patch(c.f.n, graph.Delta{Adds: adds, Dels: dels})
			if err != nil {
				t.Fatalf("epochs %d→%d: patching with Since: %v", b.f.epoch, c.f.epoch, err)
			}
			if !graph.Equal(got, c.snap) {
				t.Fatalf("epochs %d→%d: snapshot patched with Since differs from the later snapshot", b.f.epoch, c.f.epoch)
			}
			checkChange(t, b, c, slotted[i], slotted[i+j])
			bridged++
		}
	}
	return bridged, refused
}

// checkChange holds ChangeSince from capture b's slot graph bg to capture c
// under c's ordering against a recompute from the two permutations: Broken
// when the renumbering epochs differ; Grown the slots of the vertices past
// b's permutation; within a lineage, Moved the sorted basis slots whose
// vertex changed slot, and Seg nil when there are none, else mapping each
// occupied basis slot to its vertex's slot, a hole to NoVertex when a basis
// vertex now sits there and to itself when none does; across a break, Seg
// maps every occupied basis slot the same way and every hole to NoVertex.
// The delta must patch bg into cg, c's oracle relabeled by its ordering.
func checkChange(t *testing.T, b, c frozenCapture, bg, cg *graph.Graph) {
	t.Helper()
	bp, cp := b.ord.Perm, c.ord.Perm
	d, ok := c.f.ChangeSince(SlotGraph{G: bg, At: b.f, Perm: bp, Renum: b.renum}, cp, c.renum)
	if !ok {
		t.Fatalf("epochs %d→%d: ChangeSince refused a pair of one generation", b.f.epoch, c.f.epoch)
	}
	broken := b.renum != c.renum
	var moved, seg []graph.VertexID
	if !broken {
		for w, s := range bp {
			if cp[w] != s {
				moved = append(moved, s)
			}
		}
		slices.Sort(moved)
	}
	if broken || len(moved) > 0 {
		seg = make([]graph.VertexID, bg.NumVertices())
		for s := range seg {
			seg[s] = graph.NoVertex
			if !broken && !slices.Contains(bp, graph.VertexID(s)) && !slices.Contains(cp[:len(bp)], graph.VertexID(s)) {
				seg[s] = graph.VertexID(s)
			}
		}
		for w, s := range bp {
			seg[s] = cp[w]
		}
	}
	what := func(field string) {
		t.Helper()
		t.Fatalf("epochs %d→%d (renum %d→%d): ChangeSince %s differs from the recompute\n got %+v", b.f.epoch, c.f.epoch, b.renum, c.renum, field, d)
	}
	switch {
	case d.Broken != broken:
		what("Broken")
	case !slices.Equal(d.Moved, moved):
		what("Moved")
	case (d.Seg == nil) != (seg == nil) || !slices.Equal(d.Seg, seg):
		what("Seg")
	case !slices.Equal(d.Grown, cp[len(bp):]):
		what("Grown")
	}
	got, _, err := bg.Patch(cg.NumVertices(), d)
	if err != nil {
		t.Fatalf("epochs %d→%d: patching with ChangeSince: %v", b.f.epoch, c.f.epoch, err)
	}
	if !graph.Equal(got, cg) {
		t.Fatalf("epochs %d→%d: slot graph patched with ChangeSince differs from the later oracle relabeled", b.f.epoch, c.f.epoch)
	}
}

// TestFrozenStaysPinned freezes a weighted multigraph at several epochs and
// keeps mutating it — selector deletes hitting both pending insertions and
// base edges, growth, and compactions, automatic and direct — then requires
// every earlier capture's Snapshot to still equal FromEdges over the
// reference multiset at its epoch, and each capture's slot graph, derived
// from its base when taken, to equal that multiset relabeled by the live
// ordering. Across the captures, Since must bridge every pair of one
// generation and refuse the rest (checkSince). Slot graphs of an older
// generation, registered after the direct compaction, must leave the new
// base in the registry, so the next derivation still starts from it.
func TestFrozenStaysPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	var live []graph.Edge
	for i := 0; i < 300; i++ {
		e := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: int32(1 + rng.Intn(3))}
		live = append(live, e)
		if i%10 == 0 {
			// Parallel edges, same and different weights.
			live = append(live, e, graph.Edge{Src: e.Src, Dst: e.Dst, Weight: 1 + e.Weight%3})
		}
	}
	g, err := graph.FromEdges(n, live, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 4, CompactEvery: 150})
	if err != nil {
		t.Fatal(err)
	}
	var caps []frozenCapture
	checkAll := func(when string) {
		t.Helper()
		for _, c := range caps {
			if !graph.Equal(c.f.Snapshot(), c.snap) {
				t.Fatalf("%s: capture of epoch %d no longer builds its snapshot", when, c.f.Epoch())
			}
		}
	}
	const compactAt = 20
	var recent []graph.Edge
	var early *SlotGraph
	for batch := 0; batch < 40; batch++ {
		if batch%7 == 3 {
			d.Grow(2)
			n += 2
		}
		var ups []graph.EdgeUpdate
		for i := 0; i < 25; i++ {
			r := rng.Intn(10)
			if batch == compactAt+1 {
				r = 9 // deletions only: a capture of cancellations alone
			}
			switch {
			case r < 4 && len(recent) > 0:
				// Parallel copy of a recent insertion, likely still pending.
				e := recent[rng.Intn(len(recent))]
				live = append(live, e)
				recent = append(recent, e)
				ups = append(ups, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
			case r < 7:
				e := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: int32(1 + rng.Intn(3))}
				live = append(live, e)
				recent = append(recent, e)
				ups = append(ups, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
			default:
				// Selector delete of any live edge: base or pending.
				j := rng.Intn(len(live))
				e := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				ups = append(ups, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Del: true})
			}
		}
		if _, err := d.ApplyBatch(ups); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if batch == compactAt-3 {
			early = liveSlotGraph(d)
		}
		if batch == compactAt {
			// One stale offer is older than the compaction, one captured at
			// its epoch.
			tie := liveSlotGraph(d)
			d.Compact()
			d.Register(early)
			d.Register(tie)
			if d.Latest() != d.base {
				t.Fatal("a slot graph of an older generation displaced the new base in the registry")
			}
			want, err := graph.FromEdges(n, live, true)
			if err != nil {
				t.Fatal(err)
			}
			checkDerived(t, d, want)
			checkAll("after direct compaction")
		}
		if batch%3 == 0 {
			want, err := graph.FromEdges(n, live, true)
			if err != nil {
				t.Fatal(err)
			}
			if !graph.Equal(d.Snapshot(), want) {
				t.Fatalf("batch %d: snapshot differs from FromEdges over the live multiset", batch)
			}
			checkDerived(t, d, want)
			caps = append(caps, capture(d, want))
		}
		checkAll("after batch")
	}
	if d.Stats().Compactions < 3 {
		t.Fatalf("only %d compactions; the test must cross several", d.Stats().Compactions)
	}
	if bridged, refused := checkSince(t, caps); bridged == 0 || refused == 0 {
		t.Fatalf("Since checked on %d bridged and %d refused pairs; the test must cover both", bridged, refused)
	}
}

// checkDerived requires the slot graph a compaction would derive now to
// equal want, the live multiset in original IDs, relabeled by the live
// ordering.
func checkDerived(t *testing.T, d *Graph, want *graph.Graph) {
	t.Helper()
	rel, err := core.Apply(want, d.Ordering())
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := d.deriveBase(); !graph.Equal(g, rel) {
		t.Fatalf("epoch %d: slot graph derived from the base differs from the relabeled live graph", d.epoch)
	}
}

// liveSlotGraph returns the live graph in the live ordering's slot space as
// a reader would register it.
func liveSlotGraph(d *Graph) *SlotGraph {
	g, _ := d.deriveBase()
	return &SlotGraph{G: g, At: d.Freeze(), Perm: d.ordPerm[:d.n:d.n], Renum: d.renumEpoch}
}

var frozenSink Frozen

// TestFreezeAllocFree pins Freeze at O(1): with a pending log of more than
// 10k entries it allocates nothing.
func TestFreezeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 2000
	var edges []graph.Edge
	for i := 0; i < 8000; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: 1})
	}
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 8, CompactEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var ups []graph.EdgeUpdate
	for i := 0; i < 12000; i++ {
		ups = append(ups, graph.EdgeUpdate{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n))})
	}
	for _, e := range edges[:2000] {
		ups = append(ups, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Del: true})
	}
	applyStream(t, d, ups, 1024)
	if d.PendingOps() < 10_000 {
		t.Fatalf("pending log holds %d entries, want ≥ 10k", d.PendingOps())
	}
	if a := testing.AllocsPerRun(100, func() { frozenSink = d.Freeze() }); a != 0 {
		t.Fatalf("Freeze allocates %v times per call", a)
	}
}
