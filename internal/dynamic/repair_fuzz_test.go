package dynamic

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// FuzzSwapRepair decodes bytes into a partition count P ∈ [2,8], an
// unweighted multigraph of at most 64 vertices and a sequence of steps —
// insertion/deletion batches, Grow admissions and forced Rebuilds — all
// under the default maintenance config. After every step it holds the
// balance bookkeeping against a recount (in-degrees against a flat
// edge-list model, per-partition counts against PartitionOf and InDegree),
// the ordering against its contract (an injection in which every partition
// owns the occupied prefix of one contiguous segment), every earlier
// Ordering against the copy taken when it was published (the permutation
// and assignment are copy-on-write), and Stats against the spans: one
// repair, rebuild and compact span per counted event. After every step
// that renumbered (a rebuild, or a Grow that relabeled into fresh
// headroom) the ordering must equal numberOracle of the live state. After
// a batch that did not rebuild, Δ(n) and δ(n) must be within their gates.
// Every batch rebuild span must name why the swap repair fell short.
func FuzzSwapRepair(f *testing.F) {
	// Random seeds: with few vertices per partition, uniform churn trips the
	// gate often enough to exercise swaps and both rebuild causes.
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 160)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		p := 2 + next()%7
		n := 1 + next()%64
		var live []graph.Edge
		for m := next() % 32; m > 0; m-- {
			live = append(live, graph.Edge{Src: graph.VertexID(next() % n), Dst: graph.VertexID(next() % n), Weight: 1})
		}
		g, err := graph.FromEdges(n, live, false)
		if err != nil {
			t.Fatal(err)
		}
		sp := obs.NewSpans(1024)
		d, err := New(g, Config{Partitions: p, Spans: sp})
		if err != nil {
			t.Fatal(err)
		}
		var pins []pinnedOrdering
		for step := 0; step < 32 && i < len(data); step++ {
			renum := d.RenumEpoch()
			switch next() % 16 {
			case 14:
				d.Grow(1 + next()%3)
				n = d.NumVertices()
				checkBalance(t, d, live)
				pins = checkPinned(t, d, sp, pins)
				if d.RenumEpoch() != renum {
					checkNumbered(t, d)
				}
				continue
			case 15:
				d.Rebuild()
				checkBalance(t, d, live)
				pins = checkPinned(t, d, sp, pins)
				checkNumbered(t, d)
				continue
			}
			var batch []graph.EdgeUpdate
			for k := 1 + next()%16; k > 0; k-- {
				op := next()
				if op%4 == 0 && len(live) > 0 {
					j := next() % len(live)
					e := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					batch = append(batch, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Del: true})
					continue
				}
				e := graph.Edge{Src: graph.VertexID(op % n), Dst: graph.VertexID(next() % n), Weight: 1}
				live = append(live, e)
				batch = append(batch, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst})
			}
			res, err := d.ApplyBatch(batch)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkBalance(t, d, live)
			pins = checkPinned(t, d, sp, pins)
			if res.Rebuilt {
				checkNumbered(t, d)
			}
			if res.EdgeImbalance != d.EdgeImbalance() || res.VertexImbalance != d.VertexImbalance() {
				t.Fatalf("step %d: batch reports Δ=%d δ=%d, graph Δ=%d δ=%d",
					step, res.EdgeImbalance, res.VertexImbalance, d.EdgeImbalance(), d.VertexImbalance())
			}
			if !res.Rebuilt {
				if got, gate := d.EdgeImbalance(), d.EffectiveRebuildThreshold(); got > gate {
					t.Fatalf("step %d (repaired=%v): Δ(n)=%d over its gate %d", step, res.Repaired, got, gate)
				}
				if got, gate := d.VertexImbalance(), d.cfg.VertexRebuildThreshold; got > gate {
					t.Fatalf("step %d (repaired=%v): δ(n)=%d over its gate %d", step, res.Repaired, got, gate)
				}
			}
		}
		for _, s := range sp.Snapshot() {
			batch := s.Parent != 0
			if s.Name == "rebuild" && batch != (s.Cause == "repair-shortfall" || s.Cause == "vertex-threshold") {
				t.Fatalf("rebuild span (batch=%v) with cause %q", batch, s.Cause)
			}
		}
	})
}

// pinnedOrdering is a published Ordering with copies of its slices taken
// when it was published.
type pinnedOrdering struct {
	ord    *core.Result
	perm   []graph.VertexID
	partOf []uint32
}

// checkPinned holds every earlier published ordering against its copies,
// holds Stats against the span ring, and returns pins extended with the
// current ordering.
func checkPinned(t *testing.T, d *Graph, sp *obs.Spans, pins []pinnedOrdering) []pinnedOrdering {
	t.Helper()
	for k, pin := range pins {
		if !slices.Equal(pin.ord.Perm, pin.perm) || !slices.Equal(pin.ord.PartitionOf, pin.partOf) {
			t.Fatalf("ordering %d of %d was rewritten after it was published", k, len(pins))
		}
	}
	if sp.Dropped() != 0 {
		t.Fatalf("span ring dropped %d spans", sp.Dropped())
	}
	spans := map[string]int64{}
	for _, s := range sp.Snapshot() {
		spans[s.Name]++
	}
	st := d.Stats()
	if st.Repairs != spans["repair"] || st.FullRebuilds != spans["rebuild"] || st.Compactions != spans["compact"] {
		t.Fatalf("Stats counts %d repairs, %d rebuilds, %d compactions; spans %d, %d, %d",
			st.Repairs, st.FullRebuilds, st.Compactions, spans["repair"], spans["rebuild"], spans["compact"])
	}
	ord := d.Ordering()
	return append(pins, pinnedOrdering{ord, slices.Clone(ord.Perm), slices.Clone(ord.PartitionOf)})
}

// checkBalance recounts the tracked in-degrees from live and the
// per-partition counts from the placement, and checks that the ordering is
// an injection giving each partition the occupied prefix of one contiguous
// new-ID segment (the whole segment while the ordering is compact).
func checkBalance(t *testing.T, d *Graph, live []graph.Edge) {
	t.Helper()
	n, p := d.NumVertices(), d.Partitions()
	deg := make([]int64, n)
	for _, e := range live {
		deg[e.Dst]++
	}
	edges, verts := make([]int64, p), make([]int64, p)
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		if d.InDegree(id) != deg[v] {
			t.Fatalf("vertex %d tracked in-degree %d, recount %d", v, d.InDegree(id), deg[v])
		}
		q := d.PartitionOf(id)
		edges[q] += deg[v]
		verts[q]++
	}
	for q, c := range d.EdgeCounts() {
		if c != edges[q] {
			t.Fatalf("partition %d tracked %d edges, recount %d", q, c, edges[q])
		}
	}
	for q, c := range d.VertexCounts() {
		if c != verts[q] {
			t.Fatalf("partition %d tracked %d vertices, recount %d", q, c, verts[q])
		}
	}
	ord := d.Ordering()
	b := ord.Boundaries()
	seen := make([]bool, ord.Slots())
	for v, id := range ord.Perm {
		q := d.PartitionOf(graph.VertexID(v))
		if int64(id) >= ord.Slots() || seen[id] {
			t.Fatalf("Perm is not an injection: vertex %d → %d", v, id)
		}
		seen[id] = true
		if hi := b[q] + ord.VertexCounts[q]; ord.PartitionOf[v] != q || int64(id) < b[q] || int64(id) >= hi {
			t.Fatalf("vertex %d of partition %d (ordering says %d) has new ID %d outside segment [%d,%d)",
				v, q, ord.PartitionOf[v], id, b[q], hi)
		}
	}
}
