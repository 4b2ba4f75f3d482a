package vebo

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// FuzzDynamicProgram decodes bytes into programs of valid operations on a
// tiny weighted power-law graph (the recipes' generator) behind the facade:
//
//   - ApplyBatch with in-range insertions and deletions of edges the oracle
//     holds, with and without a weight selector (blind only where every
//     live occurrence of the pair shares one weight, so the oracle knows
//     which dies);
//   - IngestBatch admitting new external IDs, which take the next internal
//     IDs. A tiny graph's segments get the 4-slot minimum headroom, so
//     admissions spill;
//   - Compact, and a forced Rebuild of the inner graph;
//   - pinning the current view, up to 4 at a time;
//   - a query of a random pinned view: Reordered, Snapshot,
//     Engine/TransposeEngine, BFS/CC and RefineBFS/RefineCC/RefineSSSP, in
//     random order.
//
// The oracle is a multiset of the live edges, copied into a FromEdges
// graph at each pin, plus the sequential references of
// internal/algorithms. After every operation each pinned view's Snapshot
// must equal its pinned graph and its Reordered that graph relabeled by
// the view's ordering (core.Apply), the live per-partition edge and vertex
// counts must equal a recount under the live placement, and no derivation
// may return an error. Every query answer must equal the reference's on
// the pinned graph, refined or not.
func FuzzDynamicProgram(f *testing.F) {
	// Pin a view and build its GraphGrind engine and a BFS capture, apply
	// one insertion, then pin the next view and do the same: a patched
	// engine and a refined answer.
	f.Add([]byte{10, 1, 0, 23, 5, 6, 0, 1, 2, 2, 6, 2, 0, 0, 1, 3, 4, 1, 5, 6, 1, 1, 2, 2, 6, 2})
	// Seed programs: random bytes, enough for a dozen or more operations.
	for seed := range int64(6) {
		prog := make([]byte, 160)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runProgram)
}

// runProgram decodes and runs one FuzzDynamicProgram program.
func runProgram(t *testing.T, data []byte) {
	{
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		n := 8 + next()%17
		g, err := gen.PowerLaw(gen.PowerLawConfig{N: n, S: 1.0, MaxDegree: n / 2, Weighted: true, Seed: int64(next())})
		if err != nil {
			t.Fatal(err)
		}
		parts := 2 << (next() % 2)
		d, err := NewDynamic(g, DynamicOptions{Partitions: parts, Engine: viewTestOpts, CompactEvery: 8 + next()%24})
		if err != nil {
			t.Fatal(err)
		}
		live := g.Edges()
		type pin struct {
			v    *View
			want *Graph
		}
		var pins []pin

		// batch draws 1–6 valid updates against the oracle, applying each
		// to it in turn; with grow set, an insertion may name the next
		// vertex, which IngestBatch admits under that ID.
		batch := func(grow bool) []EdgeUpdate {
			var ups []EdgeUpdate
			for k := 1 + next()%6; k > 0; k-- {
				if next()%3 == 0 && len(live) > 0 {
					j := next() % len(live)
					e := live[j]
					u := EdgeUpdate{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Del: true}
					if next()%2 == 0 && !slices.ContainsFunc(live, func(x Edge) bool {
						return x.Src == e.Src && x.Dst == e.Dst && x.Weight != e.Weight
					}) {
						u.Weight = 0
					}
					live = slices.Delete(live, j, j+1)
					ups = append(ups, u)
					continue
				}
				end := func() VertexID {
					if grow && next()%2 == 0 {
						n++
						return VertexID(n - 1)
					}
					return VertexID(next() % n)
				}
				src := end()
				dst := end()
				w := int32(next() % 5)
				live = append(live, Edge{Src: src, Dst: dst, Weight: max(w, 1)})
				ups = append(ups, EdgeUpdate{Src: src, Dst: dst, Weight: w})
			}
			return ups
		}
		for step := 0; step < 64 && i < len(data); step++ {
			switch op := next() % 8; op {
			case 0:
				if _, err := d.ApplyBatch(batch(false)); err != nil {
					t.Fatalf("step %d: ApplyBatch: %v", step, err)
				}
			case 1, 2:
				if _, err := d.IngestBatch(external(batch(true))); err != nil {
					t.Fatalf("step %d: IngestBatch: %v", step, err)
				}
			case 3:
				d.Compact()
			case 4:
				d.inner.Rebuild()
			case 5:
				want, err := FromEdges(n, live, true)
				if err != nil {
					t.Fatal(err)
				}
				pins = append(pins, pin{d.View(), want})
				if len(pins) > 4 {
					pins = pins[1:]
				}
			default:
				if len(pins) == 0 {
					continue
				}
				p := pins[next()%len(pins)]
				for q := 1 + next()%4; q > 0; q-- {
					queryPinned(t, p.v, p.want, next(), next())
				}
			}
			checkCounts(t, d, live)
			for _, p := range pins {
				checkPinned(t, p.v, p.want)
			}
		}
	}
}

// checkCounts requires the live per-partition edge and vertex counts to
// equal a recount of the oracle's edges and vertices under the live
// placement.
func checkCounts(t *testing.T, d *Dynamic, live []Edge) {
	t.Helper()
	in := d.inner
	edges, verts := make([]int64, in.Partitions()), make([]int64, in.Partitions())
	for _, e := range live {
		edges[in.PartitionOf(e.Dst)]++
	}
	for v := range in.NumVertices() {
		verts[in.PartitionOf(VertexID(v))]++
	}
	if !slices.Equal(in.EdgeCounts(), edges) || !slices.Equal(in.VertexCounts(), verts) {
		t.Fatalf("epoch %d: partition counts %v/%v, recount %v/%v",
			in.Epoch(), in.EdgeCounts(), in.VertexCounts(), edges, verts)
	}
}

// checkPinned requires a pinned view's Snapshot to equal its pinned graph
// and its Reordered that graph relabeled by the view's ordering.
func checkPinned(t *testing.T, v *View, want *Graph) {
	t.Helper()
	if !graph.Equal(v.Snapshot(), want) {
		t.Fatalf("epoch %d: Snapshot differs from FromEdges over the pinned multiset", v.Epoch())
	}
	rg, err := v.Reordered()
	if err != nil {
		t.Fatalf("epoch %d: Reordered: %v", v.Epoch(), err)
	}
	rel, err := core.Apply(want, v.ord)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(rg, rel) {
		t.Fatalf("epoch %d: Reordered differs from the pinned graph relabeled by the view's ordering", v.Epoch())
	}
}

// queryPinned runs one query, chosen by kind, on v with the framework
// model and root chosen by arg, and requires its answer to equal the
// sequential reference's on want, the view's pinned graph.
func queryPinned(t *testing.T, v *View, want *Graph, kind, arg int) {
	t.Helper()
	sys := System(arg % 3)
	root := VertexID(arg % v.NumVertices())
	fail := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("epoch %d %v: %s: %v", v.Epoch(), sys, what, err)
		}
	}
	switch kind % 9 {
	case 0:
		checkPinned(t, v, want)
	case 1:
		v.Snapshot()
	case 2:
		_, err := v.Engine(sys)
		fail("Engine", err)
	case 3:
		_, err := v.TransposeEngine(sys)
		fail("TransposeEngine", err)
	case 4:
		parents, err := v.BFS(sys, root)
		fail("BFS", err)
		levels, depths := bfsLevels(t, parents, root), refSeqDepths(want, root)
		for u := range depths {
			if levels[u] != int(depths[u]) {
				t.Fatalf("epoch %d %v: BFS level[%d] = %d, want %d", v.Epoch(), sys, u, levels[u], depths[u])
			}
		}
	case 5:
		labels, err := v.CC(sys)
		fail("CC", err)
		rel, err := core.Apply(want, v.ord)
		fail("relabel", err)
		// Labels propagate over slots and are reported as the original
		// vertex holding the smallest slot that reaches each vertex.
		ref, inv := algorithms.RefCC(rel), v.invPerm()
		for u, s := range v.ord.Perm {
			if labels[u] != inv[ref[s]] {
				t.Fatalf("epoch %d %v: CC label[%d] = %d, want %d", v.Epoch(), sys, u, labels[u], inv[ref[s]])
			}
		}
	case 6:
		depths, st, err := v.RefineBFS(sys, root)
		fail("RefineBFS", err)
		if wantDepths := refSeqDepths(want, root); !slices.Equal(depths, wantDepths) {
			t.Fatalf("epoch %d %v (%s): RefineBFS = %v, want %v", v.Epoch(), sys, st.Path, depths, wantDepths)
		}
	case 7:
		labels, st, err := v.RefineCC(sys)
		fail("RefineCC", err)
		if wantLabels := refSeqLabels(want); !slices.Equal(labels, wantLabels) {
			t.Fatalf("epoch %d %v (%s): RefineCC = %v, want %v", v.Epoch(), sys, st.Path, labels, wantLabels)
		}
	default:
		dist, st, err := v.RefineSSSP(sys, root)
		fail("RefineSSSP", err)
		if wantDist := algorithms.RefSSSP(want, root); !slices.Equal(dist, wantDist) {
			t.Fatalf("epoch %d %v (%s): RefineSSSP = %v, want %v", v.Epoch(), sys, st.Path, dist, wantDist)
		}
	}
}
