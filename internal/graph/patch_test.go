package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// edgeMultiset canonicalizes a graph's edges for order-insensitive compare.
func edgeMultiset(g *Graph) map[Edge]int {
	m := make(map[Edge]int, g.NumEdges())
	for _, e := range g.Edges() {
		m[e]++
	}
	return m
}

func sameMultiset(t *testing.T, a, b map[Edge]int) {
	t.Helper()
	for e, c := range a {
		if b[e] != c {
			t.Fatalf("edge %+v: multiplicity %d vs %d", e, c, b[e])
		}
	}
	for e, c := range b {
		if a[e] != c {
			t.Fatalf("edge %+v: multiplicity %d vs %d", e, a[e], c)
		}
	}
}

// TestPatchEdgesMatchesRebuild drives random add/delete patches against
// random (weighted and unweighted) graphs and checks the patched graph is
// multiset-identical to building from scratch, with consistent CSR/CSC
// structure and honest work stats.
func TestPatchEdgesMatchesRebuild(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		const n = 60
		edges := make([]Edge, 0, 400)
		for i := 0; i < 400; i++ {
			w := int32(1)
			if weighted {
				w = int32(rng.Intn(5) + 1)
			}
			edges = append(edges, Edge{
				Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: w,
			})
		}
		g, err := FromEdges(n, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			live := g.Edges()
			var dels []Edge
			for i := 0; i < 30 && len(live) > 0; i++ {
				j := rng.Intn(len(live))
				dels = append(dels, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			var adds []Edge
			for i := 0; i < 40; i++ {
				w := int32(1)
				if weighted {
					w = int32(rng.Intn(5) + 1)
				}
				adds = append(adds, Edge{
					Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: w,
				})
			}
			patched, st, err := g.Patch(g.NumVertices(), Delta{Adds: adds, Dels: dels})
			if err != nil {
				t.Fatalf("weighted=%v trial %d: %v", weighted, trial, err)
			}
			want, err := FromEdges(n, append(append([]Edge(nil), live...), adds...), weighted)
			if err != nil {
				t.Fatal(err)
			}
			sameMultiset(t, edgeMultiset(patched), edgeMultiset(want))
			if patched.NumEdges() != want.NumEdges() {
				t.Fatalf("edge count %d, want %d", patched.NumEdges(), want.NumEdges())
			}
			// CSC must mirror CSR.
			sameMultiset(t, edgeMultiset(patched.Transpose()), edgeMultiset(want.Transpose()))
			if st.EdgesMerged == 0 {
				t.Fatalf("patch stats recorded no merge work: %+v", st)
			}
			if st.EdgesCopied+st.EdgesMerged < patched.NumEdges() {
				t.Fatalf("stats cover %d edges of %d (one direction should dominate)",
					st.EdgesCopied+st.EdgesMerged, patched.NumEdges())
			}
			g = patched // chain patches across trials
		}
	}
}

// TestPatchEdgesByteIdentical patches batches in which rows 0, n-1 and a
// middle row each get several adds and deletes (parallel edges with
// differing weights included), some of which grow the space with appended
// rows that receive adds, and checks both adjacency directions are
// byte-identical to FromEdges on the same multiset — on the identity
// numbering and under a swap of the first and last vertex.
func TestPatchEdgesByteIdentical(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for _, swapEnds := range []bool{false, true} {
			rng := rand.New(rand.NewSource(13))
			const n = 25
			var edges []Edge
			for i := 0; i < 150; i++ {
				edges = append(edges, Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: int32(1 + rng.Intn(3))})
			}
			for _, h := range []VertexID{0, n / 2, n - 1} {
				for w := int32(1); w <= 3; w++ {
					edges = append(edges, Edge{Src: h, Dst: 3, Weight: w}, Edge{Src: 5, Dst: h, Weight: w})
				}
			}
			g, err := FromEdges(n, edges, weighted)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 8; trial++ {
				nOld := g.NumVertices()
				nNew := nOld + trial%3
				var perm []VertexID
				if swapEnds {
					perm = make([]VertexID, nOld)
					for v := range perm {
						perm[v] = VertexID(v)
					}
					perm[0], perm[nOld-1] = perm[nOld-1], perm[0]
				}
				hot := []VertexID{0, VertexID(nOld / 2), VertexID(nOld - 1)}
				isHot := func(v VertexID) bool { return slices.Contains(hot, v) }
				var dels, kept []Edge
				for _, e := range g.Edges() {
					if perm != nil {
						e.Src, e.Dst = perm[e.Src], perm[e.Dst]
					}
					if (isHot(e.Src) || isHot(e.Dst)) && len(dels) < 12 && rng.Intn(2) == 0 {
						dels = append(dels, e)
					} else {
						kept = append(kept, e)
					}
				}
				var adds []Edge
				for _, h := range hot {
					x := VertexID(rng.Intn(nNew))
					for w := int32(1); w <= 3; w++ {
						adds = append(adds, Edge{Src: h, Dst: x, Weight: w}, Edge{Src: x, Dst: h, Weight: w})
					}
				}
				for v := nOld; v < nNew; v++ {
					adds = append(adds, Edge{Src: VertexID(v), Dst: 0, Weight: 2}, Edge{Src: VertexID(nNew - 1), Dst: VertexID(v), Weight: 1})
				}
				patched, _, err := g.Patch(nNew, permDelta(nOld, adds, dels, perm, false))
				if err != nil {
					t.Fatalf("weighted=%v swap=%v trial %d: %v", weighted, swapEnds, trial, err)
				}
				want, err := FromEdges(nNew, append(kept, adds...), weighted)
				if err != nil {
					t.Fatal(err)
				}
				if !Equal(patched, want) {
					t.Fatalf("weighted=%v swap=%v trial %d: patched graph is not byte-identical to FromEdges", weighted, swapEnds, trial)
				}
				g = patched
			}
		}
	}
}

// TestPatchEdgesSortedRows checks merged rows stay sorted by neighbor so
// binary-search consumers (HasEdge, the dynamic delta log) keep working.
func TestPatchEdgesSortedRows(t *testing.T) {
	g, err := FromEdges(5, []Edge{{0, 4, 1}, {0, 1, 1}, {2, 3, 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := g.Patch(g.NumVertices(), Delta{Adds: []Edge{{0, 3, 1}, {0, 0, 1}, {4, 2, 1}}, Dels: []Edge{{0, 4, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < p.NumVertices(); v++ {
		nbrs := p.OutNeighbors(VertexID(v))
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] > nbrs[i] {
				t.Fatalf("row %d not sorted: %v", v, nbrs)
			}
		}
	}
	if !p.HasEdge(0, 0) || !p.HasEdge(0, 3) || p.HasEdge(0, 4) {
		t.Fatal("patched adjacency content wrong")
	}
}

// TestPatchEdgesErrors checks range validation and deletion of missing
// edges, including the weighted exact-match rule, and that every way a
// row merge can fail to match a deletion returns an error, never a panic.
func TestPatchEdgesErrors(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, 5}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Patch(g.NumVertices(), Delta{Adds: []Edge{{0, 9, 1}}}); err == nil {
		t.Error("expected range error for add")
	}
	if _, _, err := g.Patch(g.NumVertices(), Delta{Dels: []Edge{{9, 0, 1}}}); err == nil {
		t.Error("expected range error for delete")
	}
	if _, _, err := g.Patch(g.NumVertices(), Delta{Dels: []Edge{{0, 2, 1}}}); err == nil {
		t.Error("expected missing-edge error")
	}
	// Weight must match exactly as stored.
	if _, _, err := g.Patch(g.NumVertices(), Delta{Dels: []Edge{{0, 1, 4}}}); err == nil {
		t.Error("expected weight-mismatch error")
	}
	if _, _, err := g.Patch(g.NumVertices(), Delta{Dels: []Edge{{0, 1, 5}}}); err != nil {
		t.Errorf("exact-weight delete failed: %v", err)
	}
	// Unweighted graphs normalize all weights to 1.
	ug, err := FromEdges(3, []Edge{{0, 1, 7}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ug.Patch(ug.NumVertices(), Delta{Dels: []Edge{{0, 1, 9}}}); err != nil {
		t.Errorf("unweighted delete should ignore weights: %v", err)
	}

	// Row 0 is [(5,1) (6,1)], row 1 is [(3,1) (3,1) (4,1)] and row 2 is
	// [(1,5) (2,3)]. Under swap12, 1 and 2 exchange IDs, so new row 1 is
	// [(1,3) (2,5)].
	mg, err := FromEdges(10, []Edge{
		{0, 5, 1}, {0, 6, 1}, {1, 3, 1}, {1, 3, 1}, {1, 4, 1}, {2, 1, 5}, {2, 2, 3},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	swap12 := []VertexID{0, 2, 1, 3, 4, 5, 6, 7, 8, 9}
	for _, tc := range []struct {
		name       string
		adds, dels []Edge
		perm       []VertexID
	}{
		// The adds sort first and fill the row's slot before the deletion
		// can be found unmatched.
		{"unmatched deletion overruns a row with adds",
			[]Edge{{0, 1, 1}, {0, 2, 1}}, []Edge{{0, 9, 1}}, nil},
		{"deletion after the row's last entry",
			nil, []Edge{{0, 9, 1}}, nil},
		{"deletion after the last entry, adds after it too",
			[]Edge{{0, 9, 2}}, []Edge{{0, 7, 1}}, nil},
		{"parallel edge deleted once more than its multiplicity",
			nil, []Edge{{1, 3, 1}, {1, 3, 1}, {1, 3, 1}}, nil},
		{"weight mismatch in a row the perm remaps",
			nil, []Edge{{1, 2, 4}}, swap12},
		{"weight mismatch in a remapped row with adds",
			[]Edge{{1, 0, 1}}, []Edge{{1, 1, 5}}, swap12},
	} {
		if _, _, err := mg.Patch(mg.NumVertices(), permDelta(mg.NumVertices(), tc.adds, tc.dels, tc.perm, false)); err == nil {
			t.Errorf("%s: expected missing-edge error", tc.name)
		}
	}
}

// applyPermToEdges maps both endpoints of every edge through perm.
func applyPermToEdges(edges []Edge, perm []VertexID) []Edge {
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = Edge{Src: perm[e.Src], Dst: perm[e.Dst], Weight: e.Weight}
	}
	return out
}

// TestPatchEdgesPermMatchesRelabel drives Patch with random
// swap-product permutations (the shape placement-preserving repair emits)
// combined with random adds and deletes, and checks the result is
// byte-identical to relabeling from scratch and rebuilding: same offsets,
// sorted rows, CSR and CSC both.
func TestPatchEdgesPermMatchesRelabel(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		const n = 80
		edges := make([]Edge, 0, 500)
		for i := 0; i < 500; i++ {
			w := int32(1)
			if weighted {
				w = int32(rng.Intn(5) + 1)
			}
			edges = append(edges, Edge{
				Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: w,
			})
		}
		g, err := FromEdges(n, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			// A product of random transpositions, identity elsewhere.
			perm := make([]VertexID, n)
			for i := range perm {
				perm[i] = VertexID(i)
			}
			for s := 0; s < 1+rng.Intn(4); s++ {
				a, b := rng.Intn(n), rng.Intn(n)
				perm[a], perm[b] = perm[b], perm[a]
			}
			// Deletes against surviving pre-perm edges, expressed post-perm;
			// adds in post-perm IDs.
			live := g.Edges()
			var dels []Edge
			for i := 0; i < 25 && len(live) > 0; i++ {
				j := rng.Intn(len(live))
				e := live[j]
				dels = append(dels, Edge{Src: perm[e.Src], Dst: perm[e.Dst], Weight: e.Weight})
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			var adds []Edge
			for i := 0; i < 30; i++ {
				w := int32(1)
				if weighted {
					w = int32(rng.Intn(5) + 1)
				}
				adds = append(adds, Edge{
					Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: w,
				})
			}
			patched, st, err := g.Patch(g.NumVertices(), permDelta(n, adds, dels, perm, false))
			if err != nil {
				t.Fatalf("weighted=%v trial %d: %v", weighted, trial, err)
			}
			want, err := FromEdges(n,
				append(applyPermToEdges(live, perm), adds...), weighted)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(patched, want) {
				t.Fatalf("weighted=%v trial %d: patched graph differs from relabel+rebuild", weighted, trial)
			}
			if covered := st.EdgesCopied + st.EdgesMerged + st.EdgesRemapped; covered < patched.NumEdges() {
				t.Fatalf("stats cover %d edges of %d", covered, patched.NumEdges())
			}
			g = patched // chain: later trials patch an already-patched graph
		}
	}
}

// TestPatchEdgesPermPure checks a pure renumbering (no adds or deletes)
// equals a scratch build of the mapped edge list, and that rows untouched
// by the permutation are copied, not merged.
func TestPatchEdgesPermPure(t *testing.T) {
	g, err := FromEdges(6, []Edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}, {4, 5, 1}, {5, 0, 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	perm := []VertexID{0, 1, 2, 4, 3, 5} // swap 3 and 4
	patched, st, err := g.Patch(g.NumVertices(), permDelta(g.NumVertices(), nil, nil, perm, false))
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromEdges(g.NumVertices(), applyPermToEdges(g.Edges(), perm), false)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(patched, want) {
		t.Fatal("pure renumbering differs from a scratch build of the mapped edges")
	}
	if st.EdgesCopied == 0 {
		t.Fatalf("pure swap should block-copy untouched rows: %+v", st)
	}
	// Rows incident to the swap are remapped (no adds or deletes touch
	// them); the 0->1->2 chain is untouched and nothing needs a merge.
	if st.EdgesRemapped == 0 || st.EdgesMerged != 0 {
		t.Fatalf("unexpected rewrite split: %+v", st)
	}
}

// TestPatchRenumber checks the pure renumbering of a lineage break (no adds
// or deletes: what core.Apply and Relabel run) against a
// scratch build of the mapped edge list, on multigraphs with self-loops and
// parallel edges of distinct weights, for permutations and for injections
// into a larger space with holes; and its stats against the row path's
// accounting, where an entry counts as remapped when its neighbor moved.
func TestPatchRenumber(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		nNew := n + rng.Intn(3)*rng.Intn(20)
		weighted := trial%2 == 0
		edges := randomEdges(rng, n, rng.Intn(8*n))
		for i := 0; i < len(edges)/4; i++ { // parallel copies, new weights
			e := edges[rng.Intn(len(edges))]
			e.Weight = int32(rng.Intn(100) + 1)
			edges = append(edges, e)
		}
		g, err := FromEdges(n, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		perm := randomPerm(rng, nNew)[:n]
		got, st, err := g.Patch(nNew, permDelta(n, nil, nil, perm, true))
		if err != nil {
			t.Fatal(err)
		}
		want, err := FromEdges(nNew, applyPermToEdges(g.Edges(), perm), weighted)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want) {
			t.Fatalf("trial %d (n=%d nNew=%d weighted=%v): renumbering differs from a scratch build",
				trial, n, nNew, weighted)
		}
		var rewritten int64
		for _, e := range g.Edges() {
			if perm[e.Dst] != e.Dst {
				rewritten++ // the out-row entry of e.Src
			}
			if perm[e.Src] != e.Src {
				rewritten++ // the in-row entry of e.Dst
			}
		}
		wantSt := PatchStats{EdgesRemapped: rewritten, EdgesCopied: 2*g.NumEdges() - rewritten, EdgesWritten: 2 * g.NumEdges()}
		if st != wantSt {
			t.Fatalf("trial %d: stats %+v, want %+v", trial, st, wantSt)
		}
	}
}

// TestPatchEdgesIdentityGrowth checks identity-map growth (a nil perm into a
// larger vertex space): the patched graph equals rebuilding from scratch over
// the larger vertex space, appended rows start empty unless adds reference
// them, and untouched rows block-copy.
func TestPatchEdgesIdentityGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, nNew = 40, 55
	edges := make([]Edge, 0, 300)
	for i := 0; i < 300; i++ {
		edges = append(edges, Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: 1})
	}
	g, err := FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	adds := []Edge{{Src: 41, Dst: 3, Weight: 1}, {Src: 2, Dst: 50, Weight: 1}, {Src: 54, Dst: 54, Weight: 1}}
	dels := []Edge{g.Edges()[0]}
	patched, st, err := g.Patch(nNew, Delta{Adds: adds, Dels: dels})
	if err != nil {
		t.Fatal(err)
	}
	if patched.NumVertices() != nNew {
		t.Fatalf("vertex count %d, want %d", patched.NumVertices(), nNew)
	}
	live := g.Edges()[1:]
	want, err := FromEdges(nNew, append(append([]Edge(nil), live...), adds...), false)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(patched, want) {
		t.Fatal("grown patch differs from scratch rebuild")
	}
	if st.EdgesCopied == 0 {
		t.Fatalf("growth patch should block-copy untouched rows: %+v", st)
	}
	if patched.OutDegree(45) != 0 || patched.InDegree(45) != 0 {
		t.Fatal("appended vertex without adds should have empty rows")
	}
	// Deleting from an appended (empty) row must fail.
	if _, _, err := g.Patch(nNew, Delta{Dels: []Edge{{Src: 50, Dst: 0, Weight: 1}}}); err == nil {
		t.Error("expected missing-edge error for appended-row delete")
	}
	// Shrinking is rejected.
	if _, _, err := g.Patch(n-1, Delta{}); err == nil {
		t.Error("expected shrink error")
	}
}

// growthInjection builds the segment-growth map shape: old IDs shift up by
// the number of slots inserted before them, leaving holes for new vertices.
func growthInjection(n, nNew int, holes []VertexID) []VertexID {
	isHole := make(map[VertexID]bool, len(holes))
	for _, h := range holes {
		isHole[h] = true
	}
	perm := make([]VertexID, 0, n)
	for id := VertexID(0); int(id) < nNew && len(perm) < n; id++ {
		if !isHole[id] {
			perm = append(perm, id)
		}
	}
	return perm
}

// TestPatchGrowth drives the segment-growth contract: an injective
// shift map with interior holes for admitted vertices, combined with swaps
// and edge churn, equals relabel+rebuild over the grown space, and the
// shifted rows go through the cheap remap path rather than merges.
func TestPatchGrowth(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(23))
		const n = 60
		edges := make([]Edge, 0, 400)
		for i := 0; i < 400; i++ {
			w := int32(1)
			if weighted {
				w = int32(rng.Intn(5) + 1)
			}
			edges = append(edges, Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: w})
		}
		g, err := FromEdges(n, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			nOld := g.NumVertices()
			growth := 1 + rng.Intn(5)
			nNew := nOld + growth
			holes := make([]VertexID, 0, growth)
			seen := make(map[VertexID]bool)
			for len(holes) < growth {
				h := VertexID(rng.Intn(nNew))
				if !seen[h] {
					seen[h] = true
					holes = append(holes, h)
				}
			}
			perm := growthInjection(nOld, nNew, holes)
			// A couple of swaps on top of the shift, as a repair would leave.
			for s := 0; s < rng.Intn(3); s++ {
				a, b := rng.Intn(nOld), rng.Intn(nOld)
				perm[a], perm[b] = perm[b], perm[a]
			}
			live := g.Edges()
			var dels []Edge
			for i := 0; i < 10 && len(live) > 0; i++ {
				j := rng.Intn(len(live))
				e := live[j]
				dels = append(dels, Edge{Src: perm[e.Src], Dst: perm[e.Dst], Weight: e.Weight})
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			var adds []Edge
			for i := 0; i < 15; i++ {
				w := int32(1)
				if weighted {
					w = int32(rng.Intn(5) + 1)
				}
				// Half the adds touch the new vertices.
				var e Edge
				if i%2 == 0 && len(holes) > 0 {
					e = Edge{Src: holes[rng.Intn(len(holes))], Dst: VertexID(rng.Intn(nNew)), Weight: w}
				} else {
					e = Edge{Src: VertexID(rng.Intn(nNew)), Dst: VertexID(rng.Intn(nNew)), Weight: w}
				}
				adds = append(adds, e)
			}
			patched, st, err := g.Patch(nNew, permDelta(nOld, adds, dels, perm, false))
			if err != nil {
				t.Fatalf("weighted=%v trial %d: %v", weighted, trial, err)
			}
			want, err := FromEdges(nNew, append(applyPermToEdges(live, perm), adds...), weighted)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(patched, want) {
				t.Fatalf("weighted=%v trial %d: grown perm patch differs from relabel+rebuild", weighted, trial)
			}
			if covered := st.EdgesCopied + st.EdgesMerged + st.EdgesRemapped; covered < patched.NumEdges() {
				t.Fatalf("stats cover %d edges of %d", covered, patched.NumEdges())
			}
			g = patched // chain growth across trials
		}
	}
}

// TestDeltaRejects pins the one check of a within-lineage delta, which
// Patch and NewOverlay share: each malformed delta must be rejected by
// both. A vertex moved into a hole, which keeps no image, is accepted by
// both. The checks only an overlay makes are TestOverlayRejects'.
func TestDeltaRejects(t *testing.T) {
	g, err := FromEdges(4, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		n int
		d Delta
	}{
		"repeated image":       {n: 4, d: Delta{Seg: []VertexID{1, 0, 0, 3}, Moved: []VertexID{0, 1, 2}}},
		"image past the slots": {n: 4, d: Delta{Seg: []VertexID{0, 1, 2, 4}, Moved: []VertexID{3}}},
		"onto kept slot":       {n: 4, d: Delta{Seg: []VertexID{0, 3, 2, 3}, Moved: []VertexID{1}}},
		"hole image has edges": {n: 4, d: Delta{Seg: []VertexID{0, 1, NoVertex, 2}, Moved: []VertexID{3}}},
		"shrink":               {n: 3},
		"add out of range":     {n: 4, d: Delta{Adds: []Edge{{Src: 4, Dst: 0}}}},
		"delete out of range":  {n: 4, d: Delta{Dels: []Edge{{Src: 0, Dst: 4, Weight: 1}}}},
		"row over-delete":      {n: 4, d: Delta{Dels: []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 1, Weight: 1}}}},
		"graph over-delete":    {n: 4, d: Delta{Dels: slices.Repeat([]Edge{{Src: 0, Dst: 1, Weight: 1}}, 3)}},
	} {
		if _, _, err := g.Patch(c.n, c.d); err == nil {
			t.Errorf("%s: patch accepted", name)
		}
		if _, err := NewOverlay(g, c.n, c.d); err == nil {
			t.Errorf("%s: overlay accepted", name)
		}
	}
	hole := Delta{Seg: []VertexID{0, 1, 3, NoVertex}, Moved: []VertexID{2}}
	if _, _, err := g.Patch(4, hole); err != nil {
		t.Errorf("move into a hole rejected by the patch: %v", err)
	}
	if _, err := NewOverlay(g, 4, hole); err != nil {
		t.Errorf("move into a hole rejected by the overlay: %v", err)
	}
	// The slot map is read only at the moved slots and their images, so
	// stray entries at rows 2 and 3, which no move reads (row 2 mentions
	// mover 1), are not read.
	want, _, err := g.Patch(4, Delta{Seg: []VertexID{1, 0, 2, 3}, Moved: []VertexID{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range [][]VertexID{{1, 0, NoVertex, 3}, {1, 0, 3, 2}} {
		stray := Delta{Seg: seg, Moved: []VertexID{0, 1}}
		if got, _, err := g.Patch(4, stray); err != nil || !Equal(got, want) {
			t.Errorf("stray slot map entries %v changed the patch (error %v)", seg, err)
		}
		ov, err := NewOverlay(g, 4, stray)
		if err != nil {
			t.Fatalf("stray slot map entries %v rejected by the overlay: %v", seg, err)
		}
		checkOverlay(t, ov, want)
	}
}

// TestPatchEdgesPermNErrors checks Patch's injection argument into a
// grown vertex space, on both routes: a repeated or out-of-range image is
// an error, and an injection whose image holes are empty rows is not.
func TestPatchEdgesPermNErrors(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, broken := range []bool{true, false} {
		if _, _, err := g.Patch(4, permDelta(3, nil, nil, []VertexID{0, 1, 1}, broken)); err == nil {
			t.Errorf("broken=%v: non-injective perm accepted", broken)
		}
		if _, _, err := g.Patch(4, permDelta(3, nil, nil, []VertexID{0, 1, 4}, broken)); err == nil {
			t.Errorf("broken=%v: out-of-range perm accepted", broken)
		}
		if _, _, err := g.Patch(4, permDelta(3, nil, nil, []VertexID{0, 1, 3}, broken)); err != nil {
			t.Errorf("broken=%v: injection into grown space rejected: %v", broken, err)
		}
	}
}

// TestPatchEdgesPermErrors checks the permutation a lineage break
// renumbers by, which Patch reads in full: a short, repeating or
// out-of-range slot map is an error, with or without adds to merge.
func TestPatchEdgesPermErrors(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	adds := []Edge{{Src: 2, Dst: 0, Weight: 1}}
	for _, a := range [][]Edge{nil, adds} {
		for _, perm := range [][]VertexID{{0, 1}, {0, 1, 1}, {0, 1, 3}} {
			if _, _, err := g.Patch(g.NumVertices(), permDelta(3, a, nil, perm, true)); err == nil {
				t.Errorf("perm %v (adds %v) accepted", perm, a)
			}
		}
	}
}

// TestPatchAllocatesPerDelta bounds what one derivation allocates on a
// 50k-vertex, 1M-edge graph: a 128-update patch on the identity numbering
// and under eight swapped vertex pairs may allocate a few words per vertex
// (the degree prefix and extent array of each side, and the inverse
// injection) plus a constant per delta edge, not a copy of the edges. A
// derivation that copies its basis's rows allocates 10 MB here.
func TestPatchAllocatesPerDelta(t *testing.T) {
	const n, m, updates = 50_000, 1_000_000, 128
	rng := rand.New(rand.NewSource(9))
	g, err := FromEdges(n, randomEdges(rng, n, m), false)
	if err != nil {
		t.Fatal(err)
	}
	swaps := make([]VertexID, n)
	for v := range swaps {
		swaps[v] = VertexID(v)
	}
	for range 8 {
		a, b := rng.Intn(n), rng.Intn(n)
		swaps[a], swaps[b] = swaps[b], swaps[a]
	}
	live := g.Edges()
	for _, tc := range []struct {
		name string
		perm []VertexID
	}{{"identity", nil}, {"swaps", swaps}} {
		var adds, dels []Edge
		for range updates / 2 {
			j := rng.Intn(len(live))
			e := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if tc.perm != nil {
				e.Src, e.Dst = tc.perm[e.Src], tc.perm[e.Dst]
			}
			dels = append(dels, e)
			adds = append(adds, Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: 1})
		}
		d := permDelta(n, adds, dels, tc.perm, false)
		limit := uint64(6*8*(n+1) + 1024*(len(adds)+len(dels)))
		// The least of a few runs: a concurrent allocation elsewhere in the
		// test binary can only add to one run's count.
		least := uint64(1 << 62)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := g.Patch(n, d); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d bytes allocated, limit %d", tc.name, least, limit)
		if least > limit {
			t.Errorf("%s: a %d-update patch allocated %d bytes, want ≤ %d (6 words per vertex + 1 KiB per delta edge)",
				tc.name, len(adds)+len(dels), least, limit)
		}
	}
}
