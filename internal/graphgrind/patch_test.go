package graphgrind

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/layout"
)

// checkPatch patches New(g, bounds) to the graph that deletes dels (named in
// new IDs) from g relabeled through perm (nil = identity; NoVertex drops an
// empty row) and adds adds, by the delta whose slot map is perm and whose
// admitted slots are the extra vertices, listed twice, and every moved
// position (a slot a move left empty stands for one an admitted vertex
// took, as in a swap with a hole, and the duplicates for repeats in the
// dirty set Patch works out). It checks that every patched COO
// equals New's over the new graph entry for entry, weights included, and
// that the stats are exactly the classification of the range predicates
// Patch once took: a partition is dirty when it holds a delta destination, a
// moved position or an extra vertex, and source-stale when it holds a
// destination of a moved vertex's out-edge in the new graph, counting its
// COO entries whose source moved. Views pinned to the basis engine keep
// reading it, so it also checks that Patch leaves the basis COOs as they
// were, that every reused partition shares its basis COO, and that no
// derived COO aliases a basis array (the shared unit weights aside).
func checkPatch(t *testing.T, g *graph.Graph, bounds []int64, adds, dels []graph.Edge, perm, extra []graph.VertexID) {
	t.Helper()
	n := g.NumVertices()
	live := g.Edges()
	if perm != nil {
		for i := range live {
			live[i].Src, live[i].Dst = perm[live[i].Src], perm[live[i].Dst]
		}
	}
	for _, d := range dels {
		i := slices.Index(live, d)
		if i < 0 {
			t.Fatalf("deletion %+v is not live", d)
		}
		live = slices.Delete(live, i, i+1)
	}
	g2, err := graph.FromEdges(n, append(live, adds...), g.Weighted())
	if err != nil {
		t.Fatal(err)
	}

	// The predicates' vertex sets, in new IDs: destinations of the delta and
	// moved vertices are dirty; destinations of moved vertices' out-edges
	// hold stale source references.
	var dirty []graph.VertexID
	dirtyAt := make([]bool, n)
	srcAt := make([]bool, n)
	for _, e := range append(slices.Clone(adds), dels...) {
		dirty = append(dirty, e.Dst)
		dirtyAt[e.Dst] = true
	}
	moved := func(v graph.VertexID) bool { return perm != nil && perm[v] != v }
	for v := range graph.VertexID(n) {
		if moved(v) {
			dirty = append(dirty, v)
			dirtyAt[v] = true
			for _, d := range g2.OutNeighbors(v) {
				srcAt[d] = true
			}
		}
	}
	for _, v := range extra {
		dirty = append(dirty, v)
		dirtyAt[v] = true
	}
	anyIn := func(set []bool) func(lo, hi graph.VertexID) bool {
		return func(lo, hi graph.VertexID) bool { return slices.Contains(set[lo:hi], true) }
	}
	dirtyIn, srcMoved := anyIn(dirtyAt), anyIn(srcAt)

	cfg := Config{Topology: top, Partitions: len(bounds) - 1, Order: layout.CSROrder, Bounds: bounds}
	gg, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	basis := make([]layout.COO, len(gg.coos))
	for i, c := range gg.coos {
		basis[i] = layout.COO{Src: slices.Clone(c.Src), Dst: slices.Clone(c.Dst), Weight: slices.Clone(c.Weight), Ordering: c.Ordering}
	}
	grown := append(slices.Clone(extra), extra...)
	for v := range graph.VertexID(n) {
		if moved(v) {
			grown = append(grown, v)
		}
	}
	d := graph.Delta{Adds: adds, Dels: dels, Seg: perm, Moved: movedOf(perm), Grown: grown}
	got, st, err := gg.Patch(g2, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gg.Patch(g2, graph.Delta{Seg: make([]graph.VertexID, n+1)}); err == nil {
		t.Fatal("a permutation of the wrong length was accepted")
	}
	if _, _, err := gg.Patch(g2, graph.Delta{Adds: adds, Dels: dels, Seg: perm, Moved: d.Moved, Grown: append(slices.Clone(grown), graph.VertexID(n))}); err == nil {
		t.Fatal("an out-of-range dirty vertex was accepted")
	}

	var wantSt PatchStats
	reused := make([]bool, len(gg.parts))
	for i, pt := range gg.parts {
		switch {
		case dirtyIn(pt.Lo, pt.Hi):
			wantSt.PartsRebuilt++
			wantSt.EdgesRebuilt += want.parts[i].Edges
		case perm != nil && srcMoved(pt.Lo, pt.Hi):
			var stale int64
			for _, s := range gg.coos[i].Src {
				if moved(s) {
					stale++
				}
			}
			wantSt.PartsRemapped++
			wantSt.EdgesRemapped += stale
			wantSt.EdgesReused += pt.Edges - stale
		default:
			wantSt.PartsReused++
			wantSt.EdgesReused += pt.Edges
			reused[i] = true
		}
	}
	if st != wantSt {
		t.Fatalf("stats %+v, want %+v", st, wantSt)
	}
	if parts := st.PartsRebuilt + st.PartsRemapped + st.PartsReused; parts != len(gg.parts) {
		t.Fatalf("stats cover %d of %d partitions", parts, len(gg.parts))
	}
	if edges := st.EdgesRebuilt + st.EdgesRemapped + st.EdgesReused; edges != g2.NumEdges() {
		t.Fatalf("stats cover %d of %d edges", edges, g2.NumEdges())
	}
	if !slices.Equal(got.parts, want.parts) || !slices.Equal(got.ranges, want.ranges) || !slices.Equal(got.partOf, want.partOf) {
		t.Fatal("partition metadata differs from New")
	}
	for i, c := range got.coos {
		w := want.coos[i]
		if c.Ordering != w.Ordering || !slices.Equal(c.Src, w.Src) || !slices.Equal(c.Dst, w.Dst) || !slices.Equal(c.Weight, w.Weight) {
			t.Fatalf("partition %d [%d,%d) COO differs from New (%d vs %d edges)",
				i, gg.parts[i].Lo, gg.parts[i].Hi, c.Len(), w.Len())
		}
	}

	// Overwrite every derived COO: a basis array it aliases changes too.
	for i, c := range got.coos {
		if reused[i] != (c == gg.coos[i]) {
			t.Fatalf("partition %d: classified reused=%v, shares the basis COO=%v", i, reused[i], c == gg.coos[i])
		}
		if reused[i] {
			continue
		}
		for j := range c.Src {
			c.Src[j], c.Dst[j] = ^c.Src[j], ^c.Dst[j]
			if g.Weighted() {
				c.Weight[j] = ^c.Weight[j]
			}
		}
	}
	for i, c := range gg.coos {
		b := basis[i]
		if c.Ordering != b.Ordering || !slices.Equal(c.Src, b.Src) || !slices.Equal(c.Dst, b.Dst) || !slices.Equal(c.Weight, b.Weight) {
			t.Fatalf("basis partition %d changed: Patch wrote into it, or a derived COO aliases it", i)
		}
	}
}

// movedOf returns, in slot order, the slots perm maps to another one, the
// delta's moved vertices.
func movedOf(perm []graph.VertexID) []graph.VertexID {
	var moved []graph.VertexID
	for s, t := range perm {
		if t != graph.VertexID(s) && t != graph.NoVertex {
			moved = append(moved, graph.VertexID(s))
		}
	}
	return moved
}

// swapPerm returns the permutation exchanging each byte-chosen pair, or nil
// for none.
func swapPerm(n, pairs int, pick func() int) []graph.VertexID {
	if pairs == 0 {
		return nil
	}
	perm := make([]graph.VertexID, n)
	for v := range perm {
		perm[v] = graph.VertexID(v)
	}
	for range pairs {
		a, b := pick()%n, pick()%n
		perm[a], perm[b] = perm[b], perm[a]
	}
	return perm
}

// TestPatchMatchesNew patches a VEBO-partitioned power-law graph, weighted
// and unweighted, after a 32-update delta, with and without eight swapped
// vertex pairs (the shape a swap repair leaves).
func TestPatchMatchesNew(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g0, err := gen.PowerLaw(gen.PowerLawConfig{N: 2000, S: 1.0, MaxDegree: 100, ZeroInFrac: 0.1, Seed: 6, Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Reorder(g0, 32, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.Apply(g0, r)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		for _, pairs := range []int{0, 8} {
			rng := rand.New(rand.NewSource(int64(pairs) + 1))
			perm := swapPerm(n, pairs, rng.Int)
			live := g.Edges()
			var adds, dels []graph.Edge
			for range 16 {
				j := rng.Intn(len(live))
				e := live[j]
				live = slices.Delete(live, j, j+1)
				if perm != nil {
					e.Src, e.Dst = perm[e.Src], perm[e.Dst]
				}
				dels = append(dels, e)
				adds = append(adds, graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: int32(1 + rng.Intn(9))})
			}
			if !weighted {
				for i := range adds {
					adds[i].Weight = 1
				}
			}
			extra := []graph.VertexID{graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))}
			checkPatch(t, g, r.Boundaries(), adds, dels, perm, extra)
		}
		hubIntoHole(t, g, r.Boundaries())
	}
}

// hubIntoHole patches after a delta whose one dirty destination is the
// vertex of maximum in-degree, the most runs one destination cuts, while a
// vertex from the first partition moves into a hole in the last: the hole
// is made by deleting the edges of a vertex there from the basis graph. An
// extra dirty vertex makes a partition the patch leaves alone rebuilt.
func hubIntoHole(t *testing.T, g *graph.Graph, bounds []int64) {
	t.Helper()
	n := g.NumVertices()
	hole, mover := graph.VertexID(n-1), graph.VertexID(0)
	var live []graph.Edge
	for _, e := range g.Edges() {
		if e.Src != hole && e.Dst != hole {
			live = append(live, e)
		}
	}
	g, err := graph.FromEdges(n, live, g.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	hub := mover + 1
	for v := range graph.VertexID(n) {
		if v != hole && v != mover && g.InDegree(v) > g.InDegree(hub) {
			hub = v
		}
	}
	if g.InDegree(hub) < 32 {
		t.Fatalf("hub %d has in-degree %d", hub, g.InDegree(hub))
	}
	perm := make([]graph.VertexID, n)
	for v := range perm {
		perm[v] = graph.VertexID(v)
	}
	perm[mover], perm[hole] = hole, graph.NoVertex
	rng := rand.New(rand.NewSource(7))
	var adds, dels []graph.Edge
	srcs, ws := g.InNeighbors(hub), g.InWeights(hub)
	for j := range 16 {
		k := j * len(srcs) / 16
		dels = append(dels, graph.Edge{Src: perm[srcs[k]], Dst: hub, Weight: ws[k]})
		adds = append(adds, graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: hub, Weight: 1})
	}
	var extra []graph.VertexID
	for k := range len(bounds) - 1 {
		lo, hi := graph.VertexID(bounds[k]), graph.VertexID(bounds[k+1])
		in := func(v graph.VertexID) bool { return lo <= v && v < hi }
		if lo < hi && !in(hub) && !in(mover) && !in(hole) && !slices.ContainsFunc(g.OutNeighbors(mover), in) {
			extra = append(extra, lo)
			break
		}
	}
	if extra == nil {
		t.Fatal("every partition holds a change")
	}
	checkPatch(t, g, bounds, adds, dels, perm, extra)
}

// TestPatchSwapsMutualPair swaps two vertices that point at each other and
// at a shared dirty destination, so each dropped destination's new in-row
// names a source its old in-row named too, through a different vertex: the
// basis entry went with the moved source's run, and the new one must be
// inserted, not kept.
func TestPatchSwapsMutualPair(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		es := []graph.Edge{
			{Src: 0, Dst: 1, Weight: 3},
			{Src: 1, Dst: 0, Weight: 3},
			{Src: 0, Dst: 5, Weight: 2},
			{Src: 1, Dst: 5, Weight: 2},
			{Src: 2, Dst: 5, Weight: 1},
			{Src: 5, Dst: 0, Weight: 4},
			{Src: 6, Dst: 1, Weight: 4},
			{Src: 3, Dst: 7, Weight: 1},
		}
		if !weighted {
			for i := range es {
				es[i].Weight = 1
			}
		}
		g, err := graph.FromEdges(8, es, weighted)
		if err != nil {
			t.Fatal(err)
		}
		perm := []graph.VertexID{1, 0, 2, 3, 4, 5, 6, 7}
		adds := []graph.Edge{{Src: 4, Dst: 5, Weight: 1}}
		checkPatch(t, g, []int64{0, 4, 8}, adds, nil, perm, nil)
	}
}

// FuzzGraphGrindPatch patches engines over random multigraphs, weighted and
// unweighted, with random partition bounds, random additions and deletions
// and random swapped vertex pairs, some edgeless movers dropped as holes
// (see checkPatch).
func FuzzGraphGrindPatch(f *testing.F) {
	f.Add(uint8(8), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(1), []byte{0, 0, 0})
	f.Add(uint8(31), []byte{0xff, 0x80, 0x40, 0x20, 0x10, 8, 4, 2, 1, 0, 3, 3, 3})
	f.Add(uint8(20), []byte{40, 1, 2, 1, 2, 1, 2, 3, 4, 5, 2, 9, 9, 1, 7, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, nB uint8, data []byte) {
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		n := 1 + int(nB%48)
		weighted := len(data)%2 == 0
		weight := func() int32 {
			if weighted {
				return int32(next()%4) - 1 // negative and zero weights too
			}
			return 1
		}
		// Few distinct sources: many parallel edges of differing weights.
		edges := make([]graph.Edge, next()%128)
		for j := range edges {
			edges[j] = graph.Edge{Src: graph.VertexID(next() % (1 + n/3)), Dst: graph.VertexID(next() % n), Weight: weight()}
		}
		g, err := graph.FromEdges(n, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		bounds := []int64{0}
		for int(bounds[len(bounds)-1]) < n {
			step := int64(next() % 8) // 0: an empty partition
			if i == len(data) {
				step = int64(n)
			}
			bounds = append(bounds, min(int64(n), bounds[len(bounds)-1]+step))
		}
		perm := swapPerm(n, next()%5, next)
		live := g.Edges()
		var dels []graph.Edge
		for k := next() % 8; k > 0 && len(live) > 0; k-- {
			j := next() % len(live)
			e := live[j]
			live = slices.Delete(live, j, j+1)
			if perm != nil {
				e.Src, e.Dst = perm[e.Src], perm[e.Dst]
			}
			dels = append(dels, e)
		}
		var adds []graph.Edge
		for k := next() % 8; k > 0; k-- {
			adds = append(adds, graph.Edge{Src: graph.VertexID(next() % n), Dst: graph.VertexID(next() % n), Weight: weight()})
		}
		// A moved vertex with no edges may stand for a hole a mover took.
		for v, to := range perm {
			if to != graph.VertexID(v) && g.OutDegree(graph.VertexID(v))+g.InDegree(graph.VertexID(v)) == 0 && next()%2 == 0 {
				perm[v] = graph.NoVertex
			}
		}
		var extra []graph.VertexID
		for k := next() % 3; k > 0; k-- {
			extra = append(extra, graph.VertexID(next()%n))
		}
		checkPatch(t, g, bounds, adds, dels, perm, extra)
	})
}

// TestPatchRejectsMalformedPermutation feeds Patch permutations that map a
// vertex out of range or two vertices to one, and moved-vertex lists its
// permutation contradicts: each is an error, not a misclassified engine.
func TestPatchRejectsMalformedPermutation(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 200, S: 1.0, MaxDegree: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	gg, err := New(g, Config{Topology: top, Partitions: 8, Order: layout.CSROrder})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func(perm []graph.VertexID){
		"out of range":   func(perm []graph.VertexID) { perm[3] = graph.VertexID(n) },
		"far off range":  func(perm []graph.VertexID) { perm[3] = graph.VertexID(n + 50) },
		"not injective":  func(perm []graph.VertexID) { perm[3], perm[150] = 150, 150 },
		"two into holes": func(perm []graph.VertexID) { perm[3], perm[7], perm[150] = 150, 150, graph.NoVertex },
	} {
		perm := make([]graph.VertexID, n)
		for v := range perm {
			perm[v] = graph.VertexID(v)
		}
		bad(perm)
		if _, _, err := gg.Patch(g, graph.Delta{Seg: perm, Moved: movedOf(perm), Grown: []graph.VertexID{3, 7, 150}}); err == nil {
			t.Errorf("a permutation %s was accepted", name)
		}
	}
	swapped := make([]graph.VertexID, n)
	for v := range swapped {
		swapped[v] = graph.VertexID(v)
	}
	swapped[3], swapped[150] = 150, 3
	for name, d := range map[string]graph.Delta{
		"with an unlisted mover":   {Seg: swapped, Moved: []graph.VertexID{3}},
		"with a mover it keeps":    {Seg: swapped, Moved: []graph.VertexID{3, 7, 150}},
		"missing for listed moves": {Moved: []graph.VertexID{3}},
	} {
		if _, _, err := gg.Patch(g, d); err == nil {
			t.Errorf("a delta %s was accepted", name)
		}
	}
}

// TestPatchRejectsHilbertOrder checks that Patch serves CSR-order engines
// only: patching a Hilbert-order engine, even by the identity, is an error.
func TestPatchRejectsHilbertOrder(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 200, S: 1.0, MaxDegree: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gg, err := New(g, Config{Topology: top, Partitions: 8, Order: layout.HilbertOrder})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gg.Patch(g, graph.Delta{}); err == nil {
		t.Error("a Hilbert-order engine was patched")
	}
}
