package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzPatch drives Patch with fuzzed graphs, slot maps, swaps and edge
// churn, using relabel+rebuild over the grown space as the oracle, on both
// routes: the input draws whether a delta breaks its lineage apart from how
// many vertices its slot map moves, so a break that moves a few vertices
// and a lineage delta that moves every one are both reached. Invalid shapes
// the fuzzer produces must be rejected with an error, never a panic or a
// silently wrong graph. One input in four (by length) also retries its
// patch with one extra deletion of an edge that is not live, which must
// fail.
func FuzzPatch(f *testing.F) {
	f.Add(uint8(8), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0})
	f.Add(uint8(31), uint8(7), []byte{0xff, 0x80, 0x40, 0x20, 0x10, 8, 4, 2, 1, 0})
	f.Add(uint8(5), uint8(0), []byte{9, 9, 9, 9, 1, 2})
	// Headroom-growth seeds: a zero mode byte after the edge stream selects
	// the identity-outside-grown-segment injection.
	f.Add(uint8(12), uint8(4), []byte{2, 1, 2, 3, 4, 0, 5, 6, 7, 8, 9})
	f.Add(uint8(6), uint8(2), []byte{1, 3, 1, 2, 0, 4, 6, 1})
	// Extra-deletion seeds (length 6 or 7 mod 8), unweighted and weighted.
	f.Add(uint8(4), uint8(1), []byte{6, 0, 1, 1, 2, 2, 3, 3, 0, 1, 5, 0, 1, 2, 3})
	f.Add(uint8(3), uint8(0), []byte{5, 1, 0, 1, 2, 1, 1, 3, 2, 2, 1, 2, 0, 9})
	// Lineage-break seeds: sparse graphs whose empty rows a shrinking
	// permutation drops, one unweighted and one weighted.
	f.Add(uint8(19), uint8(2), []byte{3, 1, 2, 5, 6, 9, 4, 1, 3, 2, 7, 0, 2, 5, 1, 1, 6, 0, 1, 3})
	f.Add(uint8(11), uint8(5), []byte{2, 2, 4, 1, 7, 3, 1, 1, 8, 2, 3, 6, 1, 4, 0, 9, 2, 1, 1, 5, 0})
	f.Fuzz(func(t *testing.T, nOldB, growB uint8, data []byte) {
		next := byteStream(data)
		nOld := 1 + int(nOldB%32)
		growth := int(growB % 8)
		nNew := nOld + growth
		weighted := len(data)%2 == 0

		// Base graph from the byte stream.
		nEdges := int(next()) % 64
		edges := make([]Edge, 0, nEdges)
		for i := 0; i < nEdges; i++ {
			w := int32(1)
			if weighted {
				w = int32(next()%4) + 1
			}
			edges = append(edges, Edge{
				Src:    VertexID(int(next()) % nOld),
				Dst:    VertexID(int(next()) % nOld),
				Weight: w,
			})
		}
		g, err := FromEdges(nOld, edges, weighted)
		if err != nil {
			t.Fatalf("FromEdges on in-range inputs: %v", err)
		}

		// Slot map shape: one in four inputs takes the headroom-growth form
		// — old IDs untouched (identity prefix), admitted rows in reserved
		// tail slots — which must remap nothing. The rest is a growth shift
		// with byte-chosen holes plus a few swaps, which moves most
		// vertices. Bit 2 of the same byte, independent of both, breaks the
		// lineage.
		mode := next()
		identity, broken := mode%4 == 0, mode&4 != 0
		var holes []VertexID
		var perm []VertexID
		if identity {
			for h := nOld; h < nNew; h++ {
				holes = append(holes, VertexID(h))
			}
			perm = identityPerm(nOld)
		} else {
			used := make(map[VertexID]bool)
			for len(holes) < growth {
				h := VertexID(int(next()) % nNew)
				for used[h] {
					h = (h + 1) % VertexID(nNew)
				}
				used[h] = true
				holes = append(holes, h)
			}
			perm = growthInjection(nOld, nNew, holes)
			for s := int(next()) % 4; s > 0; s-- {
				a, b := int(next())%nOld, int(next())%nOld
				perm[a], perm[b] = perm[b], perm[a]
			}
		}

		// Churn: delete live edges (named in new-ID space), add edges that
		// may touch grown IDs.
		live := g.Edges()
		var dels []Edge
		for i := int(next()) % 8; i > 0 && len(live) > 0; i-- {
			j := int(next()) % len(live)
			e := live[j]
			dels = append(dels, Edge{Src: perm[e.Src], Dst: perm[e.Dst], Weight: e.Weight})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		var adds []Edge
		for i := int(next()) % 8; i > 0; i-- {
			w := int32(1)
			if weighted {
				w = int32(next()%4) + 1
			}
			src := VertexID(int(next()) % nNew)
			if len(holes) > 0 && next()%2 == 0 {
				src = holes[int(next())%len(holes)]
			}
			adds = append(adds, Edge{Src: src, Dst: VertexID(int(next()) % nNew), Weight: w})
		}

		patched, st, err := g.Patch(nNew, permDelta(nOld, adds, dels, perm, broken))
		if err != nil {
			t.Fatalf("valid grown patch rejected (broken=%v): %v", broken, err)
		}
		want, err := FromEdges(nNew, append(applyPermToEdges(live, perm), adds...), weighted)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(patched, want) {
			t.Fatalf("nOld=%d nNew=%d broken=%v: grown perm patch differs from relabel+rebuild", nOld, nNew, broken)
		}
		if covered := st.EdgesCopied + st.EdgesMerged + st.EdgesRemapped; covered < patched.NumEdges() {
			t.Fatalf("stats cover %d of %d edges", covered, patched.NumEdges())
		}
		if identity && st.EdgesRemapped != 0 {
			t.Fatalf("identity slot map remapped %d edges", st.EdgesRemapped)
		}

		// An extra deletion of an edge with no live occurrence: the first
		// (src, dst) pair from a byte-chosen start that has none at the
		// chosen weight.
		if len(data)%8 >= 6 {
			left := make(map[Edge]int)
			for _, e := range want.Edges() {
				left[e]++
			}
			w := int32(1)
			if weighted {
				w = int32(next()%4) + 1
			}
			start := int(next()) + int(next())*nNew
			for i := 0; i < nNew*nNew; i++ {
				p := (start + i) % (nNew * nNew)
				ghost := Edge{Src: VertexID(p / nNew), Dst: VertexID(p % nNew), Weight: w}
				if left[ghost] > 0 {
					continue
				}
				extra := append(append([]Edge(nil), dels...), ghost)
				if _, _, err := g.Patch(nNew, permDelta(nOld, adds, extra, perm, broken)); err == nil {
					t.Fatalf("deletion of non-live edge %+v accepted", ghost)
				}
				break
			}
		}

		// A dropped row: NoVertex is accepted for a row empty on both sides,
		// whose slot then starts empty like any slot without a preimage,
		// and is an error on any other row. A lineage delta reads its slot
		// map only at the moved slots and their images, so there the
		// dropped row is one a move fills: a hole with an image.
		v := VertexID(int(next()) % nOld)
		if !broken {
			var images []VertexID
			for u, s := range perm {
				if s != VertexID(u) && int(s) < nOld {
					images = append(images, s)
				}
			}
			if len(images) > 0 {
				v = images[int(v)%len(images)]
			}
		}
		drop := slices.Clone(perm)
		drop[v] = NoVertex
		relabeled, err := FromEdges(nNew, applyPermToEdges(g.Edges(), perm), weighted)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			adds, dels []Edge
			want       *Graph
		}{{adds, dels, want}, {nil, nil, relabeled}} {
			dropped, _, err := g.Patch(nNew, permDelta(nOld, c.adds, c.dels, drop, broken))
			switch {
			case g.OutDegree(v)+g.InDegree(v) != 0:
				// A lineage delta whose moves leave v unfilled reads no
				// slot map entry at v, so only a filled v is checked.
				if err == nil && (broken || slices.Contains(drop, v)) {
					t.Fatalf("dropping non-empty row %d accepted", v)
				}
			case err != nil:
				t.Fatalf("dropping empty row %d rejected: %v", v, err)
			case !Equal(dropped, c.want):
				t.Fatalf("dropping empty row %d changed the patch", v)
			}
		}

		// A fresh numbering that moves every row, with the churn, on the
		// route the input drew; a permutation that shrinks the vertex
		// space, dropping empty rows to NoVertex, which only a lineage
		// break may; and the empty change, which returns the receiver
		// itself. Each against FromEdges.
		inv := make([]VertexID, nNew)
		for v, s := range perm {
			inv[s] = VertexID(v)
		}
		deleted := applyPermToEdges(dels, inv)
		if nNew > 1 {
			r := 1 + int(next())%(nNew-1)
			fresh := make([]VertexID, nOld)
			for v := range fresh {
				fresh[v] = VertexID((v + r) % nNew)
			}
			checkPatch(t, "fresh numbering", g, nNew, adds, applyPermToEdges(deleted, fresh), fresh, broken, live)
		}
		shrink, nShrink := make([]VertexID, nOld), 0
		for v := range shrink {
			shrink[v] = NoVertex
			if g.OutDegree(VertexID(v))+g.InDegree(VertexID(v)) != 0 || next()%2 == 1 {
				shrink[v] = VertexID(nShrink)
				nShrink++
			}
		}
		if nShrink > 0 && nShrink < nOld {
			rand.New(rand.NewSource(int64(next()))).Shuffle(nOld, func(i, j int) {
				if shrink[i] != NoVertex && shrink[j] != NoVertex {
					shrink[i], shrink[j] = shrink[j], shrink[i]
				}
			})
			var shrunkAdds []Edge
			for _, e := range adds {
				shrunkAdds = append(shrunkAdds, Edge{Src: e.Src % VertexID(nShrink), Dst: e.Dst % VertexID(nShrink), Weight: e.Weight})
			}
			checkPatch(t, "shrinking permutation", g, nShrink, shrunkAdds, applyPermToEdges(deleted, shrink), shrink, true, live)
			if _, _, err := g.Patch(nShrink, permDelta(nOld, nil, nil, shrink, false)); err == nil {
				t.Fatal("shrinking lineage delta accepted")
			}
		}
		for _, id := range [][]VertexID{nil, identityPerm(nOld)} {
			if same, _, err := g.Patch(nOld, permDelta(nOld, nil, nil, id, false)); err != nil || same != g {
				t.Fatalf("empty change (perm %v) returned %p, %v; want the receiver %p", id, same, err, g)
			}
		}

		// The validation surface: malformed deltas must error out.
		if _, _, err := g.Patch(nOld-1, Delta{}); err == nil {
			t.Fatal("shrinking patch accepted")
		}
		if nOld >= 2 {
			bad := slices.Clone(perm)
			bad[1] = bad[0] // collide: no longer injective
			if _, _, err := g.Patch(nNew, permDelta(nOld, nil, nil, bad, broken)); err == nil {
				t.Fatal("non-injective perm accepted")
			}
		}
		if _, _, err := g.Patch(nNew, permDelta(nOld, []Edge{{Src: VertexID(nNew), Dst: 0, Weight: 1}}, nil, perm, broken)); err == nil {
			t.Fatal("out-of-range add accepted")
		}
	})
}

// checkPatch requires g's patch by the delta of (adds, dels, perm) to nNew
// vertices, on the route broken selects, to equal FromEdges over the
// surviving original edges live relabeled by perm, plus adds, and its stats
// to cover every edge.
func checkPatch(t *testing.T, what string, g *Graph, nNew int, adds, dels []Edge, perm []VertexID, broken bool, live []Edge) {
	t.Helper()
	got, st, err := g.Patch(nNew, permDelta(g.NumVertices(), adds, dels, perm, broken))
	if err != nil {
		t.Fatalf("%s (broken=%v): valid patch rejected: %v", what, broken, err)
	}
	want, err := FromEdges(nNew, append(applyPermToEdges(live, perm), adds...), g.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatalf("%s (broken=%v): patch differs from relabel+rebuild", what, broken)
	}
	if covered := st.EdgesCopied + st.EdgesMerged + st.EdgesRemapped; covered < got.NumEdges() {
		t.Fatalf("%s: stats cover %d of %d edges", what, covered, got.NumEdges())
	}
}

// permDelta returns the slot-space Delta of the change adds, dels under the
// slot map perm over n basis vertices (nil: the identity): a lineage break
// with perm as its full map when broken, and otherwise a delta whose Moved
// lists perm's slots that map elsewhere than themselves or NoVertex. The
// caller draws broken apart from how many vertices perm moves.
func permDelta(n int, adds, dels []Edge, perm []VertexID, broken bool) Delta {
	d := Delta{Adds: adds, Dels: dels, Seg: perm, Broken: broken}
	if broken {
		if perm == nil {
			d.Seg = identityPerm(n)
		}
		return d
	}
	for v, s := range perm {
		if s != NoVertex && s != VertexID(v) {
			d.Moved = append(d.Moved, VertexID(v))
		}
	}
	return d
}

// identityPerm returns the identity permutation on n vertices.
func identityPerm(n int) []VertexID {
	perm := make([]VertexID, n)
	for v := range perm {
		perm[v] = VertexID(v)
	}
	return perm
}

// byteStream returns a cursor over data that yields 0 forever once
// exhausted, keeping derivations total on arbitrary fuzz inputs.
func byteStream(data []byte) func() byte {
	i := 0
	return func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
}

// FuzzPatchLineage drives chains of up to 48 derivations, each patching the
// previous one's output: edge churn on the identity numbering, swap
// injections with churn, headroom growth and write-heavy churn. The input
// bytes pick the operations and their sizes; a generator seeded from them
// picks the edges. Small deltas on a base graph of up to 1018 vertices and
// 64–2104 edges leave folding to the chunk count, and the rare write-heavy
// steps cross the dead-edge threshold. After every step the result must equal a
// FromEdges build of the oracle multiset and respect the fold rule, and at
// the end every graph of the chain must still equal the scratch build taken
// when it was derived: a derivation never writes storage another graph
// reads.
func FuzzPatchLineage(f *testing.F) {
	f.Add(uint8(20), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(9), []byte{1, 7, 2, 1, 5, 0, 3, 3, 9, 8, 0, 2, 4, 6, 1, 1, 2, 7})
	f.Add(uint8(200), []byte{3, 200, 17, 40, 3, 9, 40, 2, 3, 5, 1, 0, 0, 3, 255, 1})
	f.Add(uint8(127), []byte{0xff, 0x80, 0x40, 0x20, 0x10, 8, 4, 2, 1, 0, 0x11, 0x22, 0x33})
	f.Fuzz(func(t *testing.T, nB uint8, data []byte) {
		next := byteStream(data)
		rng := rand.New(rand.NewSource(int64(next())<<8 | int64(next())))
		n := 2 + 8*int(nB%128)
		weighted := nB&0x80 != 0
		randEdge := func(n int) Edge {
			w := int32(1)
			if weighted {
				w = 1 + rng.Int31n(4)
			}
			return Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: w}
		}
		live := make([]Edge, 64+8*int(next()))
		for i := range live {
			live[i] = randEdge(n)
		}
		g, err := FromEdges(n, live, weighted)
		if err != nil {
			t.Fatal(err)
		}
		chain, copies := []*Graph{g}, []*Graph{g}
		steps := int(next()) % 49
		for step := 0; step < steps; step++ {
			op := next() % 16
			nNew := n
			var perm []VertexID
			churn := int(next()) % 3
			switch op {
			case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9: // churn on the identity numbering
			case 10, 11, 12: // swap injection
				perm = make([]VertexID, n)
				for v := range perm {
					perm[v] = VertexID(v)
				}
				for s := 1 + int(next())%3; s > 0; s-- {
					a, b := rng.Intn(n), rng.Intn(n)
					perm[a], perm[b] = perm[b], perm[a]
				}
				live = applyPermToEdges(live, perm)
			case 13, 14: // headroom growth: new rows past n, reached only by adds
				nNew = n + 1 + int(next())%4
			default: // write-heavy churn
				churn = len(live)/2 + int(next())%16
			}
			var adds, dels []Edge
			for i := 0; i < churn && len(live) > 0; i++ {
				j := rng.Intn(len(live))
				dels = append(dels, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for i := 0; i < churn; i++ {
				adds = append(adds, randEdge(nNew))
			}
			h, st, err := g.Patch(nNew, permDelta(n, adds, dels, perm, false))
			if err != nil {
				t.Fatalf("step %d: valid patch rejected: %v", step, err)
			}
			live = append(live, adds...)
			want, err := FromEdges(nNew, live, weighted)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(h, want) {
				t.Fatalf("step %d (op %d): derived graph differs from a scratch build", step, op)
			}
			if covered := st.EdgesCopied + st.EdgesMerged + st.EdgesRemapped; covered < 2*h.NumEdges() {
				t.Fatalf("step %d: stats cover %d of %d edges", step, covered, 2*h.NumEdges())
			}
			for _, a := range []*adj{&h.out, &h.in} {
				if len(a.ids) > maxChunks {
					t.Fatalf("step %d: %d chunks, more than %d", step, len(a.ids), maxChunks)
				}
				var held int64
				for _, c := range a.ids {
					held += int64(len(c))
				}
				if live := a.off[nNew]; 100*(held-live) > foldDeadPct*live {
					t.Fatalf("step %d: %d dead edges for %d live ones", step, held-live, live)
				}
			}
			chain, copies = append(chain, h), append(copies, want)
			g, n = h, nNew
		}
		for i := range chain {
			if !Equal(chain[i], copies[i]) {
				t.Fatalf("graph %d of the chain changed after it was derived", i)
			}
		}
	})
}

// FuzzMergeRow holds mergeRow against mergeRowOracle, the element-wise
// merge it replaced: on weighted and unweighted rows, with adds equal to
// deleted keys, runs of duplicate keys and deletions that match nothing,
// the rows written and the error texts must be equal, and no case may
// write past dst.
func FuzzMergeRow(f *testing.F) {
	f.Add(byte(0), []byte{3, 1, 2, 2, 4, 2, 0, 1, 3, 1, 4, 9})
	f.Add(byte(1), []byte{5, 1, 3, 2, 4, 1, 5, 0, 0, 2, 1, 1, 2, 2, 3, 3})
	f.Add(byte(1), []byte{4, 0, 0, 0, 1, 0, 2, 0, 3, 3, 128, 5, 1, 1, 9, 2, 0, 6})
	f.Add(byte(0), []byte{0, 0, 3, 1, 1, 2})
	weights := []int32{1, 2, -3, 0, math.MinInt32, math.MaxInt32}
	f.Fuzz(func(t *testing.T, shape byte, data []byte) {
		next := byteStream(data)
		weighted := shape&1 != 0
		key := func() uint64 {
			w := int32(1)
			if weighted {
				w = weights[int(next())%len(weights)]
			}
			return rowKey(VertexID(next()%6), w)
		}
		var base []uint64
		for i := int(next() % 24); i > 0; i-- {
			base = append(base, key())
		}
		slices.Sort(base)
		var adds, dels []uint64
		for i := int(next() % 12); i > 0; i-- {
			switch op := next(); {
			case op < 96 && len(base) > 0: // a live deletion, maybe a repeat
				dels = append(dels, base[int(next())%len(base)])
			case op < 128: // a deletion that may match nothing
				dels = append(dels, key())
			case op < 160 && len(dels) > 0: // an add equal to a deleted key
				adds = append(adds, dels[int(next())%len(dels)])
			default: // a run of duplicate adds
				k := key()
				for r := 1 + int(op%3); r > 0; r-- {
					adds = append(adds, k)
				}
			}
		}
		slices.Sort(adds)
		slices.Sort(dels)
		n := len(base) + len(adds) - len(dels)
		if n < 0 {
			return
		}
		ids, ws := make([]VertexID, len(base)), make([]int32, len(base))
		for i, k := range base {
			ids[i], ws[i] = keyEntry(k)
		}
		const guard = 4 // sentinel entries past dst
		run := func(merge func([]VertexID, []int32, []VertexID, []int32, []uint64, []uint64) error) ([]VertexID, []int32, error) {
			dst := slices.Repeat([]VertexID{NoVertex}, n+guard)
			var dw []int32
			if weighted {
				dw = slices.Repeat([]int32{-7}, n+guard)
			}
			var cw []int32 // dw capped at dst's length
			if weighted {
				cw = dw[:n:n]
			}
			err := merge(dst[:n:n], cw, ids, ws, adds, dels)
			for i := n; i < n+guard; i++ {
				if dst[i] != NoVertex || weighted && dw[i] != -7 {
					t.Fatalf("merge wrote past dst at %d", i)
				}
			}
			return dst[:n], sub(dw, 0, int64(n)), err
		}
		gotIDs, gotWs, err := run(mergeRow)
		wantIDs, wantWs, wantErr := run(mergeRowOracle)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("mergeRow error %v, oracle %v", err, wantErr)
		}
		if err == nil && (!slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotWs, wantWs)) {
			t.Fatalf("mergeRow wrote %v %v, oracle %v %v", gotIDs, gotWs, wantIDs, wantWs)
		}
	})
}

// mergeRowOracle is the element-wise merge mergeRow replaced: one pass over
// the basis row, writing each entry after the adds that sort before it.
func mergeRowOracle(dst []VertexID, dw []int32, base []VertexID, bw []int32, adds, dels []uint64) error {
	k, a, d := 0, 0, 0
	for i, id := range base {
		bk := rowKey(id, bw[i])
		if d < len(dels) && dels[d] <= bk {
			if dels[d] < bk {
				return unmatched(base, bw, dels)
			}
			d++
			continue
		}
		for ; a < len(adds) && adds[a] < bk; a, k = a+1, k+1 {
			if k == len(dst) {
				return unmatched(base, bw, dels)
			}
			aid, aw := keyEntry(adds[a])
			put(dst, dw, k, aid, aw)
		}
		if k == len(dst) {
			return unmatched(base, bw, dels)
		}
		put(dst, dw, k, id, bw[i])
		k++
	}
	if d < len(dels) {
		return unmatched(base, bw, dels)
	}
	for ; a < len(adds); a, k = a+1, k+1 {
		aid, aw := keyEntry(adds[a])
		put(dst, dw, k, aid, aw)
	}
	return nil
}
