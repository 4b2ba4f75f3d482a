package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzOverlayRows requires an Overlay to read exactly the rows the
// derivation it stands for writes: for a random weighted or unweighted
// basis with parallel edges and hole slots (empty rows), and slot-space
// deltas of the shape dynamic.Frozen.ChangeSince builds — swaps among
// basis vertices, a vertex moved into a hole (whose slot then has no
// image), adds that reach admitted slots (a vacated slot, a hole, appended
// rows), deletions of live occurrences and parallel adds — every row,
// weight run and degree in both directions, and the edge count, must
// equal those of Patch's result, for an overlay of the basis and
// for one stacked on it by Extend. A basis of 64 or 128 vertices (nB ≥
// 240) fills its bitmaps' last word exactly, so a stacked overlay's reads
// of the rows its basis does not have reach past that word.
func FuzzOverlayRows(f *testing.F) {
	f.Add(uint8(12), uint8(0), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(40), uint8(0x81), []byte{9, 9, 9, 9, 1, 2, 3})
	f.Add(uint8(3), uint8(0x42), []byte{0})
	f.Add(uint8(31), uint8(0xc7), []byte{0xff, 0x80, 0x40, 0x20, 0x10, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, nB, shapeB uint8, data []byte) {
		next := byteStream(data)
		rng := rand.New(rand.NewSource(int64(next())<<16 | int64(next())<<8 | int64(shapeB)))
		n := 1 + int(nB%48)
		if nB >= 240 {
			n = 64 << (nB & 1)
		}
		weighted := shapeB&0x80 != 0
		weight := func() int32 {
			if weighted {
				return 1 + rng.Int31n(4)
			}
			return 1
		}
		// Holes: empty basis rows, the reserved slots of a slot space.
		var filled []VertexID
		for v := range n {
			if n == 1 || rng.Intn(4) != 0 {
				filled = append(filled, VertexID(v))
			}
		}
		var live []Edge
		if len(filled) > 0 {
			for range int(next()) % 96 {
				e := Edge{Src: filled[rng.Intn(len(filled))], Dst: filled[rng.Intn(len(filled))], Weight: weight()}
				live = append(live, e)
				if rng.Intn(6) == 0 {
					live = append(live, e) // a parallel edge
				}
			}
		}
		g, err := FromEdges(n, live, weighted)
		if err != nil {
			t.Fatal(err)
		}
		nNew, d := randomDelta(rng, g, int(shapeB), int(next()), weight)
		want, _, err := g.Patch(nNew, d)
		if err != nil {
			t.Fatalf("valid patch rejected: %v", err)
		}
		ov, err := NewOverlay(g, nNew, d)
		if err != nil {
			t.Fatalf("valid overlay rejected: %v", err)
		}
		checkOverlay(t, ov, want)

		nNew, d = randomDelta(rng, want, int(next()), int(next()), weight)
		want2, _, err := want.Patch(nNew, d)
		if err != nil {
			t.Fatalf("valid patch of the patch rejected: %v", err)
		}
		ov2, err := ov.Extend(nNew, d)
		if err != nil {
			t.Fatalf("valid stacked overlay rejected: %v", err)
		}
		if ov2.Depth() != 2 {
			t.Fatalf("stacked overlay has depth %d", ov2.Depth())
		}
		checkOverlay(t, ov2, want2)
	})
}

// randomDelta returns a vertex count and a slot-space delta over g as
// dynamic.Frozen.ChangeSince builds one: shape's low bits pick the number
// of swaps among g's non-empty rows, bit 2 a vertex moved into an empty
// row (which leaves that hole without an image), bits 4-5 the appended
// rows; size picks the churn. Moved lists the basis slots whose image
// moved, and Grown the slots without a preimage.
func randomDelta(rng *rand.Rand, g *Graph, shape, size int, weight func() int32) (int, Delta) {
	n, nNew := g.NumVertices(), g.NumVertices()+shape>>4&3
	var filled, holes []VertexID
	for v := range VertexID(n) {
		if g.OutDegree(v)+g.InDegree(v) == 0 {
			holes = append(holes, v)
		} else {
			filled = append(filled, v)
		}
	}
	var d Delta
	if shape&3 != 0 && len(filled) > 1 {
		d.Seg = identityPerm(n)
		for range shape & 3 {
			a, b := filled[rng.Intn(len(filled))], filled[rng.Intn(len(filled))]
			d.Seg[a], d.Seg[b] = d.Seg[b], d.Seg[a]
		}
		if len(holes) > 0 && shape&4 != 0 {
			a, h := filled[rng.Intn(len(filled))], holes[rng.Intn(len(holes))]
			d.Seg[a], d.Seg[h] = h, NoVertex
		}
	}
	at := func(v VertexID) VertexID {
		if d.Seg == nil {
			return v
		}
		return d.Seg[v]
	}
	live := g.Edges()
	for range size % 12 {
		if len(live) == 0 {
			break
		}
		j := rng.Intn(len(live))
		e := live[j]
		d.Dels = append(d.Dels, Edge{Src: at(e.Src), Dst: at(e.Dst), Weight: e.Weight})
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	for range size / 12 % 12 {
		e := Edge{Src: VertexID(rng.Intn(nNew)), Dst: VertexID(rng.Intn(nNew)), Weight: weight()}
		d.Adds = append(d.Adds, e)
		if rng.Intn(4) == 0 {
			d.Adds = append(d.Adds, e) // a parallel add
		}
	}
	taken := make([]bool, nNew)
	for s := range VertexID(n) {
		if t := at(s); t != NoVertex {
			taken[t] = true
			if t != s {
				d.Moved = append(d.Moved, s)
			}
		}
	}
	for s, ok := range taken {
		if !ok {
			d.Grown = append(d.Grown, VertexID(s))
		}
	}
	return nNew, d
}

// checkOverlay requires every row, weight run and degree of ov, in both
// directions, and its vertex and edge counts, to equal want's.
func checkOverlay(t *testing.T, ov *Overlay, want *Graph) {
	t.Helper()
	if ov.NumVertices() != want.NumVertices() || ov.NumEdges() != want.NumEdges() {
		t.Fatalf("overlay has %d vertices and %d edges, the derivation %d and %d",
			ov.NumVertices(), ov.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := range VertexID(want.NumVertices()) {
		ids, ws := ov.OutRow(v)
		if !slices.Equal(ids, want.OutNeighbors(v)) || !slices.Equal(ws, want.OutWeights(v)) || ov.OutDegree(v) != want.OutDegree(v) {
			t.Fatalf("out-row %d: overlay %v %v (degree %d), derivation %v %v", v, ids, ws, ov.OutDegree(v), want.OutNeighbors(v), want.OutWeights(v))
		}
		ids, ws = ov.InRow(v)
		if !slices.Equal(ids, want.InNeighbors(v)) || !slices.Equal(ws, want.InWeights(v)) || ov.InDegree(v) != want.InDegree(v) {
			t.Fatalf("in-row %d: overlay %v %v (degree %d), derivation %v %v", v, ids, ws, ov.InDegree(v), want.InNeighbors(v), want.InWeights(v))
		}
	}
}

// TestOverlayRejects pins the checks an overlay adds to the delta checks
// it shares with Patch (TestDeltaRejects): a lineage break, which Patch
// renumbers, has no overlay, whether built on a graph or stacked on
// another overlay by Extend; and Extend runs the shared checks against
// the graph its basis stands for, not the graph under it.
func TestOverlayRejects(t *testing.T) {
	g, err := FromEdges(4, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	broken := Delta{Seg: identityPerm(4), Broken: true}
	if _, _, err := g.Patch(4, broken); err != nil {
		t.Errorf("lineage break rejected by the patch: %v", err)
	}
	if _, err := NewOverlay(g, 4, broken); err == nil {
		t.Error("overlay across a lineage break accepted")
	}
	ov, err := NewOverlay(g, 5, Delta{Adds: []Edge{{Src: 4, Dst: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Extend(5, Delta{Seg: identityPerm(5), Broken: true}); err == nil {
		t.Error("extension across a lineage break accepted")
	}
	// Row 4 and its edge exist in the overlay, not in g.
	if _, err := ov.Extend(4, Delta{}); err == nil {
		t.Error("extension shrinking the overlay's vertex space accepted")
	}
	if _, err := ov.Extend(5, Delta{Dels: []Edge{{Src: 4, Dst: 0, Weight: 1}, {Src: 4, Dst: 0, Weight: 1}}}); err == nil {
		t.Error("extension over-deleting the overlay's row accepted")
	}
	e, err := ov.Extend(5, Delta{Dels: []Edge{{Src: 4, Dst: 0, Weight: 1}}})
	if err != nil {
		t.Fatalf("deletion of the overlay's own edge rejected: %v", err)
	}
	if e.NumEdges() != g.NumEdges() || e.OutDegree(4) != 0 {
		t.Errorf("extension has %d edges and out-degree %d at row 4, want %d and 0", e.NumEdges(), e.OutDegree(4), g.NumEdges())
	}
}
