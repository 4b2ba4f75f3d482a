package dynamic

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzFrozenSince decodes bytes into programs of insertions, selector and
// blind deletions, Grow and direct Compact calls on a small weighted
// multigraph whose log bound also compacts automatically. Every step is
// captured with the snapshot Materialize builds at its epoch, and
// checkSince holds Since against those snapshots: exact for capture pairs
// at most one compaction apart, refused beyond. After every step the live
// edge count must agree across the graph, its capture and the snapshot, and
// HasEdge must agree with the snapshot on the pair the step touched.
func FuzzFrozenSince(f *testing.F) {
	f.Add([]byte{6, 8, 1, 2, 1, 3, 4, 2, 0, 0, 1, 2, 3, 1, 6, 0, 0, 2, 5, 9, 3, 6, 0, 1, 1})
	f.Add([]byte{9, 3, 0, 1, 1, 0, 1, 1, 0, 1, 2, 3, 0, 0, 3, 1, 3, 4, 0, 2, 0, 3, 1})
	f.Add([]byte{4, 20, 1, 1, 3, 2, 2, 2, 0, 3, 3, 5, 1, 6, 6, 2, 4, 6, 3, 5, 2, 7, 1})
	// Three parallel (0,0) insertions compacted into the base, then one of
	// them deleted: HasEdge must count the weight's cancellation once.
	f.Add([]byte("0000000000000007$"))
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			i++
			return data[i-1]
		}
		n := 4 + int(next()%8)
		var edges []graph.Edge
		for m := int(next() % 24); m > 0; m-- {
			edges = append(edges, graph.Edge{
				Src: graph.VertexID(int(next()) % n), Dst: graph.VertexID(int(next()) % n),
				Weight: int32(1 + next()%3),
			})
		}
		g, err := graph.FromEdges(n, edges, true)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(g, Config{Partitions: 2, CompactEvery: 3 + int(next()%12)})
		if err != nil {
			t.Fatal(err)
		}
		caps := []frozenCapture{{d.Freeze(), d.Snapshot()}}
		for step := 0; step < 48 && i < len(data); step++ {
			var touched *graph.EdgeUpdate
			switch op := next() % 8; {
			case op < 4:
				u := graph.EdgeUpdate{
					Src: graph.VertexID(int(next()) % d.n), Dst: graph.VertexID(int(next()) % d.n),
					Weight: int32(next() % 4),
				}
				if _, err := d.ApplyBatch([]graph.EdgeUpdate{u}); err != nil {
					t.Fatal(err)
				}
				touched = &u
			case op < 6:
				// Delete a live edge; a zero selector lets the graph pick
				// the occurrence.
				live := d.Snapshot().Edges()
				if len(live) == 0 {
					continue
				}
				e := live[int(next())%len(live)]
				u := graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Del: true}
				if op == 5 {
					u.Weight = 0
				}
				if _, err := d.ApplyBatch([]graph.EdgeUpdate{u}); err != nil {
					t.Fatal(err)
				}
				touched = &u
			case op == 6:
				d.Grow(1 + int(next()%3))
			default:
				d.Compact()
			}
			f, snap := d.Freeze(), d.Snapshot()
			if m := d.NumEdges(); f.NumEdges() != m || snap.NumEdges() != m {
				t.Fatalf("step %d: NumEdges graph %d, capture %d, snapshot %d", step, m, f.NumEdges(), snap.NumEdges())
			}
			if u := touched; u != nil && d.HasEdge(u.Src, u.Dst) != snap.HasEdge(u.Src, u.Dst) {
				t.Fatalf("step %d: HasEdge(%d,%d) = %v, snapshot says %v",
					step, u.Src, u.Dst, d.HasEdge(u.Src, u.Dst), snap.HasEdge(u.Src, u.Dst))
			}
			caps = append(caps, frozenCapture{f, snap})
		}
		checkSince(t, caps)
	})
}

// FuzzNetEdges holds netEdges against netEdgesOracle, the comparator sort
// it replaced, element for element. Bytes decode into entries split over
// two plus and two minus runs, the shape of a delta spanning one
// compaction, on few endpoints so parallel entries and cancellations are
// common, with weights from the full int32 range: zero, negative and both
// extremes.
func FuzzNetEdges(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 1, 2, 3, 8, 1, 2, 3, 12, 2, 1, 4})
	f.Add([]byte{1, 0, 0, 5, 9, 0, 0, 5, 3, 0, 0, 6, 2, 0, 0, 7, 5, 3, 3, 2})
	f.Add([]byte{7, 200, 17, 1, 6, 200, 17, 1, 4, 9, 9, 255, 1, 9, 9, 254, 3, 1, 1, 128})
	weights := []int32{1, 0, -1, 2, -2, 3, math.MinInt32, math.MaxInt32, math.MinInt32 + 1, math.MaxInt32 - 1, 1 << 16, -1 << 16}
	f.Fuzz(func(t *testing.T, data []byte) {
		var plus, minus [2][]graph.Edge
		for i := 0; i+4 <= len(data); i += 4 {
			op, b := data[i], data[i+3]
			w := weights[int(b)%len(weights)]
			if b >= 128 {
				w = int32(uint32(b)<<24 | uint32(op)<<8 | uint32(data[i+1]))
			}
			e := graph.Edge{Src: graph.VertexID(data[i+1] % 5), Dst: graph.VertexID(data[i+2] % 5), Weight: w}
			if op&4 != 0 {
				e.Src |= graph.VertexID(data[i+2]) << 16 // a high-byte ID
			}
			if op&1 == 0 {
				plus[op>>1&1] = append(plus[op>>1&1], e)
			} else {
				minus[op>>1&1] = append(minus[op>>1&1], e)
			}
		}
		adds, dels := netEdges(plus[:], minus[:])
		wantAdds, wantDels := netEdgesOracle(plus[:], minus[:])
		if !slices.Equal(adds, wantAdds) || !slices.Equal(dels, wantDels) {
			t.Fatalf("netEdges(%v, %v) = %v, %v; oracle %v, %v", plus, minus, adds, dels, wantAdds, wantDels)
		}
	})
}

// netEdgesOracle is the comparator netting netEdges replaced: one sort of
// every signed entry by (Src, Dst, Weight), then per triple the summed
// sign, unrolled into sorted adds (positive) and dels (negative).
func netEdgesOracle(plus, minus [][]graph.Edge) (adds, dels []graph.Edge) {
	type signed struct {
		key  uint64 // Src<<32 | Dst
		w    int32
		sign int32
	}
	var es []signed
	put := func(runs [][]graph.Edge, sign int32) {
		for _, r := range runs {
			for _, e := range r {
				es = append(es, signed{uint64(e.Src)<<32 | uint64(e.Dst), e.Weight, sign})
			}
		}
	}
	put(plus, 1)
	put(minus, -1)
	slices.SortFunc(es, func(a, b signed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})
	for i := 0; i < len(es); {
		c, j := int32(0), i
		for ; j < len(es) && es[j].key == es[i].key && es[j].w == es[i].w; j++ {
			c += es[j].sign
		}
		e := graph.Edge{Src: graph.VertexID(es[i].key >> 32), Dst: graph.VertexID(uint32(es[i].key)), Weight: es[i].w}
		for ; c > 0; c-- {
			adds = append(adds, e)
		}
		for ; c < 0; c++ {
			dels = append(dels, e)
		}
		i = j
	}
	return adds, dels
}
