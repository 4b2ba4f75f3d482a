package layout

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// csrCOO returns the CSR-order COO of es, weighted by unit's prefix when
// unit is not nil.
func csrCOO(es []graph.Edge, unit []int32) *COO {
	slices.SortFunc(es, graph.CompareEdges)
	c := newCOO(int64(len(es)), CSROrder, unit)
	for i, e := range es {
		c.Src[i], c.Dst[i] = e.Src, e.Dst
		if unit == nil {
			c.Weight[i] = e.Weight
		}
	}
	return c
}

// entry returns c's entry i as an edge.
func (c *COO) entry(i int) graph.Edge {
	return graph.Edge{Src: c.Src[i], Dst: c.Dst[i], Weight: c.Weight[i]}
}

// FuzzMergeCSR checks MergeCSR on random COOs with few distinct sources and
// destinations (long runs, many parallel entries), weighted with negative
// and zero weights or on unit weights, against its oracle: the entries no
// cut covers, sorted together with the inserts. Cuts are raw index runs
// (overlapping ones included) and the runs SrcCut and EntryCuts find for
// random keys, each checked against a scan of the COO. Cuts out of order or
// past the end, inserts out of order, short unit weights and a Hilbert-order
// base must be rejected.
func FuzzMergeCSR(f *testing.F) {
	// An insert past the run before a cut belongs after the run behind it.
	f.Add([]byte{1, 3, 0, 0, 1, 0, 2, 0, 1, 0, 1, 1, 1, 2, 1})
	f.Add([]byte{0, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 4, 0, 3, 9, 1, 2, 2, 5, 3, 1, 3, 6})
	f.Add([]byte{1, 63, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 5, 2, 7, 2, 7, 1, 0, 40, 9, 8, 8, 8})
	f.Add([]byte{0, 0, 0, 3, 2, 1, 1})
	f.Add([]byte{1, 20, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		weighted := next()%2 == 0
		edge := func() graph.Edge {
			e := graph.Edge{Src: graph.VertexID(next() % 8), Dst: graph.VertexID(next() % 8), Weight: 1}
			if weighted {
				e.Weight = int32(next()%5) - 2
			}
			return e
		}
		var unit []int32
		if !weighted {
			unit = graph.OnesFor(nil, 128)
		}
		base := make([]graph.Edge, next()%64)
		for j := range base {
			base[j] = edge()
		}
		c := csrCOO(base, unit)
		n := c.Len()

		var cuts []Cut
		for k := next() % 6; k > 0; k-- {
			switch next() % 3 {
			case 0:
				lo := next() % (n + 1)
				cuts = append(cuts, Cut{lo, min(n, lo+next()%8)})
			case 1:
				s := graph.VertexID(next() % 8)
				got := c.SrcCut(s)
				lo := 0
				for lo < n && c.Src[lo] < s {
					lo++
				}
				hi := lo
				for hi < n && c.Src[hi] == s {
					hi++
				}
				if got != (Cut{lo, hi}) {
					t.Fatalf("SrcCut(%d) = %v, want %v", s, got, Cut{lo, hi})
				}
				cuts = append(cuts, got)
			default:
				d := graph.VertexID(next() % 8)
				row := make([]graph.Edge, next()%6)
				for j := range row {
					row[j] = edge()
					row[j].Dst = d
				}
				slices.SortFunc(row, graph.CompareEdges)
				srcs, ws := make([]graph.VertexID, len(row)), make([]int32, len(row))
				for j, e := range row {
					srcs[j], ws[j] = e.Src, e.Weight
				}
				got := c.EntryCuts(nil, d, srcs, ws)
				// Each requested entry cuts one present, unclaimed copy.
				want := 0
				have := map[graph.Edge]int{}
				for j := range n {
					have[c.entry(j)]++
				}
				for _, e := range row {
					if have[e] > 0 {
						have[e]--
						want++
					}
				}
				covered := 0
				for j, cut := range got {
					if cut.Lo >= cut.Hi || j > 0 && cut.Lo < got[j-1].Hi {
						t.Fatalf("EntryCuts(%d, %v) = %v: empty or overlapping runs", d, row, got)
					}
					for x := cut.Lo; x < cut.Hi; x++ {
						if !slices.Contains(row, c.entry(x)) {
							t.Fatalf("EntryCuts(%d, %v) cut unrequested entry %v", d, row, c.entry(x))
						}
					}
					covered += cut.Hi - cut.Lo
				}
				if covered != want {
					t.Fatalf("EntryCuts(%d, %v) = %v covers %d entries, want %d", d, row, got, covered, want)
				}
				cuts = append(cuts, got...)
			}
		}
		slices.SortStableFunc(cuts, func(a, b Cut) int { return a.Lo - b.Lo })
		ins := make([]graph.Edge, next()%32)
		for j := range ins {
			ins[j] = edge()
		}
		slices.SortFunc(ins, graph.CompareEdges)

		cut := make([]bool, n)
		for _, x := range cuts {
			for j := x.Lo; j < x.Hi; j++ {
				cut[j] = true
			}
		}
		want := slices.Clone(ins)
		for j := range n {
			if !cut[j] {
				want = append(want, c.entry(j))
			}
		}
		slices.SortFunc(want, graph.CompareEdges)

		got, err := MergeCSR(c, cuts, ins, unit)
		if err != nil {
			t.Fatal(err)
		}
		if got.Ordering != CSROrder || got.Len() != len(want) {
			t.Fatalf("merged %v COO of %d entries, want csr of %d", got.Ordering, got.Len(), len(want))
		}
		for j, e := range want {
			if got.entry(j) != e {
				t.Fatalf("entry %d = %v, want %v (cuts %v, inserts %v)", j, got.entry(j), e, cuts, ins)
			}
		}
		if m := got.Len(); unit != nil && m > 0 && (&got.Weight[0] != &unit[0] || cap(got.Weight) != m) {
			t.Fatal("unit weights are not the unit slice's prefix")
		}

		if len(cuts) > 1 && cuts[0].Lo < cuts[len(cuts)-1].Lo {
			rev := slices.Clone(cuts)
			slices.Reverse(rev)
			if _, err := MergeCSR(c, rev, ins, unit); err == nil {
				t.Fatalf("cuts out of order accepted: %v", cuts)
			}
		}
		if _, err := MergeCSR(c, append(slices.Clone(cuts), Cut{n, n + 1}), ins, unit); err == nil {
			t.Fatal("a cut past the end was accepted")
		}
		if len(ins) > 1 && graph.CompareEdges(ins[0], ins[len(ins)-1]) < 0 {
			rev := slices.Clone(ins)
			slices.Reverse(rev)
			if _, err := MergeCSR(c, cuts, rev, unit); err == nil {
				t.Fatalf("inserts out of order accepted: %v", rev)
			}
		}
		if m := len(want); unit != nil && m > 0 {
			if _, err := MergeCSR(c, cuts, ins, unit[:m-1]); err == nil {
				t.Fatal("short unit weights accepted")
			}
		}
		h := *c
		h.Ordering = HilbertOrder
		if _, err := MergeCSR(&h, cuts, ins, unit); err == nil {
			t.Fatal("a Hilbert-order base was accepted")
		}
	})
}
