// Package layout materializes COO (coordinate-format) edge arrays in the
// traversal orders studied in Section V-G of the paper: CSR order (edges
// sorted by source vertex) and Hilbert space-filling curve order. GraphGrind-style engines traverse the COO directly for dense
// frontiers, so the edge order determines the memory-access pattern.
package layout

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/hilbert"
	"repro/internal/sched"
)

// Order selects a COO edge ordering.
type Order int

const (
	// CSROrder sorts edges by (source, destination): the traversal order of
	// a CSR walk by increasing source ID.
	CSROrder Order = iota
	// HilbertOrder sorts edges by their position along the Hilbert curve
	// over the (source, destination) grid.
	HilbertOrder
)

func (o Order) String() string {
	switch o {
	case CSROrder:
		return "csr"
	case HilbertOrder:
		return "hilbert"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// COO is a coordinate-format edge list with parallel arrays.
type COO struct {
	Src, Dst []graph.VertexID
	Weight   []int32
	Ordering Order
}

// Len returns the number of edges.
func (c *COO) Len() int { return len(c.Src) }

// Range is a half-open destination-vertex range [Lo, Hi).
type Range struct {
	Lo, Hi graph.VertexID
}

// Build materializes g's edges as a COO in the requested order.
func Build(g *graph.Graph, o Order) (*COO, error) {
	return BuildRange(g, 0, graph.VertexID(g.NumVertices()), o)
}

// BuildRange materializes the in-edges of the destination range [lo, hi) in
// the requested order: BuildRanges over the one range.
func BuildRange(g *graph.Graph, lo, hi graph.VertexID, o Order) (*COO, error) {
	cs, _, err := BuildRanges(g, []Range{{lo, hi}}, o, 1)
	if err != nil {
		return nil, err
	}
	return cs[0], nil
}

// BuildRanges materializes the in-edges of each of the disjoint destination
// ranges as one COO in order o. GraphGrind builds one COO per partition.
//
// Every order is the stable sort, by the order's key, of the range's
// in-edges in CSC order (destination-major, and by (source, weight) within
// a destination), so parallel edges keep their weight order. CSR order needs
// no sort: g's out-edge rows list their destinations by (destination,
// weight), so scattering the rows of increasing sources into the COOs of the
// ranges their destinations fall in writes every COO in (source,
// destination, weight) order. That is one serial pass over the out-edges,
// whatever the number of ranges. Hilbert order sorts (curve index,
// position) pairs range by range, on sched.Workers(workers, len(ranges), 1)
// goroutines, each with its own scratch.
//
// The COOs of an unweighted graph take their weights as prefixes of one
// all-ones slice, which is returned so that an engine lineage derived from
// them shares it (nil for a weighted graph).
func BuildRanges(g *graph.Graph, ranges []Range, o Order, workers int) ([]*COO, []int32, error) {
	off := g.InOffsets()
	var longest int64
	for _, r := range ranges {
		if r.Lo > r.Hi || int(r.Hi) > g.NumVertices() {
			return nil, nil, fmt.Errorf("layout: invalid range [%d,%d)", r.Lo, r.Hi)
		}
		longest = max(longest, off[r.Hi]-off[r.Lo])
	}
	if o == HilbertOrder && longest > math.MaxUint32 {
		return nil, nil, fmt.Errorf("layout: a range has %d edges, more than a position holds", longest)
	}
	var unit []int32 // the weights of every COO; nil: each COO has its own
	if !g.Weighted() {
		unit = graph.OnesFor(nil, longest)
	}
	coos := make([]*COO, len(ranges))
	switch o {
	case CSROrder:
		if err := gatherCSR(g, ranges, coos, unit); err != nil {
			return nil, nil, err
		}
	case HilbertOrder:
		builders := make([]builder, sched.Workers(workers, len(ranges), 1))
		sched.DynamicChunks(len(builders), len(ranges), 1, func(w, i, _ int) {
			coos[i] = builders[w].build(g, ranges[i], unit)
		})
	default:
		return nil, nil, fmt.Errorf("layout: unknown order %v", o)
	}
	return coos, unit, nil
}

// newCOO allocates an m-edge COO whose weights are unit's prefix, or an
// array of their own when unit is nil.
func newCOO(m int64, o Order, unit []int32) *COO {
	ids := make([]graph.VertexID, 2*m)
	c := &COO{Src: ids[:m:m], Dst: ids[m:], Ordering: o}
	if unit != nil {
		c.Weight = unit[:m:m]
	} else {
		c.Weight = make([]int32, m)
	}
	return c
}

// gatherCSR fills the CSR-order COOs of ranges in one pass over g's
// out-edge rows (see BuildRanges), each row clipped by binary search to the
// span of the ranges.
func gatherCSR(g *graph.Graph, ranges []Range, coos []*COO, unit []int32) error {
	if len(ranges) == 0 {
		return nil
	}
	off := g.InOffsets()
	// owner[v] is 1 + the index of v's range, or 0 for none; [lo, hi) is
	// the span of the non-empty ranges.
	owner := make([]int32, g.NumVertices())
	lo, hi := graph.VertexID(g.NumVertices()), graph.VertexID(0)
	for i, r := range ranges {
		coos[i] = newCOO(off[r.Hi]-off[r.Lo], CSROrder, unit)
		if r.Lo < r.Hi {
			lo, hi = min(lo, r.Lo), max(hi, r.Hi)
		}
		for v := r.Lo; v < r.Hi; v++ {
			if owner[v] != 0 {
				return fmt.Errorf("layout: ranges [%d,%d) and [%d,%d) overlap", ranges[owner[v]-1].Lo, ranges[owner[v]-1].Hi, r.Lo, r.Hi)
			}
			owner[v] = int32(i + 1)
		}
	}
	next := make([]int64, len(ranges))
	weighted := unit == nil
	for s := range graph.VertexID(g.NumVertices()) {
		row, ws := g.OutNeighbors(s), g.OutWeights(s)
		j, _ := slices.BinarySearch(row, lo)
		for ; j < len(row) && row[j] < hi; j++ {
			d := row[j]
			r := owner[d] - 1
			if r < 0 {
				continue
			}
			c, p := coos[r], next[r]
			c.Src[p], c.Dst[p] = s, d
			if weighted {
				c.Weight[p] = ws[j]
			}
			next[r] = p + 1
		}
	}
	return nil
}

// Cut is the half-open run [Lo, Hi) of a COO's entries that MergeCSR drops.
type Cut struct {
	Lo, Hi int
}

// SrcCut returns the run of c's entries with source s. c is in CSR order.
func (c *COO) SrcCut(s graph.VertexID) Cut {
	lo := gallop(c.Src, s, false)
	return Cut{lo, lo + gallop(c.Src[lo:], s, true)}
}

// EntryCuts appends to cuts, in order, a cut of one of c's entries (s, d, w)
// for each s of srcs and w of ws, which are sorted by (source, weight) as an
// in-row is: k equal pairs cut k entries. A pair c lacks cuts nothing. Each
// entry is found by galloping forward from the last, so an in-row costs
// O(log gap) probes per entry, not a search of the whole COO. c is in CSR
// order.
func (c *COO) EntryCuts(cuts []Cut, d graph.VertexID, srcs []graph.VertexID, ws []int32) []Cut {
	i := 0
	for j, s := range srcs {
		e := graph.Edge{Src: s, Dst: d, Weight: ws[j]}
		i = c.place(i, c.Len(), e)
		if i < c.Len() && c.Src[i] == s && c.Dst[i] == d && c.Weight[i] == e.Weight {
			cuts = append(cuts, Cut{i, i + 1})
			i++
		}
	}
	return cuts
}

// place returns the index of the first of c's entries in [lo, hi) not
// ordered before e, searching the Src run of e's source, then the Dst run of
// its destination, then the weights. c is in CSR order.
func (c *COO) place(lo, hi int, e graph.Edge) int {
	lo += gallop(c.Src[lo:hi], e.Src, false)
	hi = lo + gallop(c.Src[lo:hi], e.Src, true)
	lo += gallop(c.Dst[lo:hi], e.Dst, false)
	hi = lo + gallop(c.Dst[lo:hi], e.Dst, true)
	return lo + gallop(c.Weight[lo:hi], e.Weight, false)
}

// gallop returns the number of xs's leading entries less than x, or with
// orEqual, not greater than x; xs is sorted. It probes the 1st, 3rd, 7th,
// ... entries, then binary-searches the last gap, so an answer k costs
// O(log k) probes, all near xs's start when k is small.
func gallop[T cmp.Ordered](xs []T, x T, orEqual bool) int {
	lo, step := 0, 1 // xs[:lo] are before x
	for lo+step <= len(xs) {
		if y := xs[lo+step-1]; y > x || y == x && !orEqual {
			break
		}
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(xs))
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if y := xs[h]; y > x || y == x && !orEqual {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return lo
}

// MergeCSR returns the CSR-order COO of base's entries outside cuts merged
// with ins, in (source, destination, weight) order: a patched partition's
// COO derived from its basis's. cuts must be sorted by Lo and may overlap;
// ins must be sorted by (Src, Dst, Weight), Weight signed, as
// graph.SortEdges leaves them. One forward pass copies each run of base
// between change points whole; an insert finds its place by a galloping
// search from the last change point. The weights are unit's prefix, as in
// a built COO, when unit is not nil (ins' weights are then taken to be 1),
// and otherwise an array of the COO's own.
func MergeCSR(base *COO, cuts []Cut, ins []graph.Edge, unit []int32) (*COO, error) {
	if base.Ordering != CSROrder {
		return nil, fmt.Errorf("layout: merge into a %v COO", base.Ordering)
	}
	nb, kept, end := base.Len(), base.Len(), 0 // end: the furthest cut so far
	for i, c := range cuts {
		if c.Lo < 0 || c.Lo > c.Hi || c.Hi > nb || i > 0 && c.Lo < cuts[i-1].Lo {
			return nil, fmt.Errorf("layout: cut %d [%d,%d) out of order or range %d", i, c.Lo, c.Hi, nb)
		}
		kept -= max(c.Hi, end) - max(c.Lo, end)
		end = max(end, c.Hi)
	}
	for i := 1; i < len(ins); i++ {
		if graph.CompareEdges(ins[i-1], ins[i]) > 0 {
			return nil, fmt.Errorf("layout: merge inserts out of order at %d", i)
		}
	}
	m := kept + len(ins)
	if unit != nil && len(unit) < m {
		return nil, fmt.Errorf("layout: %d unit weights for a %d-entry COO", len(unit), m)
	}
	out := newCOO(int64(m), CSROrder, unit)
	weighted := unit == nil
	w := 0 // the next output entry
	run := func(lo, hi int) {
		copy(out.Src[w:], base.Src[lo:hi])
		copy(out.Dst[w:], base.Dst[lo:hi])
		if weighted {
			copy(out.Weight[w:], base.Weight[lo:hi])
		}
		w += hi - lo
	}
	i, k := 0, 0 // the next base entry and insert
	for c := 0; c <= len(cuts); c++ {
		// Base's kept entries [i, stop) merge with the inserts placed among
		// them; an insert placed at stop waits for the run after the cut.
		stop, skip := nb, nb
		if c < len(cuts) {
			stop, skip = max(cuts[c].Lo, i), cuts[c].Hi
		}
		for ; k < len(ins); k++ {
			at := base.place(i, stop, ins[k])
			if at == stop && c < len(cuts) {
				break
			}
			run(i, at)
			i = at
			e := ins[k]
			out.Src[w], out.Dst[w] = e.Src, e.Dst
			if weighted {
				out.Weight[w] = e.Weight
			}
			w++
		}
		run(i, stop)
		i = max(stop, skip)
	}
	return out, nil
}

// builder builds one range's COO at a time in Hilbert order, keeping its
// scratch across calls so a worker that builds many ranges allocates it
// once. The zero value is ready to use.
type builder struct {
	hkeys []hilbertKey     // (curve index, position)
	srcAt []graph.VertexID // source of each position
	dstAt []graph.VertexID // destination of each position
	wAt   []int32          // weighted: weight of each position
}

type hilbertKey struct {
	d   uint64
	pos uint32
}

// build materializes r's in-edges in Hilbert order. A position indexes the
// range's in-edges in CSC order.
func (b *builder) build(g *graph.Graph, r Range, unit []int32) *COO {
	off := g.InOffsets()
	m := off[r.Hi] - off[r.Lo]
	c := newCOO(m, HilbertOrder, unit)
	weighted := unit == nil
	b.srcAt = resize(b.srcAt, int(m))
	b.dstAt = resize(b.dstAt, int(m))
	if weighted {
		b.wAt = resize(b.wAt, int(m))
	}
	gatherCSC(g, r, b.srcAt, b.dstAt, b.wAt, weighted)
	k := hilbert.OrderFor(g.NumVertices())
	b.hkeys = resize(b.hkeys, int(m))
	for i, s := range b.srcAt {
		b.hkeys[i] = hilbertKey{hilbert.XY2D(k, s, b.dstAt[i]), uint32(i)}
	}
	slices.SortFunc(b.hkeys, func(x, y hilbertKey) int {
		if x.d != y.d {
			return cmp.Compare(x.d, y.d)
		}
		return cmp.Compare(x.pos, y.pos)
	})
	for i, e := range b.hkeys {
		c.Src[i], c.Dst[i] = b.srcAt[e.pos], b.dstAt[e.pos]
		if weighted {
			c.Weight[i] = b.wAt[e.pos]
		}
	}
	return c
}

// gatherCSC writes r's in-edges in CSC order into srcs and dsts, and their
// weights into ws when weighted, reading g's in-rows one destination at a
// time.
func gatherCSC(g *graph.Graph, r Range, srcs, dsts []graph.VertexID, ws []int32, weighted bool) {
	i := 0
	for v := r.Lo; v < r.Hi; v++ {
		row := g.InNeighbors(v)
		copy(srcs[i:], row)
		for k := range row {
			dsts[i+k] = v
		}
		if weighted {
			copy(ws[i:], g.InWeights(v))
		}
		i += len(row)
	}
}

// resize returns s resliced to length n, reallocating only when its capacity
// is too small. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
