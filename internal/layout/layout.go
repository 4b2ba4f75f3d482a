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
	cs, _, err := BuildRanges(g, []Range{{lo, hi}}, o, 1, nil)
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
// position) pairs range by range, on up to workers goroutines.
//
// The COOs of an unweighted graph take their weights as prefixes of one
// all-ones slice: ones when it is long enough, otherwise a fresh, longer one.
// The slice in use is returned, so the builds of one engine lineage share it.
func BuildRanges(g *graph.Graph, ranges []Range, o Order, workers int, ones []int32) ([]*COO, []int32, error) {
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
		ones = graph.OnesFor(ones, longest)
		unit = ones
	}
	coos := make([]*COO, len(ranges))
	switch o {
	case CSROrder:
		if err := gatherCSR(g, ranges, coos, unit); err != nil {
			return nil, nil, err
		}
	case HilbertOrder:
		builders := make([]builder, max(min(workers, len(ranges)), 1))
		sched.DynamicChunks(len(builders), len(ranges), 1, func(w, i, _ int) {
			coos[i] = builders[w].build(g, ranges[i], unit)
		})
	default:
		return nil, nil, fmt.Errorf("layout: unknown order %v", o)
	}
	return coos, ones, nil
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
