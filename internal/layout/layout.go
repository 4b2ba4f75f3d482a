// Package layout materializes COO (coordinate-format) edge arrays in the
// traversal orders studied in Section V-G of the paper: CSR order (edges
// sorted by source vertex), CSC/destination order, and Hilbert space-filling
// curve order. GraphGrind-style engines traverse the COO directly for dense
// frontiers, so the edge order determines the memory-access pattern.
package layout

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/hilbert"
)

// Order selects a COO edge ordering.
type Order int

const (
	// CSROrder sorts edges by (source, destination): the traversal order of
	// a CSR walk by increasing source ID.
	CSROrder Order = iota
	// CSCOrder sorts edges by (destination, source): the traversal order of
	// a CSC walk by increasing destination ID.
	CSCOrder
	// HilbertOrder sorts edges by their position along the Hilbert curve
	// over the (source, destination) grid.
	HilbertOrder
)

func (o Order) String() string {
	switch o {
	case CSROrder:
		return "csr"
	case CSCOrder:
		return "csc"
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

// Build materializes g's edges as a COO in the requested order.
func Build(g *graph.Graph, o Order) (*COO, error) {
	return BuildRange(g, 0, graph.VertexID(g.NumVertices()), o)
}

// BuildRange materializes the in-edges of the destination range [lo, hi) in
// the requested order. GraphGrind builds one COO per partition.
func BuildRange(g *graph.Graph, lo, hi graph.VertexID, o Order) (*COO, error) {
	var b Builder
	return b.BuildRange(g, lo, hi, o)
}

// Builder materializes COOs, keeping its sort scratch across calls so a
// worker that builds many partitions allocates it once. The zero value is
// ready to use; a Builder must not be used by two goroutines at once.
type Builder struct {
	keys  []uint64         // CSR order: src<<32 | position
	hkeys []hilbertKey     // Hilbert order: (curve index, position)
	dstAt []graph.VertexID // destination of each position
}

type hilbertKey struct {
	d   uint64
	pos uint32
}

// BuildRange is the package-level BuildRange using b's scratch.
//
// A position indexes the range's in-edges in CSC order: destination-major,
// and by (source, weight) within a destination. Every order is the stable
// sort of that sequence by the order's key, so parallel edges keep their
// weight order. CSR order sorts src<<32|position, which is exactly the
// stable (src, dst) order because positions are destination-major; Hilbert
// order sorts (curve index, position) pairs. Both then gather the COO in
// one pass from the graph's CSC arrays.
func (b *Builder) BuildRange(g *graph.Graph, lo, hi graph.VertexID, o Order) (*COO, error) {
	if lo > hi || int(hi) > g.NumVertices() {
		return nil, fmt.Errorf("layout: invalid range [%d,%d)", lo, hi)
	}
	off := g.InOffsets()
	base, end := off[lo], off[hi]
	m := end - base
	if m > math.MaxUint32 {
		return nil, fmt.Errorf("layout: range [%d,%d) has %d edges, more than a position holds", lo, hi, m)
	}
	srcs := g.InEdgeSources()[base:end]
	ws := g.InEdgeWeights() // nil on an unweighted graph: every weight is 1
	if ws != nil {
		ws = ws[base:end]
	}
	b.dstAt = resize(b.dstAt, int(m))
	for v := lo; v < hi; v++ {
		for i := off[v] - base; i < off[v+1]-base; i++ {
			b.dstAt[i] = v
		}
	}
	c := &COO{
		Src:      make([]graph.VertexID, m),
		Dst:      make([]graph.VertexID, m),
		Weight:   make([]int32, m),
		Ordering: o,
	}
	if ws == nil {
		for i := range c.Weight {
			c.Weight[i] = 1
		}
	}
	switch o {
	case CSCOrder:
		copy(c.Src, srcs)
		copy(c.Dst, b.dstAt)
		copy(c.Weight, ws)
	case CSROrder:
		b.keys = resize(b.keys, int(m))
		for i, s := range srcs {
			b.keys[i] = uint64(s)<<32 | uint64(i)
		}
		slices.Sort(b.keys)
		for i, k := range b.keys {
			p := uint32(k)
			c.Src[i], c.Dst[i] = graph.VertexID(k>>32), b.dstAt[p]
			if ws != nil {
				c.Weight[i] = ws[p]
			}
		}
	case HilbertOrder:
		k := hilbert.OrderFor(g.NumVertices())
		b.hkeys = resize(b.hkeys, int(m))
		for i, s := range srcs {
			b.hkeys[i] = hilbertKey{hilbert.XY2D(k, s, b.dstAt[i]), uint32(i)}
		}
		slices.SortFunc(b.hkeys, func(x, y hilbertKey) int {
			if x.d != y.d {
				return cmp.Compare(x.d, y.d)
			}
			return cmp.Compare(x.pos, y.pos)
		})
		for i, e := range b.hkeys {
			c.Src[i], c.Dst[i] = srcs[e.pos], b.dstAt[e.pos]
			if ws != nil {
				c.Weight[i] = ws[e.pos]
			}
		}
	default:
		return nil, fmt.Errorf("layout: unknown order %v", o)
	}
	return c, nil
}

// resize returns s resliced to length n, reallocating only when its capacity
// is too small. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
