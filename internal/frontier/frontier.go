// Package frontier implements the active-vertex sets used by the
// edgemap/vertexmap engines. A frontier is either sparse (an explicit vertex
// list) or dense (a bitmap); engines switch representation with the
// direction-optimization heuristic of Beamer et al., as all three systems in
// the paper do: a frontier is traversed densely (pull) when
// |active vertices| + |active out-edges| exceeds |E|/20.
package frontier

import (
	"repro/internal/graph"
)

// DenseThresholdDenominator is Ligra's direction-reversal constant: dense
// traversal is used when count+outEdges > |E|/20.
const DenseThresholdDenominator = 20

// Frontier is a set of active vertices with cached activity statistics.
type Frontier struct {
	n        int
	isDense  bool
	dense    []bool
	sparse   []graph.VertexID // sorted ascending
	count    int64            // number of active vertices
	outEdges int64            // sum of out-degrees of active vertices
}

// FromVertex returns a frontier containing only v. A sparse frontier reads
// only its vertices' rows, so it takes any graph.Rows: a graph, or an
// overlay of one.
func FromVertex(g graph.Rows, v graph.VertexID) *Frontier {
	return &Frontier{
		n:        g.NumVertices(),
		sparse:   []graph.VertexID{v},
		count:    1,
		outEdges: g.OutDegree(v),
	}
}

// FromVertices builds a sparse frontier from a sorted, duplicate-free vertex
// list.
func FromVertices(g graph.Rows, vs []graph.VertexID) *Frontier {
	f := &Frontier{n: g.NumVertices(), sparse: vs, count: int64(len(vs))}
	for _, v := range vs {
		f.outEdges += g.OutDegree(v)
	}
	return f
}

// All returns a dense frontier with every vertex active.
func All(g *graph.Graph) *Frontier {
	n := g.NumVertices()
	d := make([]bool, n)
	for i := range d {
		d[i] = true
	}
	return &Frontier{
		n:        n,
		isDense:  true,
		dense:    d,
		count:    int64(n),
		outEdges: g.NumEdges(),
	}
}

// FromDense builds a frontier from a bitmap, computing activity statistics.
func FromDense(g *graph.Graph, bits []bool) *Frontier {
	f := &Frontier{n: g.NumVertices(), isDense: true, dense: bits}
	for v, b := range bits {
		if b {
			f.count++
			f.outEdges += g.OutDegree(graph.VertexID(v))
		}
	}
	return f
}

// NumVertices returns the size of the vertex universe.
func (f *Frontier) NumVertices() int { return f.n }

// Count returns the number of active vertices.
func (f *Frontier) Count() int64 { return f.count }

// OutEdges returns the number of out-edges of active vertices.
func (f *Frontier) OutEdges() int64 { return f.outEdges }

// IsEmpty reports whether no vertex is active.
func (f *Frontier) IsEmpty() bool { return f.count == 0 }

// IsDense reports whether the current representation is the bitmap: true
// for a frontier built dense or last read through Dense, false for one built
// sparse or last read through Sparse.
func (f *Frontier) IsDense() bool { return f.isDense }

// ShouldBeDense applies the direction-optimization heuristic given the
// graph's total edge count.
func (f *Frontier) ShouldBeDense(totalEdges int64) bool {
	return f.count+f.outEdges > totalEdges/DenseThresholdDenominator
}

// Has reports whether v is active. It reads the bitmap once one is built,
// and otherwise binary-searches the sorted list.
func (f *Frontier) Has(v graph.VertexID) bool {
	if f.dense != nil {
		return f.dense[v]
	}
	lo, hi := 0, len(f.sparse)
	for lo < hi {
		mid := (lo + hi) / 2
		if f.sparse[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(f.sparse) && f.sparse[lo] == v
}

// Dense returns the bitmap view, building it on first use. A frontier is an
// immutable set, so it keeps both representations once built: alternating
// Dense and Sparse calls convert at most once each way.
func (f *Frontier) Dense() []bool {
	if f.dense == nil {
		f.dense = make([]bool, f.n)
		for _, v := range f.sparse {
			f.dense[v] = true
		}
	}
	f.isDense = true
	return f.dense
}

// Sparse returns the sorted active-vertex list, building it on first use
// (see Dense).
func (f *Frontier) Sparse() []graph.VertexID {
	if f.sparse == nil && f.dense != nil {
		vs := make([]graph.VertexID, 0, f.count)
		for v, b := range f.dense {
			if b {
				vs = append(vs, graph.VertexID(v))
			}
		}
		f.sparse = vs
	}
	f.isDense = false
	return f.sparse
}

// Density returns (count+outEdges)/totalEdges, the paper's frontier-density
// measure.
func Density(f *Frontier, totalEdges int64) float64 {
	if totalEdges == 0 {
		return 0
	}
	return float64(f.count+f.outEdges) / float64(totalEdges)
}
