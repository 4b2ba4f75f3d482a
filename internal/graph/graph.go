// Package graph provides the in-memory graph representations used throughout
// the VEBO reproduction: compressed sparse row (CSR, out-edges), compressed
// sparse column (CSC, in-edges) and coordinate (COO) forms, together with
// construction, transposition, relabelling and characterization utilities.
//
// Vertex identifiers are dense uint32 values in [0, NumVertices). Edge counts
// use int64 so that graphs larger than 2^31 edges remain representable even
// though the test workloads are far smaller.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex. IDs are dense: every value in
// [0, Graph.NumVertices()) names a vertex.
type VertexID = uint32

// Edge is a single directed edge with an optional weight. Unweighted graphs
// carry Weight 1 on every edge.
type Edge struct {
	Src    VertexID
	Dst    VertexID
	Weight int32
}

// Graph is a directed graph stored simultaneously in CSR (out-edges, grouped
// by source) and CSC (in-edges, grouped by destination) form. Both views are
// built once at construction and are immutable afterwards; the processing
// engines read whichever view suits the traversal direction. Every
// constructor leaves each row sorted by (neighbor, weight).
//
// Unweighted graphs store no weight arrays: outW and inW are nil, and the
// weight accessors return a prefix of ones, one all-ones slice as long as
// the largest row and shared by every graph patched from the same basis.
//
//vebo:frozen
type Graph struct {
	n int // number of vertices

	// CSR: out-edges. outOff has n+1 entries; the out-neighbours of v are
	// outDst[outOff[v]:outOff[v+1]] with weights outW at the same indices.
	outOff []int64
	outDst []VertexID
	outW   []int32 // nil when !weighted

	// CSC: in-edges. inOff has n+1 entries; the in-neighbours (sources of
	// edges pointing at v) are inSrc[inOff[v]:inOff[v+1]].
	inOff []int64
	inSrc []VertexID
	inW   []int32 // nil when !weighted

	ones []int32 // unweighted: all ones, at least as long as the largest row

	weighted bool
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.outDst)) }

// Weighted reports whether the graph carries non-unit edge weights.
func (g *Graph) Weighted() bool { return g.weighted }

// OutDegree reports the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int64 { return g.outOff[v+1] - g.outOff[v] }

// InDegree reports the in-degree of v.
func (g *Graph) InDegree(v VertexID) int64 { return g.inOff[v+1] - g.inOff[v] }

// OutNeighbors returns the slice of destinations of v's out-edges. The slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.outDst[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the slice of sources of v's in-edges. The slice aliases
// internal storage and must not be modified.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	return g.inSrc[g.inOff[v]:g.inOff[v+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(v). The slice
// aliases internal storage (all ones on unweighted graphs) and must not be
// modified.
func (g *Graph) OutWeights(v VertexID) []int32 {
	return g.weights(g.outW, g.outOff[v], g.outOff[v+1])
}

// InWeights returns the weights parallel to InNeighbors(v). The slice
// aliases internal storage (all ones on unweighted graphs) and must not be
// modified.
func (g *Graph) InWeights(v VertexID) []int32 {
	return g.weights(g.inW, g.inOff[v], g.inOff[v+1])
}

// weights is the one weight accessor: entries [lo, hi) of the weight array
// ws, or ones for an unweighted graph's nil array.
func (g *Graph) weights(ws []int32, lo, hi int64) []int32 {
	if ws == nil {
		return g.ones[: hi-lo : hi-lo]
	}
	return ws[lo:hi]
}

// OutOffsets exposes the CSR offset array (length n+1). Read-only.
func (g *Graph) OutOffsets() []int64 { return g.outOff }

// InOffsets exposes the CSC offset array (length n+1). Read-only.
func (g *Graph) InOffsets() []int64 { return g.inOff }

// InEdgeSources exposes the flat CSC source array. Read-only.
func (g *Graph) InEdgeSources() []VertexID { return g.inSrc }

// InEdgeWeights exposes the flat CSC weight array, parallel to
// InEdgeSources; it is nil on an unweighted graph, whose weights are all 1.
// Read-only.
func (g *Graph) InEdgeWeights() []int32 { return g.inW }

// MaxInDegree returns the largest in-degree in the graph.
func (g *Graph) MaxInDegree() int64 {
	var m int64
	for v := 0; v < g.n; v++ {
		if d := g.inOff[v+1] - g.inOff[v]; d > m {
			m = d
		}
	}
	return m
}

// MaxOutDegree returns the largest out-degree in the graph.
func (g *Graph) MaxOutDegree() int64 {
	var m int64
	for v := 0; v < g.n; v++ {
		if d := g.outOff[v+1] - g.outOff[v]; d > m {
			m = d
		}
	}
	return m
}

// CountZeroInDegree returns the number of vertices with in-degree zero.
func (g *Graph) CountZeroInDegree() int {
	c := 0
	for v := 0; v < g.n; v++ {
		if g.inOff[v+1] == g.inOff[v] {
			c++
		}
	}
	return c
}

// CountZeroOutDegree returns the number of vertices with out-degree zero.
func (g *Graph) CountZeroOutDegree() int {
	c := 0
	for v := 0; v < g.n; v++ {
		if g.outOff[v+1] == g.outOff[v] {
			c++
		}
	}
	return c
}

// InDegrees returns a freshly allocated slice of all in-degrees.
func (g *Graph) InDegrees() []int64 {
	d := make([]int64, g.n)
	for v := 0; v < g.n; v++ {
		d[v] = g.inOff[v+1] - g.inOff[v]
	}
	return d
}

// Edges materializes the edge list in CSR order (sorted by source, then by
// the order destinations appear in the CSR arrays).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, len(g.outDst))
	for v := 0; v < g.n; v++ {
		ws := g.OutWeights(VertexID(v))
		for i, d := range g.OutNeighbors(VertexID(v)) {
			edges = append(edges, Edge{Src: VertexID(v), Dst: d, Weight: ws[i]})
		}
	}
	return edges
}

// FromEdges builds a Graph from an edge list. The edge list may be in any
// order; self-loops and parallel edges are retained (graph frameworks such as
// Ligra keep them, and the balance analysis counts every edge). weighted
// controls whether the per-edge weights are preserved; when false all weights
// are forced to 1.
func FromEdges(n int, edges []Edge, weighted bool) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.Src, e.Dst, n)
		}
	}
	g := &Graph{n: n, weighted: weighted}
	g.outOff = make([]int64, n+1)
	g.inOff = make([]int64, n+1)
	for _, e := range edges {
		g.outOff[e.Src+1]++
		g.inOff[e.Dst+1]++
	}
	var maxRow int64
	for v := 0; v < n; v++ {
		maxRow = max(maxRow, g.outOff[v+1], g.inOff[v+1])
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	m := int64(len(edges))
	g.outDst = make([]VertexID, m)
	g.inSrc = make([]VertexID, m)
	if weighted {
		g.outW = make([]int32, m)
		g.inW = make([]int32, m)
	} else {
		g.ones = OnesFor(nil, maxRow)
	}
	outNext := make([]int64, n)
	inNext := make([]int64, n)
	copy(outNext, g.outOff[:n])
	copy(inNext, g.inOff[:n])
	for _, e := range edges {
		oi, ii := outNext[e.Src], inNext[e.Dst]
		g.outDst[oi] = e.Dst
		g.inSrc[ii] = e.Src
		if weighted {
			w := e.Weight
			if w == 0 {
				w = 1
			}
			g.outW[oi] = w
			g.inW[ii] = w
		}
		outNext[e.Src]++
		inNext[e.Dst]++
	}
	// Keep neighbour lists sorted by (neighbor, weight) for deterministic
	// traversal and binary searchability. Ordering parallel edges by weight
	// too makes row content a pure function of the edge multiset, so graphs
	// built here and graphs patched row-wise by PatchEdgesPermN are
	// byte-identical for identical multisets.
	var rs rowSorter
	for v := 0; v < n; v++ {
		lo, hi := g.outOff[v], g.outOff[v+1]
		rs.sort(g.outDst[lo:hi], sub(g.outW, lo, hi))
		lo, hi = g.inOff[v], g.inOff[v+1]
		rs.sort(g.inSrc[lo:hi], sub(g.inW, lo, hi))
	}
	return g, nil
}

// sub returns ws[lo:hi], or nil for an unweighted graph's nil array.
func sub(ws []int32, lo, hi int64) []int32 {
	if ws == nil {
		return nil
	}
	return ws[lo:hi]
}

// OnesFor returns an all-ones slice of at least d entries: have itself when
// it is long enough, so patched graphs share their basis's slice (and a
// lineage of COOs built from them shares one weight slice).
func OnesFor(have []int32, d int64) []int32 {
	if int64(len(have)) >= d {
		return have
	}
	ones := make([]int32, d)
	for i := range ones {
		ones[i] = 1
	}
	return ones
}

// rowKey packs an adjacency entry so that uint64 order is (neighbor,
// weight) order: the sign bit of the weight is flipped so negative weights
// sort first.
func rowKey(id VertexID, w int32) uint64 {
	return uint64(id)<<32 | uint64(uint32(w)^0x80000000)
}

// keyEntry unpacks a rowKey.
func keyEntry(k uint64) (VertexID, int32) {
	return VertexID(k >> 32), int32(uint32(k) ^ 0x80000000)
}

// rowSorter is the one adjacency-row sort: it orders a row by rowKey,
// keeping its key scratch across calls. A nil ws marks an unweighted row,
// whose IDs sort directly.
type rowSorter struct {
	keys []uint64
}

func (s *rowSorter) sort(ids []VertexID, ws []int32) {
	if len(ids) < 2 {
		return
	}
	if ws == nil {
		slices.Sort(ids)
		return
	}
	s.keys = s.keys[:0]
	for i, id := range ids {
		s.keys = append(s.keys, rowKey(id, ws[i]))
	}
	slices.Sort(s.keys)
	for i, k := range s.keys {
		ids[i], ws[i] = keyEntry(k)
	}
}

// Transpose returns the graph with every edge reversed.
func (g *Graph) Transpose() *Graph {
	t := &Graph{
		n:        g.n,
		weighted: g.weighted,
		outOff:   g.inOff,
		outDst:   g.inSrc,
		outW:     g.inW,
		inOff:    g.outOff,
		inSrc:    g.outDst,
		inW:      g.outW,
		ones:     g.ones,
	}
	return t
}

// Relabel returns a new graph in which every vertex v of g becomes perm[v].
// perm must be a permutation of [0, n). Edge (u,v) becomes
// (perm[u], perm[v]); the result is isomorphic to g. It is the pure
// renumbering case of PatchEdgesPermN.
func (g *Graph) Relabel(perm []VertexID) (*Graph, error) {
	h, _, err := g.PatchEdgesPermN(g.n, nil, nil, perm)
	return h, err
}

// DegreeHistogramIn returns counts[d] = number of vertices with in-degree d,
// for d in [0, MaxInDegree].
func (g *Graph) DegreeHistogramIn() []int64 {
	maxd := g.MaxInDegree()
	counts := make([]int64, maxd+1)
	for v := 0; v < g.n; v++ {
		counts[g.inOff[v+1]-g.inOff[v]]++
	}
	return counts
}

// HasEdge reports whether the directed edge (u,v) exists, using binary search
// over u's sorted out-neighbour list.
func (g *Graph) HasEdge(u, v VertexID) bool {
	nbrs := g.OutNeighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Stats summarizes a graph in the shape of the paper's Table I row.
type Stats struct {
	Vertices       int
	Edges          int64
	MaxInDegree    int64
	MaxOutDegree   int64
	ZeroInDegree   int     // count of vertices with in-degree 0
	ZeroOutDegree  int     // count of vertices with out-degree 0
	ZeroInPercent  float64 // 100*ZeroInDegree/Vertices
	ZeroOutPercent float64
}

// Characterize computes the Table I characterization of g.
func (g *Graph) Characterize() Stats {
	s := Stats{
		Vertices:      g.n,
		Edges:         g.NumEdges(),
		MaxInDegree:   g.MaxInDegree(),
		MaxOutDegree:  g.MaxOutDegree(),
		ZeroInDegree:  g.CountZeroInDegree(),
		ZeroOutDegree: g.CountZeroOutDegree(),
	}
	if g.n > 0 {
		s.ZeroInPercent = 100 * float64(s.ZeroInDegree) / float64(g.n)
		s.ZeroOutPercent = 100 * float64(s.ZeroOutDegree) / float64(g.n)
	}
	return s
}

// Equal reports whether two graphs have identical vertex counts,
// weightedness and sorted adjacency structure (weights included), in both
// the CSR and the CSC direction.
func Equal(a, b *Graph) bool {
	return a.n == b.n && a.weighted == b.weighted &&
		slices.Equal(a.outOff, b.outOff) && slices.Equal(a.outDst, b.outDst) && slices.Equal(a.outW, b.outW) &&
		slices.Equal(a.inOff, b.inOff) && slices.Equal(a.inSrc, b.inSrc) && slices.Equal(a.inW, b.inW)
}

// IsIsomorphicUnder verifies that h is the image of g under the vertex
// permutation perm, i.e. that (u,v) ∈ g ⇔ (perm[u],perm[v]) ∈ h with equal
// multiplicity and weight multiset. It is used by tests to validate
// reordering implementations.
func IsIsomorphicUnder(g, h *Graph, perm []VertexID) bool {
	if g.n != h.n || g.NumEdges() != h.NumEdges() || len(perm) != g.n {
		return false
	}
	type key struct {
		s, d VertexID
		w    int32
	}
	counts := make(map[key]int, g.NumEdges())
	for _, e := range g.Edges() {
		counts[key{perm[e.Src], perm[e.Dst], e.Weight}]++
	}
	for _, e := range h.Edges() {
		k := key{e.Src, e.Dst, e.Weight}
		counts[k]--
		if counts[k] == 0 {
			delete(counts, k)
		}
	}
	return len(counts) == 0
}
