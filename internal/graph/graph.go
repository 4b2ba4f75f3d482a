// Package graph provides the in-memory graph representations used throughout
// the VEBO reproduction: compressed sparse row (CSR, out-edges), compressed
// sparse column (CSC, in-edges) and coordinate (COO) forms, together with
// construction, transposition, relabelling and characterization utilities.
//
// A Graph is immutable once built. Patch derives a new graph from an old
// one by a slot-space Delta. Within one numbering lineage it costs what
// changed: the two share every unchanged adjacency row, and the derivation
// writes its changed rows into storage of its own, so older graphs stay
// valid while newer ones are derived. Across a lineage break (Delta.Broken)
// it renumbers every row, as Relabel does. An Overlay reads the rows of a
// derivation without deriving it, through the same checked delta.
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

// NoVertex is the largest VertexID, read as "no vertex" where a slot may be
// empty: a Delta's slot map and a Relabel permutation map a dropped row to
// it.
const NoVertex = ^VertexID(0)

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
// Each side stores its rows as extents into immutable edge chunks (see
// adj), so a graph derived by Patch within a lineage shares every row it
// did not change with its basis and writes only its changed rows.
// FromEdges, a renumbering and a fold write one chunk in row order.
//
// Unweighted graphs store no weight chunks, and the weight accessors return
// a prefix of ones, one all-ones slice as long as the largest row and
// shared by every graph patched from the same basis.
//
//vebo:frozen
type Graph struct {
	n int // number of vertices

	out adj // CSR: row v lists the destinations of v's out-edges
	in  adj // CSC: row v lists the sources of v's in-edges

	ones []int32 // unweighted: all ones, at least as long as the largest row

	weighted bool
}

// Extents pack a row's chunk index above extShift and its start within the
// chunk below.
const (
	extShift = 40
	extMask  = 1<<extShift - 1
)

// adj is one side of a Graph. off is the degree prefix (n+1 entries): row v
// has off[v+1]-off[v] entries, starting at its packed extent ext[v] in
// chunk ids[ext[v]>>extShift], with its weights at the same place in
// ws[ext[v]>>extShift]. Chunks are never written once their graph is built,
// and a derivation writes only a chunk it allocated, so the graphs of one
// lineage share chunks freely. A graph whose one chunk holds its rows in
// order has ext == off[:n]: every extent is then its row's offset.
type adj struct {
	off []int64
	ext []int64
	ids [][]VertexID
	ws  [][]int32 // nil when unweighted
}

// flatAdj is the one-chunk side whose rows lie in order in ids (and ws,
// nil when unweighted) at the offsets off.
func flatAdj(off []int64, ids []VertexID, ws []int32) adj {
	a := adj{off: off, ext: off[: len(off)-1 : len(off)-1], ids: [][]VertexID{ids}}
	if ws != nil {
		a.ws = [][]int32{ws}
	}
	return a
}

func (a *adj) deg(v VertexID) int64 { return a.off[v+1] - a.off[v] }

// row returns row v's entries.
func (a *adj) row(v VertexID) []VertexID {
	e := a.ext[v]
	lo := e & extMask
	return a.ids[e>>extShift][lo : lo+a.deg(v)]
}

// weights returns row v's weights, a prefix of ones when unweighted.
func (a *adj) weights(v VertexID, ones []int32) []int32 {
	d := a.deg(v)
	if a.ws == nil {
		return ones[:d:d]
	}
	e := a.ext[v]
	lo := e & extMask
	return a.ws[e>>extShift][lo : lo+d]
}

// equal reports whether a and b hold the same rows, weights included.
func (a *adj) equal(b *adj, n int, ones []int32) bool {
	if !slices.Equal(a.off, b.off) {
		return false
	}
	for v := range VertexID(n) {
		if !slices.Equal(a.row(v), b.row(v)) || a.ws != nil && !slices.Equal(a.weights(v, ones), b.weights(v, ones)) {
			return false
		}
	}
	return true
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.out.off[g.n] }

// Weighted reports whether the graph carries non-unit edge weights.
func (g *Graph) Weighted() bool { return g.weighted }

// OutDegree reports the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int64 { return g.out.deg(v) }

// InDegree reports the in-degree of v.
func (g *Graph) InDegree(v VertexID) int64 { return g.in.deg(v) }

// OutNeighbors returns the slice of destinations of v's out-edges. The slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID { return g.out.row(v) }

// InNeighbors returns the slice of sources of v's in-edges. The slice aliases
// internal storage and must not be modified.
func (g *Graph) InNeighbors(v VertexID) []VertexID { return g.in.row(v) }

// OutWeights returns the weights parallel to OutNeighbors(v). The slice
// aliases internal storage (all ones on unweighted graphs) and must not be
// modified.
func (g *Graph) OutWeights(v VertexID) []int32 { return g.out.weights(v, g.ones) }

// InWeights returns the weights parallel to InNeighbors(v). The slice
// aliases internal storage (all ones on unweighted graphs) and must not be
// modified.
func (g *Graph) InWeights(v VertexID) []int32 { return g.in.weights(v, g.ones) }

// InOffsets exposes the CSC degree prefix (length n+1): vertex v has
// InOffsets()[v+1]-InOffsets()[v] in-edges, and a destination range [lo, hi)
// has InOffsets()[hi]-InOffsets()[lo]. Read-only.
func (g *Graph) InOffsets() []int64 { return g.in.off }

// OutOffsets exposes the CSR degree prefix (length n+1): out-edge k of
// vertex v, in row order, has position OutOffsets()[v]+k, so positions
// number the graph's edges densely. Read-only.
func (g *Graph) OutOffsets() []int64 { return g.out.off }

// MaxInDegree returns the largest in-degree in the graph.
func (g *Graph) MaxInDegree() int64 {
	var m int64
	for v := range VertexID(g.n) {
		if d := g.in.deg(v); d > m {
			m = d
		}
	}
	return m
}

// MaxOutDegree returns the largest out-degree in the graph.
func (g *Graph) MaxOutDegree() int64 {
	var m int64
	for v := range VertexID(g.n) {
		if d := g.out.deg(v); d > m {
			m = d
		}
	}
	return m
}

// CountZeroInDegree returns the number of vertices with in-degree zero.
func (g *Graph) CountZeroInDegree() int {
	c := 0
	for v := range VertexID(g.n) {
		if g.in.deg(v) == 0 {
			c++
		}
	}
	return c
}

// CountZeroOutDegree returns the number of vertices with out-degree zero.
func (g *Graph) CountZeroOutDegree() int {
	c := 0
	for v := range VertexID(g.n) {
		if g.out.deg(v) == 0 {
			c++
		}
	}
	return c
}

// InDegrees returns a freshly allocated slice of all in-degrees.
func (g *Graph) InDegrees() []int64 {
	d := make([]int64, g.n)
	for v := range VertexID(g.n) {
		d[v] = g.in.deg(v)
	}
	return d
}

// Edges materializes the edge list in CSR order (sorted by source, then by
// the order destinations appear in the CSR arrays).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
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
	outOff := make([]int64, n+1)
	inOff := make([]int64, n+1)
	for _, e := range edges {
		outOff[e.Src+1]++
		inOff[e.Dst+1]++
	}
	var maxRow int64
	for v := 0; v < n; v++ {
		maxRow = max(maxRow, outOff[v+1], inOff[v+1])
		outOff[v+1] += outOff[v]
		inOff[v+1] += inOff[v]
	}
	m := int64(len(edges))
	outDst := make([]VertexID, m)
	inSrc := make([]VertexID, m)
	var outW, inW, ones []int32
	if weighted {
		outW = make([]int32, m)
		inW = make([]int32, m)
	} else {
		ones = OnesFor(nil, maxRow)
	}
	outNext := slices.Clone(outOff[:n])
	inNext := slices.Clone(inOff[:n])
	for _, e := range edges {
		oi, ii := outNext[e.Src], inNext[e.Dst]
		outDst[oi] = e.Dst
		inSrc[ii] = e.Src
		if weighted {
			w := e.Weight
			if w == 0 {
				w = 1
			}
			outW[oi] = w
			inW[ii] = w
		}
		outNext[e.Src]++
		inNext[e.Dst]++
	}
	// Keep neighbour lists sorted by (neighbor, weight) for deterministic
	// traversal and binary searchability. Ordering parallel edges by weight
	// too makes row content a pure function of the edge multiset, so graphs
	// built here and graphs patched row-wise by Patch are equal for
	// identical multisets.
	var rs rowSorter
	for v := 0; v < n; v++ {
		lo, hi := outOff[v], outOff[v+1]
		rs.sort(outDst[lo:hi], sub(outW, lo, hi))
		lo, hi = inOff[v], inOff[v+1]
		rs.sort(inSrc[lo:hi], sub(inW, lo, hi))
	}
	return &Graph{
		n: n, weighted: weighted, ones: ones,
		out: flatAdj(outOff, outDst, outW),
		in:  flatAdj(inOff, inSrc, inW),
	}, nil
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
	return &Graph{n: g.n, weighted: g.weighted, out: g.in, in: g.out, ones: g.ones}
}

// Relabel returns a new graph of nNew vertices in which every vertex v of g
// becomes perm[v], so edge (u,v) becomes (perm[u], perm[v]). perm (length
// g.NumVertices()) must be injective into [0, nNew); an entry NoVertex
// drops a row that is empty on both sides and is an error on any other,
// and a new ID without a preimage starts empty. It renumbers in two
// sort-free O(n + m) passes, as Patch does across a lineage break.
func (g *Graph) Relabel(nNew int, perm []VertexID) (*Graph, error) {
	h, _, err := g.renumber(nNew, perm)
	return h, err
}

// DegreeHistogramIn returns counts[d] = number of vertices with in-degree d,
// for d in [0, MaxInDegree].
func (g *Graph) DegreeHistogramIn() []int64 {
	maxd := g.MaxInDegree()
	counts := make([]int64, maxd+1)
	for v := range VertexID(g.n) {
		counts[g.in.deg(v)]++
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
// weightedness and sorted adjacency rows (weights included), in both the
// CSR and the CSC direction, however their rows are stored.
func Equal(a, b *Graph) bool {
	return a.n == b.n && a.weighted == b.weighted &&
		a.out.equal(&b.out, a.n, a.ones) && a.in.equal(&b.in, a.n, a.ones)
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
