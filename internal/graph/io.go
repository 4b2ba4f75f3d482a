package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The text formats implemented here mirror the Ligra adjacency format used by
// the paper's artifact:
//
//	AdjacencyGraph
//	<n>
//	<m>
//	<offset 0> ... <offset n-1>
//	<target 0> ... <target m-1>
//
// WeightedAdjacencyGraph appends m weights after the targets.

const (
	headerAdjacency         = "AdjacencyGraph"
	headerWeightedAdjacency = "WeightedAdjacencyGraph"
)

// maxVertices is the largest vertex count VertexID can address.
const maxVertices = math.MaxUint32 + 1

// WriteAdjacency serializes g in (Weighted)AdjacencyGraph format. The CSR
// view (out-edges) is written.
func WriteAdjacency(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	header := headerAdjacency
	if g.weighted {
		header = headerWeightedAdjacency
	}
	if _, err := fmt.Fprintf(bw, "%s\n%d\n%d\n", header, g.n, g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.n; v++ {
		if _, err := fmt.Fprintf(bw, "%d\n", g.out.off[v]); err != nil {
			return err
		}
	}
	for v := range VertexID(g.n) {
		for _, d := range g.OutNeighbors(v) {
			if _, err := fmt.Fprintf(bw, "%d\n", d); err != nil {
				return err
			}
		}
	}
	if g.weighted {
		for v := range VertexID(g.n) {
			for _, wt := range g.OutWeights(v) {
				if _, err := fmt.Fprintf(bw, "%d\n", wt); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadAdjacency parses a (Weighted)AdjacencyGraph stream.
func ReadAdjacency(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	sc.Split(bufio.ScanWords)
	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	nextInt := func(bits int) (int64, error) {
		tok, err := next()
		if err != nil {
			return 0, err
		}
		return strconv.ParseInt(tok, 10, bits)
	}

	header, err := next()
	if err != nil {
		return nil, err
	}
	weighted := false
	switch header {
	case headerAdjacency:
	case headerWeightedAdjacency:
		weighted = true
	default:
		return nil, fmt.Errorf("graph: unknown header %q", header)
	}
	n64, err := nextInt(64)
	if err != nil {
		return nil, err
	}
	m, err := nextInt(64)
	if err != nil {
		return nil, err
	}
	if n64 < 0 || n64 > maxVertices || m < 0 {
		return nil, fmt.Errorf("graph: invalid sizes n=%d m=%d", n64, m)
	}
	// The header sizes are untrusted: every slice grows as its tokens are
	// read, so a short input claiming a huge n or m fails at EOF instead of
	// allocating up front.
	n := int(n64)
	var off []int64
	for v := 0; v < n; v++ {
		o, err := nextInt(64)
		if err != nil {
			return nil, fmt.Errorf("graph: reading offset %d: %w", v, err)
		}
		if (v == 0 && o != 0) || (v > 0 && o < off[v-1]) || o > m {
			return nil, fmt.Errorf("graph: offset %d of vertex %d out of order", o, v)
		}
		off = append(off, o)
	}
	off = append(off, m)
	var dsts []VertexID
	for i := int64(0); i < m; i++ {
		d, err := nextInt(64)
		if err != nil {
			return nil, fmt.Errorf("graph: reading target %d: %w", i, err)
		}
		if d < 0 || d >= n64 {
			return nil, fmt.Errorf("graph: target %d out of range", d)
		}
		dsts = append(dsts, VertexID(d))
	}
	var weights []int32
	if weighted {
		for i := int64(0); i < m; i++ {
			w, err := nextInt(32)
			if err != nil {
				return nil, fmt.Errorf("graph: reading weight %d: %w", i, err)
			}
			weights = append(weights, int32(w))
		}
	}
	edges := make([]Edge, 0, m)
	for v := 0; v < n; v++ {
		for i := off[v]; i < off[v+1]; i++ {
			w := int32(1)
			if weighted {
				w = weights[i]
			}
			edges = append(edges, Edge{Src: VertexID(v), Dst: dsts[i], Weight: w})
		}
	}
	return FromEdges(n, edges, weighted)
}
