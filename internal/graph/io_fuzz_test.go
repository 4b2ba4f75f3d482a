package graph

import (
	"bytes"
	"strconv"
	"testing"
)

// FuzzReadAdjacency feeds arbitrary bytes to the adjacency reader, seeded
// with WriteAdjacency output. Every input must either be rejected with an
// error or parse into a graph with the header's vertex and edge counts that
// round-trips through WriteAdjacency to an Equal graph; a panic, an
// out-of-memory on a short input, or a lossy parse fails.
func FuzzReadAdjacency(f *testing.F) {
	seeds := []*Graph{}
	for _, weighted := range []bool{false, true} {
		for _, c := range []struct {
			n     int
			edges []Edge
		}{
			{0, nil},
			{1, []Edge{{0, 0, 3}}},
			{4, []Edge{{0, 1, 2}, {0, 1, 5}, {2, 3, -1}, {3, 0, 7}, {1, 1, 1}}},
		} {
			g, err := FromEdges(c.n, c.edges, weighted)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, g)
		}
	}
	for _, g := range seeds {
		var buf bytes.Buffer
		if err := WriteAdjacency(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadAdjacency(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteAdjacency(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := ReadAdjacency(&buf)
		if err != nil {
			t.Fatalf("re-reading written graph: %v", err)
		}
		if !Equal(g, h) {
			t.Fatalf("round trip changed the graph:\n%q", buf.Bytes())
		}
		// An accepted input holds exactly the n vertices and m edges its
		// header declares.
		hdr := bytes.Fields(data)
		n, _ := strconv.ParseInt(string(hdr[1]), 10, 64)
		m, _ := strconv.ParseInt(string(hdr[2]), 10, 64)
		if int64(g.NumVertices()) != n || g.NumEdges() != m {
			t.Fatalf("header declares n=%d m=%d, parsed n=%d m=%d", n, m, g.NumVertices(), g.NumEdges())
		}
	})
}
