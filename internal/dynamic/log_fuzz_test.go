package dynamic

import (
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
