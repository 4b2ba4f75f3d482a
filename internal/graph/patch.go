package graph

import (
	"fmt"
	"sort"
)

// PatchStats reports how much construction work a PatchEdges call did, in
// edges. Merged edges go through the full per-row merge-and-sort path;
// remapped edges are entries whose stored neighbor ID was rewritten through
// the permutation (the affected row is re-sorted only when the rewrite
// broke its order); copied edges are block memcpy — untouched rows, and the
// unchanged entries of remap-only rows, including rows that merely
// relocated to a new index — an order of magnitude cheaper per edge than
// building a graph from scratch (which counting-sorts and scatters every
// edge twice).
type PatchStats struct {
	RowsMerged    int   // dirty CSR rows + dirty CSC rows rebuilt via merge
	RowsRemapped  int   // rows with at least one entry rewritten, or relocated
	EdgesMerged   int64 // edges written through row merges (both directions)
	EdgesRemapped int64 // entries rewritten through the permutation (both directions)
	EdgesCopied   int64 // edges block-copied unchanged (both directions)
}

// PatchEdges returns a new graph equal to g with dels removed and adds
// inserted, without rebuilding untouched adjacency rows: only the rows of
// vertices incident to a change are merged, everything else is block-copied.
// Each deletion removes one occurrence of exactly (Src, Dst, Weight) as
// stored — i.e. with weights normalized the way FromEdges stores them (1 on
// unweighted graphs and for zero input weights); it is an error if no such
// occurrence exists. The receiver is not modified. Merged rows are sorted by
// (neighbor, weight); untouched rows keep their original order.
func (g *Graph) PatchEdges(adds, dels []Edge) (*Graph, PatchStats, error) {
	return g.PatchEdgesPermN(g.n, adds, dels, nil)
}

// PatchEdgesN is PatchEdges over a grown vertex space: the result has
// nNew ≥ g.NumVertices() vertices, the appended vertices starting with
// empty adjacency rows (plus whatever adds reference them). This is the
// snapshot-growth contract: original vertex IDs are append-only, so a
// snapshot of a graph that admitted vertices patches from an older
// snapshot by row-array extension, never by re-materialization.
func (g *Graph) PatchEdgesN(nNew int, adds, dels []Edge) (*Graph, PatchStats, error) {
	return g.PatchEdgesPermN(nNew, adds, dels, nil)
}

// PatchEdgesPerm generalizes PatchEdges with a segment-local renumbering:
// the result equals g relabeled by perm, then patched with dels removed and
// adds inserted (both given in post-perm IDs). perm maps each of g's vertex
// IDs to its new ID and must be a permutation of [0, n); nil selects the
// identity. The cost scales with the change, not the graph: only rows owned
// by or referencing a moved vertex (perm[v] != v), plus rows incident to an
// explicit add or delete, are merged or remapped — everything else is
// block-copied. This is the patch-path contract behind placement-preserving
// repair: a swap exchanges two IDs, so perm differs from the identity at
// exactly the swapped positions and the rest of the graph is reused
// wholesale.
func (g *Graph) PatchEdgesPerm(adds, dels []Edge, perm []VertexID) (*Graph, PatchStats, error) {
	return g.PatchEdgesPermN(g.n, adds, dels, perm)
}

// PatchEdgesPermN is PatchEdgesPerm over a grown vertex space. The result
// has nNew vertices; perm (length g.NumVertices()) must be injective into
// [0, nNew), and new IDs without a preimage under perm start with empty
// rows. This is the segment-growth contract: admissions land in reserved
// headroom slots at their partition segment's tail, so the injection is the
// identity outside the grown segments — typically the identity everywhere,
// since the pre-existing vertices keep their slots. An identity injection
// (no vertex moved) is detected and takes the nil-perm path: no remap row
// class at all, every untouched row block-copies, and the patch cost is
// O(delta). Only maintenance that actually relocates vertices (swap repair,
// segment re-sorts, spill relabeling) produces non-identity injections, and
// those remap exactly the rows owned by or referencing a moved vertex.
func (g *Graph) PatchEdgesPermN(nNew int, adds, dels []Edge, perm []VertexID) (*Graph, PatchStats, error) {
	var st PatchStats
	if nNew < g.n {
		return nil, st, fmt.Errorf("graph: patch shrinks vertex space %d -> %d", g.n, nNew)
	}
	for _, e := range adds {
		if int(e.Src) >= nNew || int(e.Dst) >= nNew {
			return nil, st, fmt.Errorf("graph: patch add (%d,%d) out of range n=%d", e.Src, e.Dst, nNew)
		}
	}
	for _, e := range dels {
		if int(e.Src) >= nNew || int(e.Dst) >= nNew {
			return nil, st, fmt.Errorf("graph: patch delete (%d,%d) out of range n=%d", e.Src, e.Dst, nNew)
		}
	}
	var inv, moved []VertexID
	if perm != nil {
		if len(perm) != g.n {
			return nil, st, fmt.Errorf("graph: patch perm length %d != n %d", len(perm), g.n)
		}
		inv = make([]VertexID, nNew)
		for i := range inv {
			inv[i] = VertexID(g.n) // sentinel: no preimage
		}
		for old, nw := range perm {
			if int(nw) >= nNew || inv[nw] != VertexID(g.n) {
				return nil, st, fmt.Errorf("graph: patch perm is not injective at %d -> %d", old, nw)
			}
			inv[nw] = VertexID(old)
			if VertexID(old) != nw {
				moved = append(moved, VertexID(old))
			}
		}
		if len(moved) == 0 {
			// Identity injection (headroom growth without relocation): inv is
			// the identity prefix the nil-perm branch below would build, so
			// drop perm entirely — no remap row class, clean rows block-copy.
			perm = nil
		}
	} else if nNew > g.n {
		// Identity map into a larger space: preimages are the identity
		// prefix, appended rows have none.
		inv = make([]VertexID, nNew)
		for i := range inv {
			if i < g.n {
				inv[i] = VertexID(i)
			} else {
				inv[i] = VertexID(g.n)
			}
		}
	}
	m := g.NumEdges() + int64(len(adds)) - int64(len(dels))
	if m < 0 {
		return nil, st, fmt.Errorf("graph: patch deletes %d edges from a graph with %d + %d added", len(dels), g.NumEdges(), len(adds))
	}
	out := &Graph{n: nNew, weighted: g.weighted}

	var err error
	out.outOff, out.outDst, out.outW, err = patchSide(
		g.n, nNew, g.outOff, g.outDst, g.outW, adds, dels, g.weighted,
		func(e Edge) (VertexID, VertexID) { return e.Src, e.Dst },
		perm, inv, moved, g.InNeighbors, &st)
	if err != nil {
		return nil, st, fmt.Errorf("graph: patch out-edges: %w", err)
	}
	out.inOff, out.inSrc, out.inW, err = patchSide(
		g.n, nNew, g.inOff, g.inSrc, g.inW, adds, dels, g.weighted,
		func(e Edge) (VertexID, VertexID) { return e.Dst, e.Src },
		perm, inv, moved, g.OutNeighbors, &st)
	if err != nil {
		return nil, st, fmt.Errorf("graph: patch in-edges: %w", err)
	}
	return out, st, nil
}

// patchSide rebuilds one adjacency direction. key maps an edge to its (row
// owner, stored neighbor) for this direction; refRows returns the rows (in
// pre-perm IDs) whose adjacency lists mention a given pre-perm vertex, so
// rows holding stale references to moved vertices can be located without
// scanning the graph. adds and dels are in post-perm IDs. Rows fall into
// three classes: rows with explicit adds/dels are merged (rewrite + re-sort),
// rows merely owned by or referencing a moved vertex are remapped (linear ID
// rewrite, re-sorted only if the rewrite broke the order — segment shifts
// are monotone and preserve it), and everything else is block-copied.
func patchSide(nOld, n int, off []int64, ids []VertexID, ws []int32,
	adds, dels []Edge, weighted bool,
	key func(Edge) (VertexID, VertexID),
	perm, inv, moved []VertexID, refRows func(VertexID) []VertexID,
	st *PatchStats,
) ([]int64, []VertexID, []int32, error) {
	normW := func(w int32) int32 {
		if !weighted || w == 0 {
			return 1
		}
		return w
	}
	rowAdds := bucketRows(n, adds, key, normW)
	rowDels := bucketRows(n, dels, key, normW)

	// Remap-dirty rows, in post-perm IDs: rows owned by moved vertices
	// (their content relocates and may self-reference) and rows whose lists
	// mention a moved vertex (their stored neighbor IDs went stale). When
	// most of the graph moved — the segment-growth regime, where every
	// vertex after the first grown partition shifts — locating referencing
	// rows through the reverse adjacency costs as much as flagging
	// everything, so flag everything.
	var remap []bool
	allRemap := perm != nil && 2*len(moved) > nOld
	if !allRemap && len(moved) > 0 {
		remap = make([]bool, n)
		for _, a := range moved {
			remap[perm[a]] = true
			for _, r := range refRows(a) {
				remap[perm[r]] = true
			}
		}
	}

	oldRow := func(v VertexID) VertexID {
		if inv == nil {
			return v
		}
		return inv[v]
	}
	mapID := func(id VertexID) VertexID {
		if perm == nil {
			return id
		}
		return perm[id]
	}

	newOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		var deg int64
		if u := oldRow(VertexID(v)); int(u) < nOld {
			deg = off[u+1] - off[u]
		}
		deg += int64(len(rowAdds.row(v))) - int64(len(rowDels.row(v)))
		if deg < 0 {
			return nil, nil, nil, fmt.Errorf("row %d: more deletions than edges", v)
		}
		newOff[v+1] = newOff[v] + deg
	}
	newIDs := make([]VertexID, newOff[n])
	newWs := make([]int32, newOff[n])

	for v := 0; v < n; v++ {
		u := oldRow(VertexID(v))
		dst := newIDs[newOff[v]:newOff[v+1]]
		dw := newWs[newOff[v]:newOff[v+1]]
		va := rowAdds.row(v)
		vd := rowDels.row(v)
		if int(u) >= nOld {
			// Appended vertex: no base row, only additions.
			if len(vd) > 0 {
				return nil, nil, nil, fmt.Errorf("row %d: deletion of non-existent edge to %d (weight %d)", v, vd[0].id, vd[0].w)
			}
			for k, e := range va {
				dst[k] = e.id
				dw[k] = e.w
			}
			sort.Sort(adjSegment{ids: dst, ws: dw})
			st.RowsMerged++
			st.EdgesMerged += int64(len(va))
			continue
		}
		if len(va) == 0 && len(vd) == 0 {
			if !allRemap && (remap == nil || !remap[v]) {
				// Clean rows are owned by unmoved vertices (u == v) and
				// mention only unmoved neighbors, so the stored IDs are
				// still valid.
				copy(dst, ids[off[u]:off[u+1]])
				copy(dw, ws[off[u]:off[u+1]])
				st.EdgesCopied += off[u+1] - off[u]
				continue
			}
			// Remap-only row: content unchanged, stale IDs rewritten through
			// perm. Segment shifts are monotone inside a row's neighbor
			// list, so sortedness usually survives; re-sort only when a
			// swapped neighbor broke it. Entries whose neighbor did not move
			// copy through unchanged — a row that merely relocated (its
			// owner moved, its neighbors did not) is a block copy at a new
			// index, so only the genuinely rewritten entries count as remap
			// work.
			sorted := true
			var rewritten int64
			for i := off[u]; i < off[u+1]; i++ {
				k := i - off[u]
				dst[k] = mapID(ids[i])
				if dst[k] != ids[i] {
					rewritten++
				}
				dw[k] = ws[i]
				if k > 0 && (dst[k] < dst[k-1] || (dst[k] == dst[k-1] && dw[k] < dw[k-1])) {
					sorted = false
				}
			}
			if !sorted {
				sort.Sort(adjSegment{ids: dst, ws: dw})
			}
			st.RowsRemapped++
			st.EdgesRemapped += rewritten
			st.EdgesCopied += off[u+1] - off[u] - rewritten
			continue
		}
		// Merge the dirty row: remap surviving neighbors through perm, drop
		// one occurrence per deletion, append the additions, and re-sort by
		// (neighbor, weight).
		var pending map[entry]int
		if len(vd) > 0 {
			pending = make(map[entry]int, len(vd))
			for _, e := range vd {
				pending[e]++
			}
		}
		k := 0
		for i := off[u]; i < off[u+1]; i++ {
			e := entry{mapID(ids[i]), ws[i]}
			if pending[e] > 0 {
				pending[e]--
				continue
			}
			if k == len(dst) {
				// Only reachable when a deletion below will not match.
				break
			}
			dst[k] = e.id
			dw[k] = e.w
			k++
		}
		for e, c := range pending {
			if c > 0 {
				return nil, nil, nil, fmt.Errorf("row %d: deletion of non-existent edge to %d (weight %d)", v, e.id, e.w)
			}
		}
		for _, e := range va {
			dst[k] = e.id
			dw[k] = e.w
			k++
		}
		// Re-sort the merged row with the same (neighbor, weight) comparator
		// construction uses, keeping patched rows byte-identical to
		// scratch-built ones.
		sort.Sort(adjSegment{ids: dst, ws: dw})
		st.RowsMerged++
		st.EdgesMerged += int64(k)
	}
	return newOff, newIDs, newWs, nil
}

type entry struct {
	id VertexID
	w  int32
}

// rowBuckets groups a patch's edges by row owner in CSR form: the entries of
// row v are ents[off[v]:off[v+1]], in input order. A nil off means no edges.
type rowBuckets struct {
	off  []int
	ents []entry
}

// bucketRows is a stable counting sort of es by row owner over n rows,
// O(n + len(es)).
func bucketRows(n int, es []Edge, key func(Edge) (VertexID, VertexID), normW func(int32) int32) rowBuckets {
	if len(es) == 0 {
		return rowBuckets{}
	}
	// Count into off[v], prefix-sum to each row's end, then place edges back
	// to front so each off[v] steps down to its row's start.
	off := make([]int, n+1)
	for _, e := range es {
		v, _ := key(e)
		off[v]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	ents := make([]entry, len(es))
	for i := len(es) - 1; i >= 0; i-- {
		v, nb := key(es[i])
		off[v]--
		ents[off[v]] = entry{nb, normW(es[i].Weight)}
	}
	return rowBuckets{off: off, ents: ents}
}

func (b rowBuckets) row(v int) []entry {
	if b.off == nil {
		return nil
	}
	return b.ents[b.off[v]:b.off[v+1]]
}
