package graph

import (
	"fmt"
	"slices"
)

// PatchStats reports how much construction work a PatchEdgesPermN call did,
// in edges. Merged edges are written by a row's linear merge of its sorted
// basis row with its sorted adds and deletions; remapped edges are entries
// whose stored neighbor ID was rewritten through the permutation (the
// affected row is re-sorted only when the rewrite broke its order); copied
// edges are memcpy — runs of untouched rows, one copy per run, and the
// unchanged entries of remap-only rows, including rows that merely
// relocated to a new index — an order of magnitude cheaper per edge than
// building a graph from scratch (which counting-sorts and scatters every
// edge twice, then sorts every row).
type PatchStats struct {
	RowsMerged    int   // dirty CSR rows + dirty CSC rows rebuilt via merge
	RowsRemapped  int   // rows with at least one entry rewritten, or relocated
	EdgesMerged   int64 // edges written through row merges (both directions)
	EdgesRemapped int64 // entries rewritten through the permutation (both directions)
	EdgesCopied   int64 // edges block-copied unchanged (both directions)
}

// PatchEdgesPermN returns a new graph equal to g relabeled by perm, then
// patched with dels removed and adds inserted (both given in post-perm IDs),
// without rebuilding untouched adjacency rows. The result has nNew ≥
// g.NumVertices() vertices; perm (length g.NumVertices()) maps each of g's
// vertex IDs to its new ID and must be injective into [0, nNew), and nil
// selects the identity. New IDs without a preimage under perm start with
// empty rows (plus whatever adds reference them). The receiver is not
// modified.
//
// Each deletion removes one occurrence of exactly (Src, Dst, Weight) as
// stored — i.e. with weights normalized the way FromEdges stores them (1 on
// unweighted graphs and for zero input weights); it is an error if no such
// occurrence exists. Every row of the result is sorted by (neighbor,
// weight), as FromEdges leaves it, so a patch is byte-identical to a
// scratch build of the same edge multiset.
//
// The cost scales with the change, not the graph: only rows owned by or
// referencing a moved vertex (perm[v] != v), plus rows incident to an
// explicit add or delete, are merged or remapped — everything else is
// block-copied. An identity injection (nil, or no vertex moved — headroom
// admissions fill reserved slots, so pre-existing vertices keep theirs) is
// detected and takes the nil-perm path: no remap row class at all, every
// untouched row block-copies, and the patch cost is O(delta). Only
// maintenance that actually relocates vertices (swap repair) produces
// non-identity injections, and those remap exactly the rows owned by or
// referencing a moved vertex.
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
	scr := &patchScratch{}
	bySrc := func(e Edge) (VertexID, VertexID) { return e.Src, e.Dst }
	byDst := func(e Edge) (VertexID, VertexID) { return e.Dst, e.Src }
	outSide := sidePatch{
		g: g, n: nNew, off: g.outOff, ids: g.outDst, ws: g.outW, perm: perm, inv: inv,
		adds: bucketRows(nNew, adds, g.weighted, bySrc), dels: bucketRows(nNew, dels, g.weighted, bySrc),
		scratch: scr,
	}
	outSide.flagRemaps(moved, g.InNeighbors)
	inSide := sidePatch{
		g: g, n: nNew, off: g.inOff, ids: g.inSrc, ws: g.inW, perm: perm, inv: inv,
		adds: bucketRows(nNew, adds, g.weighted, byDst), dels: bucketRows(nNew, dels, g.weighted, byDst),
		scratch: scr,
	}
	inSide.flagRemaps(moved, g.OutNeighbors)

	var err error
	var outMax, inMax int64
	out.outOff, out.outDst, out.outW, outMax, err = outSide.build(&st)
	if err != nil {
		return nil, st, fmt.Errorf("graph: patch out-edges: %w", err)
	}
	out.inOff, out.inSrc, out.inW, inMax, err = inSide.build(&st)
	if err != nil {
		return nil, st, fmt.Errorf("graph: patch in-edges: %w", err)
	}
	if !g.weighted {
		out.ones = OnesFor(g.ones, max(outMax, inMax))
	}
	return out, st, nil
}

// sidePatch rebuilds one adjacency direction of a patch. Rows fall into
// three classes: rows with explicit adds or deletions are merged, rows
// merely owned by or referencing a moved vertex are remapped (linear ID
// rewrite, re-sorted only if the rewrite broke the order — segment shifts
// are monotone and preserve it), and every other row is clean and copied.
// adds and dels are in post-perm IDs, each row's entries sorted by rowKey.
type sidePatch struct {
	g   *Graph // the basis
	n   int    // vertex count of the result
	off []int64
	ids []VertexID
	ws  []int32 // nil: unweighted

	perm, inv []VertexID // nil when no vertex moved / the space is unchanged

	// Remap-dirty rows, in post-perm IDs: remapAll flags every row,
	// otherwise remap[v] (nil: none).
	remapAll bool
	remap    []bool

	adds, dels rowBuckets

	scratch *patchScratch
}

// patchScratch is the per-patch reusable scratch: the row sorter's keys and
// the remapped basis of a merged row.
type patchScratch struct {
	rs  rowSorter
	ids []VertexID
	ws  []int32
}

// flagRemaps marks the rows owned by moved vertices (their content
// relocates and may self-reference) and the rows whose lists mention a
// moved vertex (their stored neighbor IDs went stale). refRows returns the
// rows (in pre-perm IDs) whose lists mention a given pre-perm vertex, so
// they are found without scanning the graph. When most of the graph moved
// — the segment-growth regime, where every vertex after the first grown
// partition shifts — locating referencing rows through the reverse
// adjacency costs as much as flagging everything, so everything is flagged.
func (p *sidePatch) flagRemaps(moved []VertexID, refRows func(VertexID) []VertexID) {
	if p.perm == nil {
		return
	}
	if 2*len(moved) > p.g.n {
		p.remapAll = true
		return
	}
	p.remap = make([]bool, p.n)
	for _, a := range moved {
		p.remap[p.perm[a]] = true
		for _, r := range refRows(a) {
			p.remap[p.perm[r]] = true
		}
	}
}

// oldRow returns the basis row of new row v; g.n or more means none.
func (p *sidePatch) oldRow(v int) int {
	if p.inv == nil {
		return v
	}
	return int(p.inv[v])
}

func (p *sidePatch) remapped(v int) bool {
	return p.remapAll || (p.remap != nil && p.remap[v])
}

// clean reports whether new row v is basis row v unchanged. A row whose
// basis row is another vertex's has a moved owner and is flagged for
// remap, so a clean row sits at its own index in both graphs.
func (p *sidePatch) clean(v int) bool {
	return !p.remapped(v) && p.adds.len(v) == 0 && p.dels.len(v) == 0 && p.oldRow(v) < p.g.n
}

// basis returns basis row u with its weights (ones when unweighted).
func (p *sidePatch) basis(u int) ([]VertexID, []int32) {
	lo, hi := p.off[u], p.off[u+1]
	return p.ids[lo:hi], p.g.weights(p.ws, lo, hi)
}

// build writes the side's new offsets, IDs and weights (nil when
// unweighted) and returns its largest row.
func (p *sidePatch) build(st *PatchStats) ([]int64, []VertexID, []int32, int64, error) {
	n := p.n
	newOff := make([]int64, n+1)
	var maxRow int64
	for v := 0; v < n; v++ {
		var deg int64
		if u := p.oldRow(v); u < p.g.n {
			deg = p.off[u+1] - p.off[u]
		}
		deg += int64(p.adds.len(v) - p.dels.len(v))
		if deg < 0 {
			return nil, nil, nil, 0, fmt.Errorf("row %d: more deletions than edges", v)
		}
		maxRow = max(maxRow, deg)
		newOff[v+1] = newOff[v] + deg
	}
	newIDs := make([]VertexID, newOff[n])
	var newWs []int32
	if p.ws != nil {
		newWs = make([]int32, newOff[n])
	}

	scr := p.scratch
	for v := 0; v < n; {
		if p.clean(v) {
			// Copy the maximal run of clean rows starting at v at once.
			w := v + 1
			for w < n && p.clean(w) {
				w++
			}
			lo, hi := p.off[v], p.off[w]
			copy(newIDs[newOff[v]:newOff[w]], p.ids[lo:hi])
			if newWs != nil {
				copy(newWs[newOff[v]:newOff[w]], p.ws[lo:hi])
			}
			st.EdgesCopied += hi - lo
			v = w
			continue
		}
		dst := newIDs[newOff[v]:newOff[v+1]]
		dw := sub(newWs, newOff[v], newOff[v+1])
		va, vd := p.adds.row(v), p.dels.row(v)
		var base []VertexID
		var bw []int32
		if u := p.oldRow(v); u < p.g.n {
			base, bw = p.basis(u)
			if len(va) == 0 && len(vd) == 0 {
				// Remap-only row: content unchanged, stale IDs rewritten
				// through perm. Entries whose neighbor did not move copy
				// through unchanged — a row that merely relocated is a copy
				// at a new index — so only rewritten entries count as remap
				// work.
				rewritten, sorted := remapRow(dst, base, bw, p.perm)
				copy(dw, bw)
				if !sorted {
					scr.rs.sort(dst, dw)
				}
				st.RowsRemapped++
				st.EdgesRemapped += rewritten
				st.EdgesCopied += int64(len(base)) - rewritten
				v++
				continue
			}
			if p.remapped(v) {
				// A dirty row that references a moved vertex: remap its
				// basis into scratch, restoring its order if needed.
				scr.ids = resize(scr.ids, len(base))
				if _, sorted := remapRow(scr.ids, base, bw, p.perm); !sorted {
					var sw []int32 // nil: an unweighted row sorts its IDs alone
					if p.ws != nil {
						scr.ws = append(scr.ws[:0], bw...)
						sw, bw = scr.ws, scr.ws
					}
					scr.rs.sort(scr.ids, sw)
				}
				base = scr.ids
			}
		}
		// A merged row, or an appended vertex (no basis row, only adds).
		if err := mergeRow(dst, dw, base, bw, va, vd); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("row %d: %w", v, err)
		}
		st.RowsMerged++
		st.EdgesMerged += int64(len(dst))
		v++
	}
	return newOff, newIDs, newWs, maxRow, nil
}

// remapRow writes src's IDs mapped through perm into dst and reports how
// many changed and whether dst is still in (neighbor, weight) order, ws
// being the row's weights. The basis row was sorted, so only pairs next to
// a rewritten entry can be out of order, and only those are compared.
func remapRow(dst, src []VertexID, ws []int32, perm []VertexID) (rewritten int64, sorted bool) {
	dst = dst[:len(src)]
	sorted = true
	prevMoved := false
	for k, id := range src {
		nid := perm[id]
		dst[k] = nid
		moved := nid != id
		if moved {
			rewritten++
		}
		if (moved || prevMoved) && k > 0 && (nid < dst[k-1] || nid == dst[k-1] && ws[k] < ws[k-1]) {
			sorted = false
		}
		prevMoved = moved
	}
	return rewritten, sorted
}

// mergeRow writes the basis row (base, bw) minus one occurrence per deletion
// plus the additions into dst, and into dw unless it is nil, in one pass
// over three inputs sorted by rowKey. dst is sized for every deletion
// matching; when one does not, mergeRow returns an error without writing
// past dst.
func mergeRow(dst []VertexID, dw []int32, base []VertexID, bw []int32, adds, dels []uint64) error {
	k, a, d := 0, 0, 0
	for i, id := range base {
		bk := rowKey(id, bw[i])
		if d < len(dels) && dels[d] <= bk {
			if dels[d] < bk {
				return unmatched(base, bw, dels)
			}
			d++
			continue
		}
		for ; a < len(adds) && adds[a] < bk; a, k = a+1, k+1 {
			if k == len(dst) {
				return unmatched(base, bw, dels)
			}
			aid, aw := keyEntry(adds[a])
			put(dst, dw, k, aid, aw)
		}
		if k == len(dst) {
			return unmatched(base, bw, dels)
		}
		put(dst, dw, k, id, bw[i])
		k++
	}
	if d < len(dels) {
		return unmatched(base, bw, dels)
	}
	// Every deletion matched, so the rest of the adds fill dst exactly.
	for ; a < len(adds); a, k = a+1, k+1 {
		aid, aw := keyEntry(adds[a])
		put(dst, dw, k, aid, aw)
	}
	return nil
}

// put writes entry k of a row, and its weight unless dw is nil.
func put(dst []VertexID, dw []int32, k int, id VertexID, w int32) {
	dst[k] = id
	if dw != nil {
		dw[k] = w
	}
}

// unmatched names the first deletion that matches no basis entry once
// earlier deletions have taken theirs. Both inputs are sorted, so one
// greedy walk finds it; mergeRow calls it only when one exists.
func unmatched(base []VertexID, bw []int32, dels []uint64) error {
	d := 0
	for i, id := range base {
		bk := rowKey(id, bw[i])
		if d < len(dels) && dels[d] < bk {
			break
		}
		if d < len(dels) && dels[d] == bk {
			d++
		}
	}
	id, w := keyEntry(dels[d])
	return fmt.Errorf("deletion of non-existent edge to %d (weight %d)", id, w)
}

// rowBuckets groups a patch's edges by row owner in CSR form: the entries
// of row v are keys[off[v]:off[v+1]], rowKey-packed and sorted. A nil off
// means no edges.
type rowBuckets struct {
	off  []int
	keys []uint64
}

// bucketRows is a counting sort of es by row owner over n rows followed by
// a sort of each row's keys, O(n + len(es) log(row length)). key maps an
// edge to its (row owner, stored neighbor) for one direction; weights are
// normalized the way FromEdges stores them.
func bucketRows(n int, es []Edge, weighted bool, key func(Edge) (VertexID, VertexID)) rowBuckets {
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
	keys := make([]uint64, len(es))
	for i := len(es) - 1; i >= 0; i-- {
		v, nb := key(es[i])
		w := es[i].Weight
		if !weighted || w == 0 {
			w = 1
		}
		off[v]--
		keys[off[v]] = rowKey(nb, w)
	}
	for v := 0; v < n; v++ {
		if off[v+1]-off[v] > 1 {
			slices.Sort(keys[off[v]:off[v+1]])
		}
	}
	return rowBuckets{off: off, keys: keys}
}

func (b rowBuckets) row(v int) []uint64 {
	if b.off == nil {
		return nil
	}
	return b.keys[b.off[v]:b.off[v+1]]
}

func (b rowBuckets) len(v int) int {
	if b.off == nil {
		return 0
	}
	return b.off[v+1] - b.off[v]
}

// resize returns s resliced to length n, reallocating only when its capacity
// is too small. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
