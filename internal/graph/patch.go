package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// PatchStats reports how much construction work a PatchEdgesPermN call did,
// in edges. Merged edges are written by a row's copy-run merge of its
// sorted basis row with its sorted adds and deletions; remapped edges are entries
// whose stored neighbor ID was rewritten through the permutation (and
// merged back into their row's order); copied
// edges are carried over unchanged — untouched rows, and the unchanged
// entries of remap-only rows, including rows that merely relocated to a new
// index — whether the result shares them with its basis or a fold rewrites
// them. Both are an order of magnitude cheaper per edge than building a
// graph from scratch (which counting-sorts and scatters every edge twice,
// then sorts every row).
type PatchStats struct {
	EdgesMerged   int64 // edges written through row merges (both directions)
	EdgesRemapped int64 // entries rewritten through the permutation (both directions)
	EdgesCopied   int64 // edges carried over unchanged (both directions)
	EdgesWritten  int64 // edges stored into the result's own chunks (both directions)
	// Fold is why the first side that folded did (see foldDeadPct): "dead"
	// edges or "chunks"; empty when neither side folded.
	Fold string
}

// The fold rule: a derivation writes every row into one fresh chunk, instead
// of sharing its basis's chunks, when the chunks it would reference hold
// more than foldDeadPct dead edges per 100 live ones, or when it would
// reference more than maxChunks chunks. Dead edges are the entries of
// rewritten rows still held by older chunks. The bounds keep a lineage
// within 1.1× its live edges, and a dense pass over a graph at either
// within 1% of its cost over a flat graph (TestChunkedRowLocality).
const (
	foldDeadPct = 10
	maxChunks   = 16
)

// PatchEdgesPermN returns a graph equal to g relabeled by perm, then
// patched with dels removed and adds inserted (both given in post-perm IDs),
// without rebuilding untouched adjacency rows. The result has nNew
// vertices; perm (length g.NumVertices()) maps each of g's vertex IDs to its
// new ID and must be injective into [0, nNew), and nil selects the
// identity. An entry NoVertex drops a row that is empty on both sides
// instead of mapping it, and is an error on any other row: a slot space
// hole whose slot another vertex now takes has no image left. New IDs
// without a preimage under perm start with empty rows (plus whatever adds
// reference them). Only a permutation may shrink the vertex space (nNew <
// g.NumVertices()), since only it can drop the empty rows past the end. An
// empty change (no adds or deletions, an identity perm, nNew equal to the
// vertex count) returns the receiver itself; otherwise the receiver is not
// modified.
//
// Each deletion removes one occurrence of exactly (Src, Dst, Weight) as
// stored — i.e. with weights normalized the way FromEdges stores them (1 on
// unweighted graphs and for zero input weights); it is an error if no such
// occurrence exists. Every row of the result is sorted by (neighbor,
// weight), as FromEdges leaves it, so a patch is Equal to a scratch build of
// the same edge multiset.
//
// The cost scales with the change, not the graph: only rows owned by or
// referencing a moved vertex (perm[v] != v), plus rows incident to an
// explicit add or delete, are merged or remapped, into one new chunk; every
// other row shares its basis's storage, so beyond the change a patch costs
// a new degree prefix and extent array per side. An identity injection
// (nil, or no vertex moved — headroom admissions fill reserved slots, so
// pre-existing vertices keep theirs) is detected and takes the nil-perm
// path: no remap row class at all. Only maintenance that actually relocates
// vertices (swap repair) produces non-identity injections, and those remap
// exactly the rows owned by or referencing a moved vertex; a relocated row
// whose entries did not change shares its storage too. When sharing would
// leave too many dead edges or chunks behind (see foldDeadPct), the patch
// folds: it writes every row into one fresh chunk, O(n + m). A permutation
// that moves most vertices (a fresh ordering) or shrinks the vertex space
// renumbers first, in two sort-free O(n + m) passes (see renumber), and
// then merges the adds and deletions into the renumbered graph with no
// permutation; its stats are the renumbering's remapped and copied edges
// and the merge's merged ones, and the edges both wrote.
func (g *Graph) PatchEdgesPermN(nNew int, adds, dels []Edge, perm []VertexID) (*Graph, PatchStats, error) {
	var st PatchStats
	if nNew < g.n && perm == nil {
		return nil, st, fmt.Errorf("graph: patch shrinks vertex space %d -> %d", g.n, nNew)
	}
	if err := checkRange(nNew, adds, dels); err != nil {
		return nil, st, err
	}
	var moved []VertexID
	var taken []uint64 // bit v: new ID v has a preimage
	if perm != nil {
		if len(perm) != g.n {
			return nil, st, fmt.Errorf("graph: patch perm length %d != n %d", len(perm), g.n)
		}
		taken = make([]uint64, (nNew+63)/64)
		for old, nw := range perm {
			if nw == NoVertex {
				if g.OutDegree(VertexID(old))+g.InDegree(VertexID(old)) != 0 {
					return nil, st, fmt.Errorf("graph: patch perm drops non-empty row %d", old)
				}
				continue
			}
			if int(nw) >= nNew || taken[nw/64]&(1<<(nw%64)) != 0 {
				return nil, st, fmt.Errorf("graph: patch perm is not injective at %d -> %d", old, nw)
			}
			taken[nw/64] |= 1 << (nw % 64)
			if VertexID(old) != nw {
				moved = append(moved, VertexID(old))
			}
		}
		if len(moved) == 0 && nNew >= g.n {
			// Identity injection (headroom growth without relocation): every
			// basis row keeps its index, so drop perm — no remap row class.
			perm = nil
		}
	}
	if perm != nil && (2*len(moved) > g.n || nNew < g.n) {
		rn, st := g.renumber(nNew, perm)
		out, mst, err := rn.PatchEdgesPermN(nNew, adds, dels, nil)
		st.EdgesMerged, st.EdgesWritten, st.Fold = mst.EdgesMerged, st.EdgesWritten+mst.EdgesWritten, mst.Fold
		return out, st, err
	}
	if perm == nil && nNew == g.n && len(adds) == 0 && len(dels) == 0 {
		st.EdgesCopied = 2 * g.NumEdges()
		return g, st, nil
	}
	if m := g.NumEdges() + int64(len(adds)) - int64(len(dels)); m < 0 {
		return nil, st, fmt.Errorf("graph: patch deletes %d edges from a graph with %d + %d added", len(dels), g.NumEdges(), len(adds))
	}
	// The slots whose basis row is not their own: each moved vertex's new
	// slot, and the slot it left when no other vertex took it.
	var relocs []reloc
	for _, a := range moved {
		relocs = append(relocs, reloc{to: perm[a], from: a})
		if taken[a/64]&(1<<(a%64)) == 0 {
			relocs = append(relocs, reloc{to: a, from: VertexID(g.n)})
		}
	}
	outSide, inSide := sides(nNew, g.weighted, adds, dels, perm, relocs)
	outSide.g, outSide.basis = g, &g.out
	inSide.g, inSide.basis = g, &g.in
	outSide.remap = remapRows(outSide.relocs, moved, perm, g.InNeighbors)
	inSide.remap = remapRows(inSide.relocs, moved, perm, g.OutNeighbors)

	out := &Graph{n: nNew, weighted: g.weighted}
	var err error
	var outMax, inMax int64
	out.out, outMax, err = outSide.build(&st)
	if err != nil {
		return nil, st, fmt.Errorf("graph: patch out-edges: %w", err)
	}
	out.in, inMax, err = inSide.build(&st)
	if err != nil {
		return nil, st, fmt.Errorf("graph: patch in-edges: %w", err)
	}
	if !g.weighted {
		out.ones = OnesFor(g.ones, max(outMax, inMax))
	}
	return out, st, nil
}

// checkRange checks that the adds and deletions of a change to nNew
// vertices name vertices below nNew.
func checkRange(nNew int, adds, dels []Edge) error {
	for _, e := range adds {
		if int(e.Src) >= nNew || int(e.Dst) >= nNew {
			return fmt.Errorf("graph: patch add (%d,%d) out of range n=%d", e.Src, e.Dst, nNew)
		}
	}
	for _, e := range dels {
		if int(e.Src) >= nNew || int(e.Dst) >= nNew {
			return fmt.Errorf("graph: patch delete (%d,%d) out of range n=%d", e.Src, e.Dst, nNew)
		}
	}
	return nil
}

// sides returns the two sidePatches of a checked row-path change, less
// their basis: the delta sorted into each direction's rows, and relocs,
// the slots whose basis row is not their own, sorted. The rows a moved
// vertex dirties are left to the caller (remapRows).
func sides(nNew int, weighted bool, adds, dels []Edge, perm []VertexID, relocs []reloc) (out, in sidePatch) {
	slices.SortFunc(relocs, func(x, y reloc) int { return cmp.Compare(x.to, y.to) })
	scr := &patchScratch{}
	out = sidePatch{
		n: nNew, weighted: weighted, perm: perm, relocs: relocs,
		adds: scr.sortDelta(adds, weighted, true), dels: scr.sortDelta(dels, weighted, true),
		scratch: scr,
	}
	in = sidePatch{
		n: nNew, weighted: weighted, perm: perm, relocs: relocs,
		adds: scr.sortDelta(adds, weighted, false), dels: scr.sortDelta(dels, weighted, false),
		scratch: scr,
	}
	scr.sort = nil // spent: let the collector have it while the rows are written
	return out, in
}

// reloc names the basis row, from (g.n: none), of a new slot to that is
// not its own.
type reloc struct {
	to, from VertexID
}

// renumber is PatchEdgesPermN's pure renumbering of most vertices (a fresh
// ordering), where the row path would re-sort nearly every row. Each side
// is filled by visiting the new IDs in increasing order and appending each
// to the rows of its other-side neighbors' images, so rows come out in
// (neighbor, weight) order unsorted: entries arrive by increasing neighbor,
// parallel ones in their basis row's weight order. An entry counts as
// remapped when its neighbor moved, as on the row path.
func (g *Graph) renumber(nNew int, perm []VertexID) (*Graph, PatchStats) {
	inv := make([]VertexID, nNew)
	for i := range inv {
		inv[i] = VertexID(g.n) // no preimage
	}
	for u, v := range perm {
		if v != NoVertex {
			inv[v] = VertexID(u)
		}
	}
	out := &Graph{n: nNew, weighted: g.weighted, ones: g.ones}
	out.out = scatterRows(nNew, perm, inv, g.out.off, &g.in, g.ones)
	out.in = scatterRows(nNew, perm, inv, g.in.off, &g.out, g.ones)
	var st PatchStats
	for u, v := range perm {
		if VertexID(u) != v {
			st.EdgesRemapped += g.InDegree(VertexID(u)) + g.OutDegree(VertexID(u))
		}
	}
	st.EdgesCopied = 2*g.NumEdges() - st.EdgesRemapped
	st.EdgesWritten = 2 * g.NumEdges()
	return out, st
}

// scatterRows builds one side of a renumbered graph, as one chunk, from the
// basis's degree prefix off on that side and its other side from, whose row
// u lists the vertices whose rows on this side mention u.
func scatterRows(nNew int, perm, inv []VertexID, off []int64, from *adj, ones []int32) adj {
	newOff := make([]int64, nNew+1)
	for u, v := range perm {
		if v != NoVertex {
			newOff[v+1] = off[u+1] - off[u]
		}
	}
	for v := 0; v < nNew; v++ {
		newOff[v+1] += newOff[v]
	}
	newIDs := make([]VertexID, newOff[nNew])
	var newWs []int32
	if from.ws != nil {
		newWs = make([]int32, newOff[nNew])
	}
	next := slices.Clone(newOff[:nNew])
	for d, u := range inv {
		if int(u) >= len(perm) {
			continue // a hole: no basis row
		}
		ws := from.weights(u, ones)
		for k, s := range from.row(u) {
			r := perm[s]
			newIDs[next[r]] = VertexID(d)
			if newWs != nil {
				newWs[next[r]] = ws[k]
			}
			next[r]++
		}
	}
	return flatAdj(newOff, newIDs, newWs)
}

// sidePatch derives one adjacency direction of a patch. Rows fall into
// three classes: rows with explicit adds or deletions are merged, rows
// merely owned by or referencing a moved vertex are remapped (see
// remapRow), and every other row is clean: it is its basis row at its own
// index. Clean rows, and remapped rows none of whose entries changed,
// share their basis row's storage; the rest are written into one chunk of
// the derivation's own. adds and dels are in post-perm IDs.
type sidePatch struct {
	g        *Graph // the basis
	basis    *adj   // the basis's side
	n        int    // vertex count of the result
	weighted bool

	// src reads the basis rows instead of g and basis when the basis is
	// an overlay, which only reads rows (basisRow).
	src basisRows

	perm   []VertexID // nil when no vertex moved
	relocs []reloc    // the slots whose basis row is not their own, by slot

	remap []VertexID // remap-dirty rows, in post-perm IDs, sorted

	adds, dels rowDelta

	scratch *patchScratch
}

// patchScratch is the per-patch reusable scratch: the delta sort's two
// entry buffers, the rewritten entries of a remapped row, and the remapped
// basis of a merged row.
type patchScratch struct {
	sort []Edge
	keys []uint64
	ids  []VertexID
	ws   []int32
}

// remapRows returns, sorted and without repeats, the new IDs of the rows
// whose basis row is not their own (relocs: a moved vertex's row relocates
// and may self-reference, and a slot it left may be empty) and of the rows
// whose lists mention a moved vertex (their stored neighbor IDs went
// stale). refRows returns the rows (in pre-perm IDs) whose lists mention a
// given pre-perm vertex, so they are found without scanning the graph.
func remapRows(relocs []reloc, moved, perm []VertexID, refRows func(VertexID) []VertexID) []VertexID {
	var rows []VertexID
	for _, r := range relocs {
		rows = append(rows, r.to)
	}
	for _, a := range moved {
		for _, r := range refRows(a) {
			rows = append(rows, perm[r])
		}
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// dirtyRow is a row of the result that need not be its basis row at its own
// index: its basis row (g.n: none), its adds and deletions, and whether it
// is remap-dirty.
type dirtyRow struct {
	v, old     VertexID
	adds, dels []uint64
	remap      bool
}

// dirtyRows walks a side's dirty rows in increasing order — the rows of its
// adds, deletions and remaps, merged — without storing them, so a delta
// that dirties most rows costs no list.
type dirtyRows struct {
	p          *sidePatch
	a, d, r, k int // the next add, deletion, remap and relocation
}

func (p *sidePatch) dirty() *dirtyRows { return &dirtyRows{p: p} }

// next returns the next dirty row, or false after the last.
func (it *dirtyRows) next() (dirtyRow, bool) {
	p := it.p
	if it.a == len(p.adds) && it.d == len(p.dels) && it.r == len(p.remap) {
		return dirtyRow{}, false
	}
	v := VertexID(p.n)
	if it.a < len(p.adds) {
		v = p.adds.row(it.a)
	}
	if it.d < len(p.dels) {
		v = min(v, p.dels.row(it.d))
	}
	if it.r < len(p.remap) {
		v = min(v, p.remap[it.r])
	}
	row := dirtyRow{v: v, old: min(v, VertexID(p.g.n))}
	for it.k < len(p.relocs) && p.relocs[it.k].to < v {
		it.k++
	}
	if it.k < len(p.relocs) && p.relocs[it.k].to == v {
		row.old = p.relocs[it.k].from
	}
	row.adds, it.a = p.adds.run(it.a, v)
	row.dels, it.d = p.dels.run(it.d, v)
	if it.r < len(p.remap) && p.remap[it.r] == v {
		row.remap = true
		it.r++
	}
	return row, true
}

// writes reports whether the derivation writes dirty row d: every row with
// adds or deletions, and a remapped row when remapping changes an entry.
// A remapped row at its own index is remap-dirty only because it mentions
// a moved vertex, so only a relocated row's entries need a look.
func (p *sidePatch) writes(d *dirtyRow) bool {
	return len(d.adds)+len(d.dels) > 0 || d.remap && (d.old == d.v || p.rewrites(d.old))
}

// basisRow returns basis row u with its weights (ones when unweighted), or
// nothing when u is past the basis's rows.
func (p *sidePatch) basisRow(u VertexID) ([]VertexID, []int32) {
	if p.src != nil {
		return p.src.row(u)
	}
	if int(u) >= p.g.n {
		return nil, nil
	}
	return p.basis.row(u), p.basis.weights(u, p.g.ones)
}

// rewrites reports whether remapping basis row u changes any of its
// entries.
func (p *sidePatch) rewrites(u VertexID) bool {
	ids, _ := p.basisRow(u)
	for _, id := range ids {
		if p.perm[id] != id {
			return true
		}
	}
	return false
}

// build derives the side and returns it with its largest written row; every
// other row is a basis row, no longer than the basis's ones. Its only O(n)
// work is the degree prefix and the extent array, each a copy of the
// basis's adjusted at the dirty rows; the rows it writes go into one new
// chunk, unless the fold rule sends every row there.
func (p *sidePatch) build(st *PatchStats) (adj, int64, error) {
	b := p.basis
	off, maxRow, fresh, err := p.prefix()
	if err != nil {
		return adj{}, 0, err
	}
	live, held := off[p.n], fresh
	for _, c := range b.ids {
		held += int64(len(c))
	}
	fold := ""
	switch {
	case 100*(held-live) > foldDeadPct*live:
		fold = "dead"
	case len(b.ids)+1 > maxChunks:
		fold = "chunks"
	}
	if fold != "" {
		st.Fold, st.EdgesWritten = cmp.Or(st.Fold, fold), st.EdgesWritten+live
		a, err := p.fold(st, off)
		return a, maxRow, err
	}
	st.EdgesWritten += fresh

	ext := grown(b.ext, p.n)
	ids := make([]VertexID, fresh)
	var ws []int32
	if b.ws != nil {
		ws = make([]int32, fresh)
	}
	c := int64(len(b.ids))
	copied := live
	var pos int64
	for it := p.dirty(); ; {
		d, ok := it.next()
		if !ok {
			break
		}
		if !p.writes(&d) {
			if d.old != d.v {
				ext[d.v] = 0 // an empty row: any valid extent
				if int(d.old) < p.g.n {
					ext[d.v] = b.ext[d.old]
				}
			}
			continue
		}
		end := pos + off[d.v+1] - off[d.v]
		if err := p.writeRow(st, &d, ids[pos:end], sub(ws, pos, end), p.scratch); err != nil {
			return adj{}, 0, err
		}
		copied -= end - pos
		ext[d.v] = 0
		if end > pos {
			ext[d.v] = c<<extShift | pos
		}
		pos = end
	}
	st.EdgesCopied += copied
	a := adj{off: off, ext: ext, ids: b.ids, ws: b.ws}
	if fresh > 0 {
		a.ids = append(b.ids[:c:c], ids)
		if ws != nil {
			a.ws = append(b.ws[:c:c], ws)
		}
	}
	return a, maxRow, nil
}

// prefix returns the side's degree prefix, its largest dirty row and the
// edges of the rows the derivation writes. It starts from the basis's
// prefix, extended flat over appended rows: every row that is not dirty is
// its basis row at its own index, or an empty appended row, so only the
// dirty rows change a degree, and each change shifts every later entry.
func (p *sidePatch) prefix() (off []int64, maxRow, fresh int64, err error) {
	b, gn := p.basis, p.g.n
	off = grown(b.off, p.n+1)
	for v := gn + 1; v <= p.n; v++ {
		off[v] = b.off[gn]
	}
	var shift int64
	next := 1 // the first entry not yet shifted
	for it := p.dirty(); ; {
		d, ok := it.next()
		if !ok {
			break
		}
		addTo(off[next:d.v+1], shift)
		var deg int64
		if int(d.old) < gn {
			deg = b.deg(d.old)
		}
		deg += int64(len(d.adds) - len(d.dels))
		if deg < 0 {
			return nil, 0, 0, fmt.Errorf("row %d: more deletions than edges", d.v)
		}
		maxRow = max(maxRow, deg)
		if p.writes(&d) {
			fresh += deg
		}
		shift = off[d.v] + deg - off[d.v+1]
		off[d.v+1] += shift
		next = int(d.v) + 2
	}
	addTo(off[min(next, p.n+1):], shift)
	return off, maxRow, fresh, nil
}

// grown returns a copy of s extended with zeros to length n ≥ len(s).
func grown(s []int64, n int) []int64 {
	return append(append(s[:0:0], s...), make([]int64, n-len(s))...)
}

// addTo adds x to every entry of s.
func addTo(s []int64, x int64) {
	if x == 0 {
		return
	}
	for i := range s {
		s[i] += x
	}
}

// fold writes every row of the side, in order, into one fresh chunk: the
// dirty rows through writeRow, and each maximal run of the other rows that
// lie back to back in one basis chunk as one copy.
func (p *sidePatch) fold(st *PatchStats, off []int64) (adj, error) {
	b, live := p.basis, off[p.n]
	ids := make([]VertexID, live)
	var ws []int32
	if b.ws != nil {
		ws = make([]int32, live)
	}
	var from, to, size int64 // the pending run: extent, offset and length
	flush := func() {
		c, lo := from>>extShift, from&extMask
		copy(ids[to:to+size], b.ids[c][lo:lo+size])
		if ws != nil {
			copy(ws[to:to+size], b.ws[c][lo:lo+size])
		}
		st.EdgesCopied += size
		size = 0
	}
	it := p.dirty()
	d, ok := it.next()
	for v := range VertexID(p.n) {
		u := min(v, VertexID(p.g.n))
		if ok && d.v == v {
			if p.writes(&d) {
				flush()
				lo, hi := off[v], off[v+1]
				if err := p.writeRow(st, &d, ids[lo:hi], sub(ws, lo, hi), p.scratch); err != nil {
					return adj{}, err
				}
				d, ok = it.next()
				continue
			}
			u = d.old
			d, ok = it.next()
		}
		if int(u) >= p.g.n || b.deg(u) == 0 {
			continue
		}
		if e := b.ext[u]; size == 0 || e != from+size || to+size != off[v] {
			flush()
			from, to = e, off[v]
		}
		size += b.deg(u)
	}
	flush()
	return flatAdj(off, ids, ws), nil
}

// writeRow writes dirty row d into dst, and its weights into dw unless it
// is nil: a remap-only row through remapRow, any other through mergeRow. A
// remapped row works in scr; no other row touches it.
func (p *sidePatch) writeRow(st *PatchStats, d *dirtyRow, dst []VertexID, dw []int32, scr *patchScratch) error {
	base, bw := p.basisRow(d.old)
	if base != nil && len(d.adds) == 0 && len(d.dels) == 0 {
		// Remap-only row: content unchanged, stale IDs rewritten through
		// perm. Entries whose neighbor did not move carry over unchanged,
		// so only rewritten entries count as remap work.
		rewritten := scr.remapRow(dst, dw, base, bw, p.perm)
		st.EdgesRemapped += rewritten
		st.EdgesCopied += int64(len(base)) - rewritten
		return nil
	}
	if d.remap && base != nil {
		// A dirty row that references a moved vertex: remap its basis into
		// scratch first. An unweighted row keeps its weights, all ones.
		scr.ids = resize(scr.ids, len(base))
		var sw []int32
		if p.weighted {
			scr.ws = resize(scr.ws, len(base))
			sw = scr.ws
		}
		scr.remapRow(scr.ids, sw, base, bw, p.perm)
		base = scr.ids
		if sw != nil {
			bw = sw
		}
	}
	// A merged row, or an appended vertex (no basis row, only adds).
	if err := mergeRow(dst, dw, base, bw, d.adds, d.dels); err != nil {
		return fmt.Errorf("row %d: %w", d.v, err)
	}
	st.EdgesMerged += int64(len(dst))
	return nil
}

// remapRow writes the row (src, ws) with its IDs mapped through perm into
// dst, and its weights into dw unless it is nil, in (neighbor, weight)
// order, and returns how many IDs changed. The runs of entries whose
// neighbor did not move are copied in order; the rewritten entries are
// sorted apart and merged in from the back, so a row with k rewritten
// entries costs one scan, k+1 copies and O(k log k).
func (s *patchScratch) remapRow(dst []VertexID, dw []int32, src []VertexID, ws []int32, perm []VertexID) int64 {
	s.keys = s.keys[:0]
	keep, from := 0, 0
	for k, id := range src {
		if nid := perm[id]; nid != id {
			keep += copyRun(dst[keep:], dw, keep, src[from:k], ws[from:k])
			s.keys = append(s.keys, rowKey(nid, ws[k]))
			from = k + 1
		}
	}
	keep += copyRun(dst[keep:], dw, keep, src[from:], ws[from:])
	if len(s.keys) == 0 {
		return 0
	}
	slices.Sort(s.keys)
	i, j := keep-1, len(s.keys)-1
	for o := len(src) - 1; j >= 0; o-- {
		id, w := keyEntry(s.keys[j])
		if i >= 0 && rowKey(dst[i], weightAt(dw, i)) > s.keys[j] {
			id, w = dst[i], weightAt(dw, i)
			i--
		} else {
			j--
		}
		put(dst, dw, o, id, w)
	}
	return int64(len(s.keys))
}

// copyRun copies the entries ids, and their weights ws into dw at offset at
// unless dw is nil, to the front of dst and returns how many it copied.
func copyRun(dst []VertexID, dw []int32, at int, ids []VertexID, ws []int32) int {
	if dw != nil {
		copy(dw[at:], ws)
	}
	return copy(dst, ids)
}

// weightAt returns dw[i], or 1 when dw is nil (an unweighted row).
func weightAt(dw []int32, i int) int32 {
	if dw == nil {
		return 1
	}
	return dw[i]
}

// mergeRow writes the basis row (base, bw) minus one occurrence per deletion
// plus the additions into dst, and into dw unless it is nil; all three
// inputs are sorted by rowKey. Each delta key, deletions first on ties,
// scans the basis forward to its place — IDs first, weights only on ties —
// and copies the basis run it passed whole, then drops the basis entry it
// deletes or writes the entry it adds. dst is sized for every deletion
// matching; when one does not, mergeRow returns an error without writing
// past dst.
func mergeRow(dst []VertexID, dw []int32, base []VertexID, bw []int32, adds, dels []uint64) error {
	i, k, a, d := 0, 0, 0, 0 // the next basis entry, output slot, add and deletion
	for a < len(adds) || d < len(dels) {
		x, del := uint64(0), d < len(dels) && (a == len(adds) || dels[d] <= adds[a])
		if del {
			x, d = dels[d], d+1
		} else {
			x, a = adds[a], a+1
		}
		id, w := keyEntry(x)
		j := i
		for j < len(base) && base[j] < id {
			j++
		}
		for j < len(base) && base[j] == id && bw[j] < w {
			j++
		}
		if k+j-i > len(dst) {
			return unmatched(base, bw, dels)
		}
		k += copyRun(dst[k:], dw, k, base[i:j], bw[i:j])
		i = j
		if del {
			if i == len(base) || base[i] != id || bw[i] != w {
				return unmatched(base, bw, dels)
			}
			i++
			continue
		}
		if k == len(dst) {
			return unmatched(base, bw, dels)
		}
		put(dst, dw, k, id, w)
		k++
	}
	// Every deletion matched, so the rest of the basis fills dst exactly.
	copyRun(dst[k:], dw, k, base[i:], bw[i:])
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

// rowDelta is one direction's view of a patch's adds or deletions, sorted
// by (row, rowKey): for each row that has entries, in increasing order, a
// header row<<32 | count followed by the row's count entries as rowKeys.
// Weights are normalized the way FromEdges stores them.
type rowDelta []uint64

// row returns the row of the header at i.
func (d rowDelta) row(i int) VertexID { return VertexID(d[i] >> 32) }

// run returns the entries of row v if the header at i heads them, and the
// index past them; otherwise none, and i.
func (d rowDelta) run(i int, v VertexID) ([]uint64, int) {
	if i == len(d) || d.row(i) != v {
		return nil, i
	}
	hi := i + 1 + int(uint32(d[i]))
	return d[i+1 : hi : hi], hi
}

// sortDelta sorts es by out-row (Src) when out is set, else by in-row
// (Dst), into its rowDelta: SortEdges orders the edges as (row, neighbor,
// normalized weight) in the scratch's two entry buffers, which a patch's
// four deltas reuse, so only the key array stays.
func (s *patchScratch) sortDelta(es []Edge, weighted, out bool) rowDelta {
	s.sort = resize(s.sort, 2*len(es))
	xs := s.sort[:len(es)]
	for i, e := range es {
		if !out {
			e.Src, e.Dst = e.Dst, e.Src
		}
		if !weighted || e.Weight == 0 {
			e.Weight = 1
		}
		xs[i] = e
	}
	xs = SortEdges(xs, s.sort[len(es):])
	rows := 0
	for i, x := range xs {
		if i == 0 || x.Src != xs[i-1].Src {
			rows++
		}
	}
	d, h := make(rowDelta, 0, rows+len(xs)), 0
	for i, x := range xs {
		if i == 0 || x.Src != xs[i-1].Src {
			h, d = len(d), append(d, uint64(x.Src)<<32)
		}
		d[h]++
		d = append(d, rowKey(x.Dst, x.Weight))
	}
	return d
}

// CompareEdges orders edges by (Src, Dst, Weight), Weight signed: the
// order SortEdges leaves.
func CompareEdges(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Weight, b.Weight))
}

// SortEdges sorts es by (Src, Dst, Weight), Weight signed, with a stable
// LSD radix sort of its twelve key bytes, and returns the result: es itself
// or tmp, a buffer of es's length. A byte every edge shares orders nothing,
// so its pass is skipped: unweighted edges pay no weight pass, and IDs
// below 2^16 no high-byte pass.
func SortEdges(es, tmp []Edge) []Edge {
	or, and := [3]uint32{}, [3]uint32{^uint32(0), ^uint32(0), ^uint32(0)} // per key word
	for _, e := range es {
		for f := range or {
			or[f] |= edgeWord(e, f)
			and[f] &= edgeWord(e, f)
		}
	}
	for b := range 12 {
		if byte((or[b>>2]^and[b>>2])>>(8*(b&3))) == 0 {
			continue // every edge shares byte b
		}
		var c [256]int
		for _, e := range es {
			c[edgeDigit(e, b)]++
		}
		sum := 0
		for i, x := range c {
			c[i], sum = sum, sum+x
		}
		for _, e := range es {
			d := edgeDigit(e, b)
			tmp[c[d]] = e
			c[d]++
		}
		es, tmp = tmp, es
	}
	return es
}

// edgeDigit returns byte b of e's sort key, least significant first.
func edgeDigit(e Edge, b int) byte { return byte(edgeWord(e, b>>2) >> (8 * (b & 3))) }

// edgeWord returns word f of e's sort key, least significant first: Weight
// with its sign bit flipped, then Dst, then Src.
func edgeWord(e Edge, f int) uint32 {
	switch f {
	case 0:
		return uint32(e.Weight) ^ 1<<31
	case 1:
		return uint32(e.Dst)
	}
	return uint32(e.Src)
}

// resize returns s resliced to length n, reallocating only when its capacity
// is too small. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
