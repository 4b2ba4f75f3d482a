package graph

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// PatchStats reports how much construction work a Patch call did, in
// edges. Merged edges are written by a row's copy-run merge of its sorted
// basis row with its sorted adds and deletions; remapped edges are entries
// whose stored neighbor ID was rewritten through the slot map (and merged
// back into their row's order); copied edges are carried over unchanged —
// untouched rows, and the unchanged entries of remap-only rows, including
// rows that merely relocated to a new index — whether the result shares
// them with its basis or a fold rewrites them. Both are an order of
// magnitude cheaper per edge than building a graph from scratch (which
// counting-sorts and scatters every edge twice, then sorts every row).
type PatchStats struct {
	EdgesMerged   int64 // edges written through row merges (both directions)
	EdgesRemapped int64 // entries rewritten through the slot map (both directions)
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

// Patch returns the graph of nNew vertices the slot-space delta d derives
// from g, without rebuilding untouched adjacency rows; NewOverlay reads the
// same graph's rows without deriving it. It routes on d.Broken alone. A
// lineage break renumbers every row by the full slot map d.Seg (Relabel's
// check and renumbering), then merges the adds and deletions; its stats
// are the renumbering's remapped and copied edges, the merge's merged
// ones, and the edges both wrote. Every other delta takes the row path,
// which reads d.Seg only at the moved slots (d.Moved) and their images, as
// Delta documents it (an empty Moved moves nothing), and may not shrink the
// vertex space. An empty change (no moves, adds or deletions, and nNew the
// vertex count) returns the receiver itself; otherwise the receiver is not
// modified.
//
// Each deletion removes one occurrence of exactly (Src, Dst, Weight) as
// stored — i.e. with weights normalized the way FromEdges stores them (1
// on unweighted graphs and for zero input weights); it is an error if no
// such occurrence exists. Every row of the result is sorted by (neighbor,
// weight), as FromEdges leaves it, so a patch is Equal to a scratch build
// of the same edge multiset.
//
// The row path's cost scales with the change, not the graph: only rows
// relocated by a move or mentioning a moved vertex (swap repairs move
// vertices; headroom admissions fill reserved slots), plus rows incident
// to an add or deletion, are remapped or merged, into one new chunk; every
// other row, and a relocated row whose entries did not change, shares its
// basis's storage, so beyond the change a patch costs a new degree prefix
// and extent array per side. When sharing would leave too many dead edges
// or chunks behind (see foldDeadPct), the patch folds: it writes every row
// into one fresh chunk, O(n + m).
func (g *Graph) Patch(nNew int, d Delta) (*Graph, PatchStats, error) {
	if d.Broken {
		rn, st, err := g.renumber(nNew, d.Seg)
		if err != nil {
			return nil, st, err
		}
		out, mst, err := rn.Patch(nNew, Delta{Adds: d.Adds, Dels: d.Dels})
		st.EdgesMerged, st.EdgesWritten, st.Fold = mst.EdgesMerged, st.EdgesWritten+mst.EdgesWritten, mst.Fold
		return out, st, err
	}
	var st PatchStats
	if nNew == g.n && len(d.Moved)+len(d.Adds)+len(d.Dels) == 0 {
		st.EdgesCopied = 2 * g.NumEdges()
		return g, st, nil
	}
	out, in := g.rows()
	po, pi, maxRow, err := sides(g.n, g.NumEdges(), g.weighted, out, in, nNew, d)
	if err != nil {
		return nil, st, err
	}
	h := &Graph{n: nNew, weighted: g.weighted}
	if h.out, err = po.build(&st, &g.out); err != nil {
		return nil, st, fmt.Errorf("graph: patch out-edges: %w", err)
	}
	if h.in, err = pi.build(&st, &g.in); err != nil {
		return nil, st, fmt.Errorf("graph: patch in-edges: %w", err)
	}
	if !g.weighted {
		h.ones = OnesFor(g.ones, maxRow)
	}
	return h, st, nil
}

// sides checks the within-lineage delta d to nNew vertices over a basis of
// nb vertices and m edges, whose two directions read through out and in,
// and returns its two side patches with their dirty-row indexes, and the
// largest row with adds or deletions. It is the one check and indexing of
// a delta, for Patch and for the overlays alike.
func sides(nb int, m int64, weighted bool, out, in basisRows, nNew int, d Delta) (po, pi sidePatch, maxRow int64, err error) {
	if nNew < nb {
		return po, pi, 0, fmt.Errorf("graph: patch shrinks vertex space %d -> %d", nb, nNew)
	}
	if err := checkRange(nNew, d.Adds, d.Dels); err != nil {
		return po, pi, 0, err
	}
	relocs, err := relocsOf(nb, nNew, d, func(t VertexID) int64 { return out.deg(t) + in.deg(t) })
	if err != nil {
		return po, pi, 0, err
	}
	if m+int64(len(d.Adds)-len(d.Dels)) < 0 {
		return po, pi, 0, fmt.Errorf("graph: patch deletes %d edges from a graph with %d + %d added", len(d.Dels), m, len(d.Adds))
	}
	var movers []uint64
	if len(d.Moved) > 0 {
		movers = make([]uint64, (nb+63)/64)
		for _, a := range d.Moved {
			mark(movers, a)
		}
	}
	scr := &patchScratch{}
	side := func(src basisRows, outRows bool) sidePatch {
		return sidePatch{
			n: nNew, nb: nb, weighted: weighted, src: src, perm: d.Seg, movers: movers, relocs: relocs,
			adds: scr.sortDelta(d.Adds, weighted, outRows), dels: scr.sortDelta(d.Dels, weighted, outRows),
			scratch: scr,
		}
	}
	po, pi = side(out, true), side(in, false)
	scr.sort = nil // spent: let the collector have it while the rows are written
	outMax, err := po.index(d.Moved, in)
	if err != nil {
		return po, pi, 0, fmt.Errorf("graph: patch out-edges: %w", err)
	}
	inMax, err := pi.index(d.Moved, out)
	if err != nil {
		return po, pi, 0, fmt.Errorf("graph: patch in-edges: %w", err)
	}
	return po, pi, max(outMax, inMax), nil
}

// checkRange checks that the adds and deletions of a change to nNew
// vertices name vertices below nNew.
func checkRange(nNew int, adds, dels []Edge) error {
	for i, es := range [][]Edge{adds, dels} {
		for _, e := range es {
			if int(e.Src) >= nNew || int(e.Dst) >= nNew {
				return fmt.Errorf("graph: patch %s (%d,%d) out of range n=%d", [2]string{"add", "delete"}[i], e.Src, e.Dst, nNew)
			}
		}
	}
	return nil
}

// reloc names the basis row, from (the basis's vertex count: none), of a
// new slot to that is not its own.
type reloc struct {
	to, from VertexID
}

// relocsOf returns the relocations of d's moves over a basis of nb
// vertices, sorted by slot, in O(moves log moves): each moved vertex's new
// slot, and the slot it left when no other moved vertex took it. It checks
// that the moves are injective: each image is a slot below nNew that
// another moved vertex left, an appended one, or a hole without an image
// (a row d.Seg maps to NoVertex, whose edges, counted by edges, must be
// none).
func relocsOf(nb, nNew int, d Delta, edges func(VertexID) int64) ([]reloc, error) {
	if len(d.Moved) == 0 {
		return nil, nil
	}
	if len(d.Seg) != nb {
		return nil, fmt.Errorf("graph: patch perm length %d != n %d", len(d.Seg), nb)
	}
	images := make([]VertexID, 0, len(d.Moved))
	for _, a := range d.Moved {
		if int(a) >= nb {
			return nil, fmt.Errorf("graph: patch moves vertex %d of %d", a, nb)
		}
		images = append(images, d.Seg[a])
	}
	slices.Sort(images)
	for i, t := range images {
		_, left := slices.BinarySearch(d.Moved, t)
		switch {
		case int(t) >= nNew || i > 0 && images[i-1] == t:
			return nil, fmt.Errorf("graph: patch perm is not injective at -> %d", t)
		case left || int(t) >= nb:
		case d.Seg[t] != NoVertex:
			return nil, fmt.Errorf("graph: patch perm moves a vertex onto kept slot %d", t)
		case edges(t) != 0:
			return nil, fmt.Errorf("graph: patch perm drops non-empty row %d", t)
		}
	}
	relocs := make([]reloc, 0, 2*len(d.Moved))
	for _, a := range d.Moved {
		relocs = append(relocs, reloc{to: d.Seg[a], from: a})
		if _, taken := slices.BinarySearch(images, a); !taken {
			relocs = append(relocs, reloc{to: a, from: VertexID(nb)})
		}
	}
	slices.SortFunc(relocs, func(x, y reloc) int { return cmp.Compare(x.to, y.to) })
	return relocs, nil
}

// renumber is Relabel, with its stats: the pure renumbering of every row a
// lineage break takes, where the row path would re-sort nearly every row.
// It checks perm as Relabel documents, building the inverse map as it
// goes. Each side is filled by visiting the new IDs in increasing order
// and appending each to the rows of its other-side neighbors' images, so
// rows come out in (neighbor, weight) order unsorted: entries arrive by
// increasing neighbor, parallel ones in their basis row's weight order. An
// entry counts as remapped when its neighbor moved, as on the row path.
func (g *Graph) renumber(nNew int, perm []VertexID) (*Graph, PatchStats, error) {
	var st PatchStats
	if len(perm) != g.n {
		return nil, st, fmt.Errorf("graph: relabel perm length %d != n %d", len(perm), g.n)
	}
	inv := make([]VertexID, nNew)
	for i := range inv {
		inv[i] = VertexID(g.n) // no preimage
	}
	for u, v := range perm {
		deg := g.InDegree(VertexID(u)) + g.OutDegree(VertexID(u))
		switch {
		case v == NoVertex:
			if deg != 0 {
				return nil, st, fmt.Errorf("graph: relabel perm drops non-empty row %d", u)
			}
		case int(v) >= nNew || int(inv[v]) != g.n:
			return nil, st, fmt.Errorf("graph: relabel perm is not injective at %d -> %d", u, v)
		default:
			inv[v] = VertexID(u)
		}
		if VertexID(u) != v {
			st.EdgesRemapped += deg
		}
	}
	out := &Graph{n: nNew, weighted: g.weighted, ones: g.ones}
	out.out = scatterRows(nNew, perm, inv, g.out.off, &g.in, g.ones)
	out.in = scatterRows(nNew, perm, inv, g.in.off, &g.out, g.ones)
	st.EdgesCopied = 2*g.NumEdges() - st.EdgesRemapped
	st.EdgesWritten = 2 * g.NumEdges()
	return out, st, nil
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

// sidePatch is one adjacency direction of a within-lineage delta, the side
// a derivation writes (build) and an overlay reads (overlaySide). Rows fall
// into three classes: rows with explicit adds or deletions are merged, rows
// merely relocated by a move or mentioning a moved vertex are remapped (see
// remapRow), and every other row is clean: it is its basis row at its own
// index. The dirty-row index (index) marks the first two classes; a
// derivation walks it in row order (walk), and an overlay reads one of its
// rows at a time (overlaySide.find). Clean rows, and remapped rows none of
// whose entries changed, are their basis rows; the derivation writes the
// rest into one chunk of its own. adds and dels are in the target's slots.
type sidePatch struct {
	n, nb    int // vertex counts of the result and of the basis
	weighted bool
	src      basisRows // the basis's rows on this side

	perm   []VertexID // the slot map, read only at the movers
	movers []uint64   // bit v: basis slot v moved (nil: none did)
	relocs []reloc    // the slots whose basis row is not their own, by slot

	adds, dels rowDelta

	dirty []uint64   // bit v: row v is dirty
	remap []uint64   // bit v: row v is remap-dirty (nil: nothing moved)
	rows  []VertexID // the rows with adds or deletions, sorted
	runs  []runAt    // parallel to rows

	scratch *patchScratch
}

// runAt locates a row's runs in its side's rowDeltas: the index of the
// header of its adds and of its deletions (-1 for none).
type runAt struct {
	add, del int
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

// index builds p's dirty-row index and returns the largest degree of its
// rows with adds or deletions. It marks the rows relocated by a move and
// those that mention a moved vertex, found through the moved vertices'
// rows on the other side (other), and the rows with adds or deletions,
// whose runs and degrees it keeps, checking each degree for one below
// zero.
func (p *sidePatch) index(moved []VertexID, other basisRows) (int64, error) {
	words := (p.n + 63) / 64
	p.dirty = make([]uint64, words)
	if len(p.relocs) > 0 {
		p.remap = make([]uint64, words)
		for _, r := range p.relocs {
			mark(p.remap, r.to)
		}
		for _, a := range moved {
			refs, _ := other.row(a)
			for _, r := range refs {
				mark(p.remap, p.image(r))
			}
		}
		copy(p.dirty, p.remap)
	}
	rows := (len(p.adds) + len(p.dels)) / 2 // each row's run is a header and an entry or more
	p.rows, p.runs = make([]VertexID, 0, rows), make([]runAt, 0, rows)
	var maxRow int64
	k := 0 // the next relocation
	for a, d := 0, 0; a < len(p.adds) || d < len(p.dels); {
		v := VertexID(p.n)
		if a < len(p.adds) {
			v = p.adds.row(a)
		}
		if d < len(p.dels) {
			v = min(v, p.dels.row(d))
		}
		at := runAt{add: -1, del: -1}
		var adds, dels []uint64
		if adds, a = p.adds.run(a, v); adds != nil {
			at.add = a - len(adds) - 1
		}
		if dels, d = p.dels.run(d, v); dels != nil {
			at.del = d - len(dels) - 1
		}
		deg := int64(len(adds)-len(dels)) + p.src.deg(p.oldAt(&k, v))
		if deg < 0 {
			return 0, fmt.Errorf("row %d: more deletions than edges", v)
		}
		maxRow = max(maxRow, deg)
		mark(p.dirty, v)
		p.rows, p.runs = append(p.rows, v), append(p.runs, at)
	}
	return maxRow, nil
}

// image returns basis slot v's slot in the result: its slot map entry when
// it moved, else v. The slot map is read nowhere else but at the images
// relocsOf checks, so its entries at other slots cannot corrupt a row.
func (p *sidePatch) image(v VertexID) VertexID {
	if marked(p.movers, v) {
		return p.perm[v]
	}
	return v
}

// mark sets bit v of a bitmap.
func mark(bits []uint64, v VertexID) { bits[v/64] |= 1 << (v % 64) }

// marked reports bit v of a bitmap, false for a nil one.
func marked(bits []uint64, v VertexID) bool {
	return bits != nil && bits[v/64]&(1<<(v%64)) != 0
}

// oldAt returns the basis row of row v: the one relocated to it, else its
// own, or the basis's vertex count for none. k is a cursor into relocs,
// which successive calls for increasing rows advance.
func (p *sidePatch) oldAt(k *int, v VertexID) VertexID {
	rs := p.relocs
	for *k < len(rs) && rs[*k].to < v {
		*k++
	}
	if *k < len(rs) && rs[*k].to == v {
		return rs[*k].from
	}
	return min(v, VertexID(p.nb))
}

// dirtyRow is a row of the result that need not be its basis row at its own
// index: its basis row (the basis's vertex count: none), its adds and
// deletions, whether it is remap-dirty, and its degree.
type dirtyRow struct {
	v, old     VertexID
	adds, dels []uint64
	remap      bool
	deg        int64
}

// fill fills in dirty row d.v, whose basis row is d.old: whether it is
// remap-dirty, its adds and deletions, those of rows[k] when has, and its
// degree.
func (p *sidePatch) fill(d *dirtyRow, k int, has bool) {
	d.remap, d.adds, d.dels = marked(p.remap, d.v), nil, nil
	if has {
		at := p.runs[k]
		if at.add >= 0 {
			d.adds, _ = p.adds.run(at.add, d.v)
		}
		if at.del >= 0 {
			d.dels, _ = p.dels.run(at.del, d.v)
		}
	}
	d.deg = p.src.deg(d.old) + int64(len(d.adds)-len(d.dels))
}

// walk is a cursor over a side's dirty rows in increasing order: the set
// bits of its dirty bitmap, each read through cursors into relocs and rows,
// so a walk costs one pass over the bitmap's words and no search.
type walk struct {
	dirtyRow // the row visited
	p        *sidePatch
	w        int    // the word of the bitmap being read
	left     uint64 // its bits not yet visited
	k, r     int    // the next entry of relocs and of rows
}

func (p *sidePatch) walk() *walk { return &walk{p: p, w: -1} }

// next moves to the next dirty row, and reports false after the last.
func (c *walk) next() bool {
	p := c.p
	for c.left == 0 {
		if c.w++; c.w >= len(p.dirty) {
			return false
		}
		c.left = p.dirty[c.w]
	}
	c.v = VertexID(64*c.w + bits.TrailingZeros64(c.left))
	c.left &= c.left - 1
	c.old = p.oldAt(&c.k, c.v)
	has := c.r < len(p.rows) && p.rows[c.r] == c.v
	p.fill(&c.dirtyRow, c.r, has)
	if has {
		c.r++
	}
	return true
}

// writes reports whether the derivation writes dirty row d: every row with
// adds or deletions, and a remapped row when remapping changes an entry.
// A remapped row at its own index is remap-dirty only because it mentions
// a moved vertex, so only a relocated row's entries need a look.
func (p *sidePatch) writes(d *dirtyRow) bool {
	return len(d.adds)+len(d.dels) > 0 || d.remap && (d.old == d.v || p.rewrites(d.old))
}

// rewrites reports whether remapping basis row u changes any of its
// entries.
func (p *sidePatch) rewrites(u VertexID) bool {
	ids, _ := p.src.row(u)
	for _, id := range ids {
		if p.image(id) != id {
			return true
		}
	}
	return false
}

// build derives the side over its basis side b and returns it; every row
// it does not write is a basis row. Its only O(n) work is the degree prefix
// and the extent array, each a copy of the basis's adjusted at the dirty
// rows; the rows it writes go into one new chunk, unless the fold rule
// sends every row there.
func (p *sidePatch) build(st *PatchStats, b *adj) (adj, error) {
	off, fresh := p.prefix(b)
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
		return p.fold(st, off, b)
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
	for it := p.walk(); it.next(); {
		d := &it.dirtyRow
		if !p.writes(d) {
			if d.old != d.v {
				ext[d.v] = 0 // an empty row: any valid extent
				if int(d.old) < p.nb {
					ext[d.v] = b.ext[d.old]
				}
			}
			continue
		}
		end := pos + d.deg
		if err := p.writeRow(st, d, ids[pos:end], sub(ws, pos, end), p.scratch); err != nil {
			return adj{}, err
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
	return a, nil
}

// prefix returns the side's degree prefix over its basis side b, and the
// edges of the rows the derivation writes. It starts from the basis's
// prefix, extended flat over appended rows: every row that is not dirty is
// its basis row at its own index, or an empty appended row, so only the
// dirty rows change a degree, and each change shifts every later entry.
func (p *sidePatch) prefix(b *adj) (off []int64, fresh int64) {
	off = grown(b.off, p.n+1)
	for v := p.nb + 1; v <= p.n; v++ {
		off[v] = b.off[p.nb]
	}
	var shift int64
	next := 1 // the first entry not yet shifted
	for it := p.walk(); it.next(); {
		d := &it.dirtyRow
		addTo(off[next:d.v+1], shift)
		if p.writes(d) {
			fresh += d.deg
		}
		shift = off[d.v] + d.deg - off[d.v+1]
		off[d.v+1] += shift
		next = int(d.v) + 2
	}
	addTo(off[min(next, p.n+1):], shift)
	return off, fresh
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

// fold writes every row of the side over its basis side b, in order, into
// one fresh chunk: the dirty rows through writeRow, and each maximal run of
// the other rows that lie back to back in one basis chunk as one copy.
func (p *sidePatch) fold(st *PatchStats, off []int64, b *adj) (adj, error) {
	live := off[p.n]
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
	it := p.walk()
	ok := it.next()
	for v := range VertexID(p.n) {
		u := min(v, VertexID(p.nb))
		if ok && it.v == v {
			if p.writes(&it.dirtyRow) {
				flush()
				lo, hi := off[v], off[v+1]
				if err := p.writeRow(st, &it.dirtyRow, ids[lo:hi], sub(ws, lo, hi), p.scratch); err != nil {
					return adj{}, err
				}
				ok = it.next()
				continue
			}
			u = it.old
			ok = it.next()
		}
		if int(u) >= p.nb || b.deg(u) == 0 {
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
	base, bw := p.src.row(d.old)
	if base != nil && len(d.adds) == 0 && len(d.dels) == 0 {
		// Remap-only row: content unchanged, stale IDs rewritten to their
		// images. Entries whose neighbor did not move carry over unchanged,
		// so only rewritten entries count as remap work.
		rewritten := p.remapRow(scr, dst, dw, base, bw)
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
		p.remapRow(scr, scr.ids, sw, base, bw)
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

// remapRow writes the row (src, ws) with its IDs mapped to their images
// into dst, and its weights into dw unless it is nil, in (neighbor,
// weight) order, working in s, and returns how many IDs changed. The runs
// of entries whose neighbor did not move are copied in order; the
// rewritten entries are sorted apart and merged in from the back, so a row
// with k rewritten entries costs one scan, k+1 copies and O(k log k).
func (p *sidePatch) remapRow(s *patchScratch, dst []VertexID, dw []int32, src []VertexID, ws []int32) int64 {
	s.keys = s.keys[:0]
	keep, from := 0, 0
	for k, id := range src {
		if nid := p.image(id); nid != id {
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
