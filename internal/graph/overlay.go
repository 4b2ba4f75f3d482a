package graph

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Rows is the row-read interface of a graph: the vertex and edge counts,
// out-degrees and the adjacency rows with their weights, which is all a
// sparse traversal and a sparse frontier read. *Graph implements it, and so
// does Overlay, which reads a derivation's rows without deriving it. The
// returned slices alias storage the caller must not modify; an unweighted
// graph returns a prefix of ones as the weights.
type Rows interface {
	NumVertices() int
	NumEdges() int64
	OutDegree(v VertexID) int64
	OutRow(v VertexID) ([]VertexID, []int32)
	InRow(v VertexID) ([]VertexID, []int32)
}

// OutRow returns v's out-neighbors and their weights (OutNeighbors,
// OutWeights).
func (g *Graph) OutRow(v VertexID) ([]VertexID, []int32) {
	return g.out.row(v), g.out.weights(v, g.ones)
}

// InRow returns v's in-neighbors and their weights (InNeighbors,
// InWeights).
func (g *Graph) InRow(v VertexID) ([]VertexID, []int32) {
	return g.in.row(v), g.in.weights(v, g.ones)
}

// Overlay reads the rows of the graph a derivation would write, without
// deriving it: NewOverlay stands for base.PatchEdgesPermN(nNew, d.Adds,
// d.Dels, d.Seg), and Extend for the derivation that patches the graph an
// overlay stands for by a further delta. A row no change touches is read
// from the basis in place, and a dirty row (one with adds or deletions, a
// relocated one, or one that mentions a moved vertex) is written on its
// first read by the derivation's own row code (remapRow, mergeRow), so it
// comes out equal to the derived row, sorted by (neighbor, weight).
// Building an overlay costs its delta's sort, the rows of its moved
// vertices and a few bitmaps, and no O(n) degree prefix or extent copy. A
// read tests one bit for a row no overlay of the stack touches, and
// otherwise walks the stack's dirty bitmaps to the overlay that last made
// the row dirty, which works out its degree and writes its row once and
// keeps them. Like a Graph, an Overlay is immutable and safe for
// concurrent readers.
//
//vebo:frozen
type Overlay struct {
	n        int
	m        int64
	weighted bool
	depth    int     // the overlays in the stack down to the graph, this one included
	ones     []int32 // unweighted: all ones, at least as long as the largest row
	out, in  overlaySide
}

// basisRows reads one direction of an overlay's basis, a graph or another
// overlay: a row with its weights (ones when unweighted), and a degree;
// nothing past the basis's rows.
type basisRows interface {
	row(v VertexID) ([]VertexID, []int32)
	deg(v VertexID) int64
}

// graphRows is one direction of a Graph as an overlay's basis.
type graphRows struct {
	a    *adj
	n    int
	ones []int32
}

func (s graphRows) row(v VertexID) ([]VertexID, []int32) {
	if int(v) >= s.n {
		return nil, nil
	}
	return s.a.row(v), s.a.weights(v, s.ones)
}

func (s graphRows) deg(v VertexID) int64 {
	if int(v) >= s.n {
		return 0
	}
	return s.a.deg(v)
}

// overlaySide is one direction of an Overlay: the derivation's sidePatch,
// reading its basis through p.src, the bitmaps of its dirty rows and of
// those that relocated or mention a moved vertex, where the runs of the
// rows with adds or deletions start and their degrees, and what a read of
// a row no overlay of the stack touches goes to. A dirty row's degree and
// row are kept in memo at the row's rank among the dirty rows (prefix), so
// an overlay works each out once however often it and the overlays stacked
// on it read the row.
type overlaySide struct {
	p            sidePatch
	nb           int        // the basis's vertex count
	ones         []int32    // the overlay's
	dirty        []uint64   // bit v: row v is dirty
	moved, remap []uint64   // bit v: a row relocated to v; v is remap-dirty (nil: nothing moved)
	rows         []VertexID // the rows with adds or deletions, sorted
	runs         []runAt    // parallel to rows
	count        int        // dirty rows
	prefix       []int32    // the dirty rows before each word of dirty
	memo         []rowMemo  // per dirty row, by rank
	below        *overlaySide
	root         graphRows // the graph at the bottom of the stack
	stack        []uint64  // bit v: row v is dirty in this overlay or one below
}

// rowMemo keeps what reads of one dirty row worked out: its degree plus
// one (0: not yet) and its row. Concurrent first reads may both work a
// row out; they store equal values.
type rowMemo struct {
	deg atomic.Int64
	row atomic.Pointer[cachedRow]
}

type cachedRow struct {
	ids []VertexID
	ws  []int32
}

// runAt locates a row's runs in its side's rowDeltas, the index of the
// header of its adds and of its deletions (-1 for none), and keeps the
// row's degree.
type runAt struct {
	add, del int
	deg      int64
}

// NewOverlay returns the overlay of base patched by the slot-space delta d
// within one numbering lineage: the change
// base.PatchEdgesPermN(nNew, d.Adds, d.Dels, d.Seg) takes, for nNew at
// least base's vertex count. It reads d.Seg only at the moved slots
// (d.Moved) and their images, as Delta documents it: every other basis
// slot keeps its index. It checks what the derivation would, except a
// deletion that matches no occurrence in its row, which panics the read of
// that row. A broken lineage (d.Broken) renumbers every row and has no
// overlay.
func NewOverlay(base *Graph, nNew int, d Delta) (*Overlay, error) {
	b := &Overlay{n: base.n, m: base.NumEdges(), weighted: base.weighted}
	out, in := graphRows{&base.out, base.n, base.ones}, graphRows{&base.in, base.n, base.ones}
	return b.extend(basisSide{rows: out, root: out}, basisSide{rows: in, root: in}, base.ones, nNew, d)
}

// Extend returns the overlay of the graph o stands for patched by d, as
// NewOverlay: its rows read through o's.
func (o *Overlay) Extend(nNew int, d Delta) (*Overlay, error) {
	e, err := o.extend(o.out.basis(), o.in.basis(), o.ones, nNew, d)
	if e != nil {
		e.depth += o.depth
	}
	return e, err
}

// basisSide is one direction of what an overlay reads through: its
// basis's rows, the rows of the graph at the bottom of the stack, and the
// rows any overlay of the stack makes dirty (nil when the basis is that
// graph).
type basisSide struct {
	rows  basisRows
	root  graphRows
	stack []uint64
}

// basis returns s as the basis of an overlay stacked on its own.
func (s *overlaySide) basis() basisSide {
	return basisSide{rows: s, root: s.root, stack: s.stack}
}

// Depth reports how many overlays the stack down to a graph holds, o
// included: 1 for NewOverlay's, one more for each Extend.
func (o *Overlay) Depth() int { return o.depth }

// extend builds the overlay of the graph b stands for, whose sides read
// through out and in, patched by d; ones is b's ones.
func (b *Overlay) extend(out, in basisSide, ones []int32, nNew int, d Delta) (*Overlay, error) {
	if nNew < b.n {
		return nil, fmt.Errorf("graph: overlay shrinks vertex space %d -> %d", b.n, nNew)
	}
	if d.Broken {
		return nil, fmt.Errorf("graph: overlay across a lineage break")
	}
	if err := checkRange(nNew, d.Adds, d.Dels); err != nil {
		return nil, err
	}
	relocs, err := relocsOf(b.n, nNew, d, func(t VertexID) int64 { return out.rows.deg(t) + in.rows.deg(t) })
	if err != nil {
		return nil, err
	}
	o := &Overlay{n: nNew, m: b.m + int64(len(d.Adds)-len(d.Dels)), weighted: b.weighted, depth: 1}
	if o.m < 0 {
		return nil, fmt.Errorf("graph: overlay deletes %d edges from a graph with %d + %d added", len(d.Dels), b.m, len(d.Adds))
	}
	perm := d.Seg
	if len(d.Moved) == 0 {
		perm = nil
	}
	po, pi := sides(nNew, b.weighted, d.Adds, d.Dels, perm, relocs)
	var outMax, inMax int64
	if o.out, outMax, err = index(po, b.n, d.Moved, out, in.rows); err != nil {
		return nil, fmt.Errorf("graph: overlay out-edges: %w", err)
	}
	if o.in, inMax, err = index(pi, b.n, d.Moved, in, out.rows); err != nil {
		return nil, fmt.Errorf("graph: overlay in-edges: %w", err)
	}
	if !b.weighted {
		o.ones = OnesFor(ones, max(outMax, inMax))
		o.out.ones, o.in.ones = o.ones, o.ones
	}
	return o, nil
}

// relocsOf returns the relocations of d's moves over a basis of nb
// vertices, in O(moves): each moved vertex's new slot, and the slot it
// left when no other moved vertex took it. It checks that the moves are
// injective: each image is a slot below nNew that another moved vertex
// left, an appended one, or a hole without an image (a row d.Seg maps to
// NoVertex, whose edges, counted by edges, must be none).
func relocsOf(nb, nNew int, d Delta, edges func(VertexID) int64) ([]reloc, error) {
	if len(d.Moved) == 0 {
		return nil, nil
	}
	if len(d.Seg) != nb {
		return nil, fmt.Errorf("graph: overlay perm length %d != n %d", len(d.Seg), nb)
	}
	images := make([]VertexID, 0, len(d.Moved))
	for _, a := range d.Moved {
		if int(a) >= nb {
			return nil, fmt.Errorf("graph: overlay moves vertex %d of %d", a, nb)
		}
		images = append(images, d.Seg[a])
	}
	slices.Sort(images)
	for i, t := range images {
		_, left := slices.BinarySearch(d.Moved, t)
		switch {
		case int(t) >= nNew || i > 0 && images[i-1] == t:
			return nil, fmt.Errorf("graph: overlay perm is not injective at -> %d", t)
		case left || int(t) >= nb:
		case d.Seg[t] != NoVertex:
			return nil, fmt.Errorf("graph: overlay perm moves a vertex onto kept slot %d", t)
		case edges(t) != 0:
			return nil, fmt.Errorf("graph: overlay perm drops non-empty row %d", t)
		}
	}
	relocs := make([]reloc, 0, 2*len(d.Moved))
	for _, a := range d.Moved {
		relocs = append(relocs, reloc{to: d.Seg[a], from: a})
		if _, taken := slices.BinarySearch(images, a); !taken {
			relocs = append(relocs, reloc{to: a, from: VertexID(nb)})
		}
	}
	return relocs, nil
}

// index returns the overlay side of p over the basis side b of nb
// vertices, whose moved vertices are moved and whose other side reads
// through other, and the largest of its rows with adds or deletions. It
// marks the rows remapRows would list — the relocated ones, and those that
// mention a moved vertex, found through the moved vertices' other-side
// rows — and the rows with adds or deletions, checking each of those for a
// degree below zero.
func index(p sidePatch, nb int, moved []VertexID, b basisSide, other basisRows) (overlaySide, int64, error) {
	words := (p.n + 63) / 64
	p.src = b.rows
	s := overlaySide{p: p, nb: nb, dirty: make([]uint64, words), root: b.root}
	s.below, _ = b.rows.(*overlaySide)
	mark := func(bits []uint64, v VertexID) { bits[v/64] |= 1 << (v % 64) }
	if len(p.relocs) > 0 {
		s.moved, s.remap = make([]uint64, words), make([]uint64, words)
		for _, r := range p.relocs {
			mark(s.moved, r.to)
			mark(s.remap, r.to)
		}
		for _, a := range moved {
			refs, _ := other.row(a)
			for _, r := range refs {
				mark(s.remap, p.perm[r])
			}
		}
		copy(s.dirty, s.remap)
	}
	var maxRow int64
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
		deg := int64(len(adds)-len(dels)) + p.src.deg(s.old(v))
		if deg < 0 {
			return s, 0, fmt.Errorf("row %d: more deletions than edges", v)
		}
		maxRow = max(maxRow, deg)
		mark(s.dirty, v)
		at.deg = deg
		s.rows, s.runs = append(s.rows, v), append(s.runs, at)
	}
	s.stack = s.dirty
	if b.stack != nil {
		s.stack = make([]uint64, words)
		for i, w := range b.stack {
			s.stack[i] = w
		}
		for i, w := range s.dirty {
			s.stack[i] |= w
		}
	}
	s.prefix = make([]int32, words)
	for i, w := range s.dirty {
		s.prefix[i] = int32(s.count)
		s.count += bits.OnesCount64(w)
	}
	s.memo = make([]rowMemo, s.count)
	return s, maxRow, nil
}

// old returns the basis row of row v: the one relocated to it, else its
// own, or the basis's vertex count for none.
func (s *overlaySide) old(v VertexID) VertexID {
	if s.moved != nil && s.moved[v/64]&(1<<(v%64)) != 0 {
		rs := s.p.relocs
		i, _ := slices.BinarySearchFunc(rs, v, func(x reloc, v VertexID) int { return cmp.Compare(x.to, v) })
		return rs[i].from
	}
	return min(v, VertexID(s.nb))
}

// find returns dirty row v as the derivation's dirty-row walk would
// (dirtyRows.next), and its degree.
func (s *overlaySide) find(v VertexID) (d dirtyRow, deg int64) {
	p := &s.p
	d = dirtyRow{v: v, old: s.old(v)}
	d.remap = s.remap != nil && s.remap[v/64]&(1<<(v%64)) != 0
	if i, ok := slices.BinarySearch(s.rows, v); ok {
		at := s.runs[i]
		if at.add >= 0 {
			d.adds, _ = p.adds.run(at.add, v)
		}
		if at.del >= 0 {
			d.dels, _ = p.dels.run(at.del, v)
		}
		return d, at.deg
	}
	return d, p.src.deg(d.old)
}

// owner returns the overlay side whose delta last made row v dirty, s or
// one below it, or nil when none did: the row is then the stack's graph's,
// or none past the overlay's rows (a stacked overlay reads its basis's
// vertex count as the basis row of a slot without one). A row clean in an
// overlay is its basis row at its own index, so the walk goes down the
// stack's dirty bitmaps without reading any row.
func (s *overlaySide) owner(v VertexID) *overlaySide {
	w, bit := v/64, uint64(1)<<(v%64)
	if int(v) >= s.p.n || s.stack[w]&bit == 0 {
		return nil
	}
	for l := s; l != nil && int(v) < l.p.n; l = l.below {
		if l.dirty[w]&bit != 0 {
			return l
		}
	}
	return nil
}

// memoOf returns the memo of dirty row v.
func (s *overlaySide) memoOf(v VertexID) *rowMemo {
	w := v / 64
	return &s.memo[int(s.prefix[w])+bits.OnesCount64(s.dirty[w]&(1<<(v%64)-1))]
}

// deg returns row v's degree, 0 past the overlay's rows, as graphRows's.
func (s *overlaySide) deg(v VertexID) int64 {
	l := s.owner(v)
	if l == nil {
		return s.root.deg(v)
	}
	m := l.memoOf(v)
	if d := m.deg.Load(); d > 0 {
		return d - 1
	}
	_, deg := l.find(v)
	m.deg.Store(deg + 1)
	return deg
}

// row returns row v and its weights, ones when unweighted: a row no
// overlay makes dirty as the graph's, and a dirty one as the overlay that
// last made it dirty writes it on its first read and keeps it (a relocated
// row whose entries did not change is its basis row).
func (s *overlaySide) row(v VertexID) ([]VertexID, []int32) {
	l := s.owner(v)
	if l == nil {
		return s.root.row(v)
	}
	m := l.memoOf(v)
	if r := m.row.Load(); r != nil {
		return r.ids, r.ws
	}
	ids, ws := l.write(v)
	m.row.Store(&cachedRow{ids, ws})
	return ids, ws
}

// write returns dirty row v as the derivation writes it. A deletion that
// matches no occurrence in the row, which the derivation would report as
// an error, panics.
func (s *overlaySide) write(v VertexID) ([]VertexID, []int32) {
	p := &s.p
	d, deg := s.find(v)
	if !p.writes(&d) {
		return p.src.row(d.old)
	}
	ids := make([]VertexID, deg)
	var ws, dw []int32
	if p.weighted {
		ws = make([]int32, deg)
		dw = ws
	} else {
		ws = s.ones[:deg:deg]
	}
	var scr *patchScratch
	if d.remap {
		scr = &patchScratch{}
	}
	if err := p.writeRow(&PatchStats{}, &d, ids, dw, scr); err != nil {
		panic(fmt.Sprintf("graph: overlay row %d: %v", v, err))
	}
	return ids, ws
}

// NumVertices reports the number of vertices.
func (o *Overlay) NumVertices() int { return o.n }

// NumEdges reports the number of directed edges.
func (o *Overlay) NumEdges() int64 { return o.m }

// OutDegree reports the out-degree of v.
func (o *Overlay) OutDegree(v VertexID) int64 { return o.out.deg(v) }

// InDegree reports the in-degree of v.
func (o *Overlay) InDegree(v VertexID) int64 { return o.in.deg(v) }

// OutRow returns v's out-neighbors and their weights.
func (o *Overlay) OutRow(v VertexID) ([]VertexID, []int32) { return o.out.row(v) }

// InRow returns v's in-neighbors and their weights.
func (o *Overlay) InRow(v VertexID) ([]VertexID, []int32) { return o.in.row(v) }

// DirtyRows reports how many rows, counting both directions, the
// overlay's own delta makes dirty; rows only the overlays below it touch
// are not counted.
func (o *Overlay) DirtyRows() int { return o.out.count + o.in.count }
