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
// deriving it: NewOverlay stands for base.Patch(nNew, d) within one
// numbering lineage, and Extend for the derivation that patches the graph
// an overlay stands for by a further delta. Both check and index the delta
// through Patch's own constructor (sides), so they reject what Patch
// rejects. A row no change touches is read from the basis in place, and a
// dirty row (one with adds or deletions, a relocated one, or one that
// mentions a moved vertex) is written on its first read by the
// derivation's own row code (writeRow), so it comes out equal to the
// derived row, sorted by (neighbor, weight). Building an overlay costs its
// delta's sort, the rows of its moved vertices and a few bitmaps, and no
// O(n) degree prefix or extent copy. A read tests one bit for a row no
// overlay of the stack touches, and otherwise walks the stack's dirty
// bitmaps to the overlay that last made the row dirty, which works out its
// degree and writes its row once and keeps them. Like a Graph, an Overlay
// is immutable and safe for concurrent readers.
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

// basisRows reads one direction of a delta's basis, a graph or an overlay:
// a row with its weights (ones when unweighted), and a degree; nothing past
// the basis's rows.
type basisRows interface {
	row(v VertexID) ([]VertexID, []int32)
	deg(v VertexID) int64
}

// graphRows is one direction of a Graph as a delta's basis.
type graphRows struct {
	a    *adj
	n    int
	ones []int32
}

// rows returns g's two directions as a delta's basis.
func (g *Graph) rows() (out, in graphRows) {
	return graphRows{&g.out, g.n, g.ones}, graphRows{&g.in, g.n, g.ones}
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

// overlaySide is one direction of an Overlay: the delta's side patch, with
// its dirty-row index, reading its basis through p.src, and what a read of
// a row no overlay of the stack touches goes to. A dirty row's degree and
// row are kept in memo at the row's rank among the dirty rows (prefix), so
// an overlay works each out once however often it and the overlays stacked
// on it read the row.
type overlaySide struct {
	p      sidePatch
	ones   []int32   // the overlay's
	count  int       // dirty rows
	prefix []int32   // the dirty rows before each word of p.dirty
	memo   []rowMemo // per dirty row, by rank
	below  *overlaySide
	root   graphRows // the graph at the bottom of the stack
	stack  []uint64  // bit v: row v is dirty in this overlay or one below
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

// NewOverlay returns the overlay of base patched by the slot-space delta d:
// the graph base.Patch(nNew, d) derives, read without deriving it. It
// checks what Patch does, except a deletion that matches no occurrence in
// its row, which panics the read of that row. A broken lineage (d.Broken)
// renumbers every row and has no overlay.
func NewOverlay(base *Graph, nNew int, d Delta) (*Overlay, error) {
	b := &Overlay{n: base.n, m: base.NumEdges(), weighted: base.weighted}
	out, in := base.rows()
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
	if d.Broken {
		return nil, fmt.Errorf("graph: overlay across a lineage break")
	}
	po, pi, maxRow, err := sides(b.n, b.m, b.weighted, out.rows, in.rows, nNew, d)
	if err != nil {
		return nil, err
	}
	o := &Overlay{
		n: nNew, m: b.m + int64(len(d.Adds)-len(d.Dels)), weighted: b.weighted, depth: 1,
		out: stacked(po, out), in: stacked(pi, in),
	}
	if !b.weighted {
		o.ones = OnesFor(ones, maxRow)
		o.out.ones, o.in.ones = o.ones, o.ones
	}
	return o, nil
}

// stacked returns the overlay side of p over the basis side b: the ranks
// and memos of p's dirty rows, and the dirty bitmap of the stack.
func stacked(p sidePatch, b basisSide) overlaySide {
	s := overlaySide{p: p, root: b.root, stack: p.dirty}
	s.below, _ = b.rows.(*overlaySide)
	if b.stack != nil {
		s.stack = make([]uint64, len(p.dirty))
		copy(s.stack, b.stack)
		for i, w := range p.dirty {
			s.stack[i] |= w
		}
	}
	s.prefix = make([]int32, len(p.dirty))
	for i, w := range p.dirty {
		s.prefix[i] = int32(s.count)
		s.count += bits.OnesCount64(w)
	}
	s.memo = make([]rowMemo, s.count)
	return s
}

// old returns the basis row of row v, as oldAt, for a row read out of
// order.
func (p *sidePatch) old(v VertexID) VertexID {
	k, _ := slices.BinarySearchFunc(p.relocs, v, func(x reloc, v VertexID) int { return cmp.Compare(x.to, v) })
	return p.oldAt(&k, v)
}

// find returns dirty row v as the derivation's walk reads it.
func (s *overlaySide) find(v VertexID) dirtyRow {
	p := &s.p
	k, has := slices.BinarySearch(p.rows, v)
	d := dirtyRow{v: v, old: p.old(v)}
	p.fill(&d, k, has)
	return d
}

// owner returns the overlay side whose delta last made row v dirty, s or
// one below it, or nil when none did: the row is then the stack's graph's,
// or none past the overlay's rows (a stacked overlay reads its basis's
// vertex count as the basis row of a slot without one). A row clean in an
// overlay is its basis row at its own index, so the walk goes down the
// stack's dirty bitmaps without reading any row.
func (s *overlaySide) owner(v VertexID) *overlaySide {
	if int(v) >= s.p.n || !marked(s.stack, v) {
		return nil
	}
	for l := s; l != nil && int(v) < l.p.n; l = l.below {
		if marked(l.p.dirty, v) {
			return l
		}
	}
	return nil
}

// memoOf returns the memo of dirty row v.
func (s *overlaySide) memoOf(v VertexID) *rowMemo {
	w := v / 64
	return &s.memo[int(s.prefix[w])+bits.OnesCount64(s.p.dirty[w]&(1<<(v%64)-1))]
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
	deg := l.find(v).deg
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
	d := s.find(v)
	if !p.writes(&d) {
		return p.src.row(d.old)
	}
	ids := make([]VertexID, d.deg)
	var ws, dw []int32
	if p.weighted {
		ws = make([]int32, d.deg)
		dw = ws
	} else {
		ws = s.ones[:d.deg:d.deg]
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
