// Package graphgrind models the GraphGrind framework (Sun, Vandierendonck &
// Nikolopoulos, ICS'17): the graph is cut into many more partitions than
// threads (384 by default), partitions are statically bound to sockets and
// processed dynamically within a socket, and dense frontiers traverse a
// per-partition COO whose edge order is either the Hilbert space-filling
// curve (GraphGrind's default) or CSR order (the paper's Section V-G
// finding: CSR order is superior once VEBO equalizes the per-partition
// degree mix).
package graphgrind

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/numa"
	"repro/internal/partition"
)

// DefaultPartitions is the partition count the GraphGrind paper recommends
// and this paper uses throughout.
const DefaultPartitions = 384

// Config parameterizes the GraphGrind model.
type Config struct {
	// Topology is the virtual NUMA machine; the zero value selects the
	// paper's 4×12 machine.
	Topology numa.Topology
	// Partitions is the partition count (default 384).
	Partitions int
	// Order is the COO edge order for dense traversal: layout.HilbertOrder
	// (GraphGrind's default) or layout.CSROrder (best with VEBO, and the
	// only order Patch serves).
	Order layout.Order
	// Bounds optionally supplies partition boundaries (Partitions+1
	// entries), e.g. VEBO's Result.Boundaries; nil selects Algorithm 1.
	Bounds []int64
}

// GraphGrind is an Engine with GraphGrind's partitioning and scheduling.
type GraphGrind struct {
	engine.Base
	cfg    Config
	parts  []partition.Partition
	ranges []engine.Range
	coos   []*layout.COO
	ones   []int32  // unweighted: all ones; the lineage's COO weights are its prefixes
	partOf []uint32 // destination vertex -> partition index
}

// New builds a GraphGrind engine, materializing one COO per partition.
func New(g *graph.Graph, cfg Config) (*GraphGrind, error) {
	cfg.Topology = cfg.Topology.OrDefault()
	if cfg.Partitions <= 0 {
		cfg.Partitions = DefaultPartitions
	}
	var parts []partition.Partition
	var err error
	if cfg.Bounds != nil {
		if len(cfg.Bounds) != cfg.Partitions+1 {
			return nil, fmt.Errorf("graphgrind: bounds must have %d entries, got %d",
				cfg.Partitions+1, len(cfg.Bounds))
		}
		parts, err = partition.ByVertexRanges(g, cfg.Bounds)
	} else {
		parts, err = partition.ByDestination(g, cfg.Partitions)
	}
	if err != nil {
		return nil, err
	}
	ranges := make([]engine.Range, len(parts))
	partOf := make([]uint32, g.NumVertices())
	for i, pt := range parts {
		ranges[i] = engine.Range{Lo: pt.Lo, Hi: pt.Hi}
		for v := pt.Lo; v < pt.Hi; v++ {
			partOf[v] = uint32(i)
		}
	}
	coos, ones, err := layout.BuildRanges(g, ranges, cfg.Order, cfg.Topology.Threads())
	if err != nil {
		return nil, err
	}
	return &GraphGrind{Base: engine.Base{G: g}, cfg: cfg, parts: parts, ranges: ranges, coos: coos, ones: ones, partOf: partOf}, nil
}

// PatchStats reports how much of an engine rebuild Patch avoided:
// partitions whose COOs and metadata were carried over from the previous
// epoch's engine versus rebuilt, and the edges owned by each group.
// Remapped partitions sit in between: their edge content is unchanged but a
// segment-local renumbering moved some referenced source IDs. Only the
// entries naming a moved vertex count as EdgesRemapped, the modeled cost of
// rewriting them; the rest count as reused, however the result is
// materialized.
type PatchStats struct {
	PartsRebuilt, PartsReused int
	PartsRemapped             int
	EdgesRebuilt, EdgesReused int64
	EdgesRemapped             int64
}

// Patch builds a GraphGrind engine over g, a graph derived from gg's by the
// slot-space delta d within one numbering lineage, reusing gg's materialized per-partition COOs and metadata for every
// partition whose in-edges g left alone. g has gg's vertex count,
// weightedness and partition boundaries: either the vertex placement did
// not change (d.Seg == nil), or it changed by a segment-local permutation
// d.Seg (old ID → new ID, injective, identity outside d.Moved) that kept
// every partition's vertex count; an entry graph.NoVertex marks an old
// hole, an empty row whose slot a moved vertex took. Headroom growth keeps
// the placement: admitted rows (d.Grown) appear inside their partition's
// fixed slot range.
//
// The dirty vertices, in g's IDs, are those whose in-edges or occupant
// changed: the destinations of d's added and deleted edges, the moved
// vertices' new slots and the admitted slots. A partition owning a dirty
// vertex counts as rebuilt. A clean partition whose COO names a moved
// source counts as remapped: its edge content is unchanged, and only its
// entries naming a moved source count as EdgesRemapped, the modeled cost of
// rewriting them through d.Seg. Those entries are found from gg's graph,
// whose out-rows of the moved sources name every such entry's partition.
// Every other partition shares gg's COO. Rebuilt and remapped partitions
// are merged from gg's COOs (see merge), so the patched engine is
// byte-identical to New over g. Only CSR-order engines patch; a
// Hilbert-order gg is an error, and so is a d.Seg that is not such a
// permutation or that moves a vertex d.Moved does not list.
func (gg *GraphGrind) Patch(g *graph.Graph, d graph.Delta) (*GraphGrind, PatchStats, error) {
	var st PatchStats
	if gg.cfg.Order != layout.CSROrder {
		return nil, st, fmt.Errorf("graphgrind: patch needs a CSR-order engine, not %v", gg.cfg.Order)
	}
	n := g.NumVertices()
	if n != gg.G.NumVertices() {
		return nil, st, fmt.Errorf("graphgrind: patch vertex count %d != %d", n, gg.G.NumVertices())
	}
	if g.Weighted() != gg.G.Weighted() {
		return nil, st, fmt.Errorf("graphgrind: patch changes weightedness to %v", g.Weighted())
	}
	unlisted := d.Moved // the movers d.Seg names, in slot order, not yet met
	if d.Seg != nil {
		if len(d.Seg) != n {
			return nil, st, fmt.Errorf("graphgrind: patch permutation has %d entries, want %d", len(d.Seg), n)
		}
		taken := make([]bool, n)
		for s, t := range d.Seg {
			switch {
			case t == graph.NoVertex:
				continue
			case int(t) >= n:
				return nil, st, fmt.Errorf("graphgrind: patch permutation maps %d to %d, out of range n=%d", s, t, n)
			case taken[t]:
				return nil, st, fmt.Errorf("graphgrind: patch permutation is not injective at %d -> %d", s, t)
			case t != graph.VertexID(s):
				if len(unlisted) == 0 || unlisted[0] != graph.VertexID(s) {
					return nil, st, fmt.Errorf("graphgrind: patch permutation moves %d to %d, not listed as moved", s, t)
				}
				unlisted = unlisted[1:]
			}
			taken[t] = true
		}
	}
	if len(unlisted) > 0 {
		return nil, st, fmt.Errorf("graphgrind: patch lists %d as moved, and its permutation keeps it", unlisted[0])
	}
	dirty := make([]graph.VertexID, 0, len(d.Adds)+len(d.Dels)+len(d.Moved)+len(d.Grown))
	for _, es := range [][]graph.Edge{d.Adds, d.Dels} {
		for _, e := range es {
			dirty = append(dirty, e.Dst)
		}
	}
	for _, s := range d.Moved {
		dirty = append(dirty, d.Seg[s])
	}
	dirty = append(dirty, d.Grown...)
	rebuilt := make([]bool, len(gg.parts))
	for _, v := range dirty {
		if int(v) >= n {
			return nil, st, fmt.Errorf("graphgrind: patch dirty vertex %d out of range n=%d", v, n)
		}
		rebuilt[gg.partOf[v]] = true
	}
	stale := make([]int64, len(gg.parts)) // entries naming a moved source
	for _, s := range d.Moved {
		for _, v := range gg.G.OutNeighbors(s) {
			stale[gg.partOf[v]]++
		}
	}
	off := g.InOffsets()
	out := &GraphGrind{
		Base:   engine.Base{G: g},
		cfg:    gg.cfg,
		parts:  slices.Clone(gg.parts),
		ranges: gg.ranges,
		coos:   slices.Clone(gg.coos),
		partOf: gg.partOf,
	}
	var derive []int // partitions derived afresh
	for i, pt := range out.parts {
		switch {
		case rebuilt[i]:
			out.parts[i].Edges = off[pt.Hi] - off[pt.Lo]
			st.PartsRebuilt++
			st.EdgesRebuilt += out.parts[i].Edges
			derive = append(derive, i)
		case stale[i] > 0:
			st.PartsRemapped++
			st.EdgesRemapped += stale[i]
			st.EdgesReused += pt.Edges - stale[i]
			derive = append(derive, i)
		default:
			st.PartsReused++
			st.EdgesReused += pt.Edges
		}
	}
	if err := out.merge(gg, derive, d, dirty); err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// rowLess orders in-row entries by (source, weight).
func rowLess(s graph.VertexID, w int32, t graph.VertexID, x int32) bool {
	return s < t || s == t && w < x
}

// reach appends s to by[i] for each partition i that the sorted row names a
// destination of, once per partition.
func (gg *GraphGrind) reach(by [][]graph.VertexID, row []graph.VertexID, s graph.VertexID) {
	last := -1
	for _, d := range row {
		if i := int(gg.partOf[d]); i != last {
			by[i], last = append(by[i], s), i
		}
	}
}

// merge derives the CSR-order COOs of the listed partitions from basis's
// (see Patch). A basis entry carries over unless its source moved or it
// left the in-row of a dropped destination: a dirty or moved one (holes and
// movers' new slots included). So each partition's COO is its basis COO less
// the Src runs of the moved sources that reach it and the entries its
// dropped destinations lost, merged with the sorted entries they gained and
// with the out-edges of each mover's new ID into its other destinations.
// A dropped destination diffs its in-rows in basis and g, whether or not its
// occupant changed: an entry is keyed by (source, destination, weight), so
// one in both rows stands for itself. One layout.MergeCSR pass per partition
// copies every run between those change points whole; a partition that does
// not come out with g's edge count is an error.
func (gg *GraphGrind) merge(basis *GraphGrind, parts []int, d graph.Delta, dirty []graph.VertexID) error {
	g, off := gg.G, gg.G.InOffsets()
	moved := func(v graph.VertexID) bool { return d.Seg != nil && d.Seg[v] != v }
	drop := make([]bool, g.NumVertices())
	for _, v := range dirty {
		drop[v] = true // a hole a mover took is that mover's new slot
	}
	// The movers (old IDs with a new one) by the partitions their basis
	// out-rows reach, whose Src runs are cut, and by those their new
	// out-rows reach, whose entries are re-keyed.
	cutBy := make([][]graph.VertexID, len(gg.parts))
	addBy := make([][]graph.VertexID, len(gg.parts))
	for _, s := range d.Moved {
		drop[s] = true // a mover's old slot is an injective perm's moved one
		gg.reach(cutBy, basis.G.OutNeighbors(s), s)
		gg.reach(addBy, g.OutNeighbors(d.Seg[s]), s)
	}
	var longest int64
	for _, i := range parts {
		longest = max(longest, off[gg.parts[i].Hi]-off[gg.parts[i].Lo])
	}
	gg.ones = basis.ones
	var unit []int32
	if !g.Weighted() {
		gg.ones = graph.OnesFor(basis.ones, longest)
		unit = gg.ones
	}
	var cuts []layout.Cut
	var ins, tmp []graph.Edge
	var gone []graph.VertexID
	var goneW []int32
	for _, i := range parts {
		pt, bc := gg.parts[i], basis.coos[i]
		cuts, ins = cuts[:0], ins[:0]
		for _, s := range cutBy[i] {
			cuts = append(cuts, bc.SrcCut(s))
		}
		for _, s := range addBy[i] {
			t := d.Seg[s]
			row, ws := g.OutNeighbors(t), g.OutWeights(t)
			j, _ := slices.BinarySearch(row, pt.Lo)
			for ; j < len(row) && row[j] < pt.Hi; j++ {
				if !drop[row[j]] {
					ins = append(ins, graph.Edge{Src: t, Dst: row[j], Weight: ws[j]})
				}
			}
		}
		for d := pt.Lo; d < pt.Hi; d++ {
			if !drop[d] {
				continue
			}
			// Cut the entries d's in-row lost and insert those it gained. An
			// entry from a moved old source went with that source's run, so
			// an entry from a mover's new ID, which matches no entry left,
			// counts as gained.
			olds, oldw := basis.G.InNeighbors(d), basis.G.InWeights(d)
			news, neww := g.InNeighbors(d), g.InWeights(d)
			gone, goneW = gone[:0], goneW[:0]
			for i, j := 0, 0; i < len(olds) || j < len(news); {
				switch {
				case i < len(olds) && moved(olds[i]):
					i++
				case j == len(news) || i < len(olds) && rowLess(olds[i], oldw[i], news[j], neww[j]):
					gone, goneW = append(gone, olds[i]), append(goneW, oldw[i])
					i++
				case i == len(olds) || rowLess(news[j], neww[j], olds[i], oldw[i]):
					ins = append(ins, graph.Edge{Src: news[j], Dst: d, Weight: neww[j]})
					j++
				default: // in both
					i, j = i+1, j+1
				}
			}
			cuts = bc.EntryCuts(cuts, d, gone, goneW)
		}
		slices.SortFunc(cuts, func(a, b layout.Cut) int { return cmp.Compare(a.Lo, b.Lo) })
		tmp = slices.Grow(tmp[:0], len(ins))[:len(ins)]
		c, err := layout.MergeCSR(bc, cuts, graph.SortEdges(ins, tmp), unit)
		if err != nil {
			return err
		}
		if want := off[pt.Hi] - off[pt.Lo]; int64(c.Len()) != want {
			return fmt.Errorf("graphgrind: partition %d [%d,%d) merged to %d edges, want %d", i, pt.Lo, pt.Hi, c.Len(), want)
		}
		gg.coos[i] = c
	}
	return nil
}

// Name implements Engine.
func (gg *GraphGrind) Name() string { return "graphgrind" }

// Partitions returns the partition list.
func (gg *GraphGrind) Partitions() []partition.Partition { return gg.parts }

// EdgeMap implements Engine. Dense frontiers traverse per-partition COOs
// with two-level (static-across-sockets, dynamic-within) scheduling; sparse
// frontiers push with intra-socket dynamic scheduling.
func (gg *GraphGrind) EdgeMap(f *frontier.Frontier, k engine.EdgeKernel) *frontier.Frontier {
	top := gg.cfg.Topology
	if f.ShouldBeDense(gg.G.NumEdges()) {
		out, costs := engine.DenseCOO(gg.G, f, k, gg.coos, gg.ranges, top.Threads())
		gg.Metrics().Record(engine.StepEdgeMapDense, f, costs, engine.MakespanGrouped(costs, top.Sockets, top.ThreadsPerSocket), costs)
		return out
	}
	// Sparse traversal still pushes along the frontier's out-edges, but
	// GraphGrind's work is bound to the destination partitions, which are
	// statically assigned to sockets: a sparse iteration whose active edges
	// concentrate in few partitions serializes on their sockets. This is
	// exactly the effect the paper's Table IV measures — VEBO's uniform
	// distribution of high- and low-degree vertices over partitions raises
	// the per-partition minimum and cuts the spread. SparsePush bins the
	// partition costs as it pushes.
	out, _, partCosts := engine.SparsePush(gg.G, f, k, engine.SparseChunk, top.Threads(), gg.partOf, len(gg.parts))
	gg.Metrics().Record(engine.StepEdgeMapSparse, f, partCosts, engine.MakespanGrouped(partCosts, top.Sockets, top.ThreadsPerSocket), partCosts)
	return out
}

// VertexMap implements Engine: iterations spread statically over all
// threads, as in Polymer.
func (gg *GraphGrind) VertexMap(f *frontier.Frontier, fn func(v graph.VertexID) bool) *frontier.Frontier {
	threads := gg.cfg.Topology.Threads()
	out, costs := engine.VertexMapStatic(gg.G, f, fn, threads, threads)
	gg.Metrics().Record(engine.StepVertexMap, f, costs, engine.MakespanStatic(costs, threads), nil)
	return out
}
