package dynamic

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// compactBound is the current delta-log size triggering compaction.
func (d *Graph) compactBound() int64 {
	if d.cfg.CompactEvery > 0 {
		return int64(d.cfg.CompactEvery)
	}
	b := d.NumEdges() / 8
	if b < 8192 {
		b = 8192
	}
	return b
}

type edgeKey uint64

func keyOf(s, d graph.VertexID) edgeKey { return edgeKey(s)<<32 | edgeKey(d) }

// wkey addresses one (src,dst,weight) edge class; weights are stored
// normalized (1 on unweighted graphs and for zero input weights).
type wkey struct {
	k edgeKey
	w int32
}

// baseRun returns the weights of the base's parallel (s,dst) edges, in row
// order: sorted by weight, so each weight's occurrences are one sub-run.
func (d *Graph) baseRun(s, dst graph.VertexID) []int32 {
	if int(s) >= d.base.NumVertices() {
		return nil
	}
	nbrs := d.base.OutNeighbors(s)
	lo := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= dst })
	hi := lo
	for hi < len(nbrs) && nbrs[hi] == dst {
		hi++
	}
	return d.base.OutWeights(s)[lo:hi]
}

// normWeight maps an input weight to its stored form.
func (d *Graph) normWeight(w int32) int32 {
	if !d.weighted || w == 0 {
		return 1
	}
	return w
}

func (d *Graph) insertEdge(s, dst graph.VertexID, w int32) {
	w = d.normWeight(w)
	k := keyOf(s, dst)
	d.pendingAdd = append(d.pendingAdd, graph.Edge{Src: s, Dst: dst, Weight: w})
	d.addAlive[k] = append(d.addAlive[k], w)
	d.degIn[dst]++
	d.partEdges[d.assign[dst]]++
	d.touch()
	d.m.inserts.Inc()
}

// deleteEdge cancels one live (s,dst) occurrence. A non-zero wSel on a
// weighted graph selects among parallel edges: only an occurrence carrying
// exactly that weight may die. With no selector (wSel == 0, or any value on
// unweighted graphs) the most recent pending log insertion dies first, else
// the earliest surviving base occurrence — deterministic either way, and the
// resolved weight is logged so snapshots and view deltas agree
// edge-for-edge.
func (d *Graph) deleteEdge(s, dst graph.VertexID, wSel int32) error {
	k := keyOf(s, dst)
	if !d.weighted {
		wSel = 0
	}
	if wSel == 0 {
		if alive := d.addAlive[k]; len(alive) > 0 {
			d.killPending(s, dst, len(alive)-1)
		} else {
			w, ok := d.earliestLiveBase(s, dst)
			if !ok {
				return fmt.Errorf("delete of non-existent edge (%d,%d)", s, dst)
			}
			d.cancelBase(s, dst, w)
		}
	} else {
		alive := d.addAlive[k]
		i := len(alive) - 1
		for ; i >= 0; i-- {
			if alive[i] == wSel {
				break
			}
		}
		switch {
		case i >= 0:
			d.killPending(s, dst, i)
		case int64(countWeight(d.baseRun(s, dst), wSel)) > d.delBase[wkey{k, wSel}]:
			d.cancelBase(s, dst, wSel)
		default:
			return fmt.Errorf("delete of non-existent edge (%d,%d) with weight %d", s, dst, wSel)
		}
	}
	d.degIn[dst]--
	d.partEdges[d.assign[dst]]--
	d.touch()
	d.m.deletes.Inc()
	return nil
}

// killPending removes index i from pair (s,dst)'s surviving-pending weight
// list and logs the deletion with that weight. The insertion's own log entry
// stays; Materialize nets the deletion against it.
func (d *Graph) killPending(s, dst graph.VertexID, i int) {
	k := keyOf(s, dst)
	alive := d.addAlive[k]
	w := alive[i]
	alive = append(alive[:i], alive[i+1:]...)
	if len(alive) == 0 {
		delete(d.addAlive, k)
	} else {
		d.addAlive[k] = alive
	}
	d.delLog = append(d.delLog, graph.Edge{Src: s, Dst: dst, Weight: w})
}

// cancelBase records a deletion against a base occurrence of (s,dst,w).
func (d *Graph) cancelBase(s, dst graph.VertexID, w int32) {
	d.delBase[wkey{keyOf(s, dst), w}]++
	d.cancels++
	d.delLog = append(d.delLog, graph.Edge{Src: s, Dst: dst, Weight: w})
}

// earliestLiveBase locates the earliest base occurrence of (s,dst) not yet
// cancelled and returns its weight. Cancellations are per-weight prefixes of
// the parallel-edge run, so an occurrence is live iff the number of
// same-weight occurrences before it covers the weight's cancellation count.
func (d *Graph) earliestLiveBase(s, dst graph.VertexID) (int32, bool) {
	k := keyOf(s, dst)
	var seen map[int32]int64
	for _, w := range d.baseRun(s, dst) {
		cancelled := d.delBase[wkey{k, w}]
		if cancelled == 0 {
			return w, true
		}
		if seen == nil {
			seen = make(map[int32]int64, 4)
		}
		if seen[w] >= cancelled {
			return w, true
		}
		seen[w]++
	}
	return 0, false
}

// countWeight counts the occurrences of w in ws.
func countWeight(ws []int32, w int32) int {
	c := 0
	for _, x := range ws {
		if x == w {
			c++
		}
	}
	return c
}

func (d *Graph) touch() {
	d.epoch++
}

// Frozen is an immutable capture of the live edge multiset at one epoch. It
// shares the base graph and capped prefixes of the two append-only delta
// logs with the live structure and copies nothing else, so freezing is O(1)
// and allocation-free regardless of graph or log size. A Frozen may be
// materialized from any goroutine, concurrently with further ApplyBatch
// calls on the source graph: the writer only appends past the prefixes, or
// starts fresh logs at compaction.
//
//vebo:frozen
type Frozen struct {
	n       int
	epoch   int64
	base    *graph.Graph
	gen     int64        // compaction generation the logs belong to
	pending []graph.Edge // insertions, in arrival order
	dels    []graph.Edge // deletions, of pending insertions or base edges
	// The previous generation's full logs — the ones Compact folded into
	// base — so Since can span one compaction. The retired base itself is
	// not kept.
	prevPending, prevDels []graph.Edge
}

// Freeze captures the current live edge multiset.
func (d *Graph) Freeze() Frozen {
	return Frozen{
		n:           d.n,
		epoch:       d.epoch,
		base:        d.base,
		gen:         d.gen,
		pending:     d.pendingAdd[:len(d.pendingAdd):len(d.pendingAdd)],
		dels:        d.delLog[:len(d.delLog):len(d.delLog)],
		prevPending: d.prevPending,
		prevDels:    d.prevDels,
	}
}

// Epoch returns the mutation epoch the capture was taken at.
func (f Frozen) Epoch() int64 { return f.epoch }

// NumVertices reports the vertex count.
func (f Frozen) NumVertices() int { return f.n }

// NumEdges reports the live edge count of the capture.
func (f Frozen) NumEdges() int64 {
	return f.base.NumEdges() + int64(len(f.pending)-len(f.dels))
}

// Materialize builds the captured edge multiset as an immutable CSR+CSC
// graph by row-patching the base with the netted logs: the surviving
// insertions merged in, the cancelled base edges removed. Rows are sorted
// by (neighbor, weight), so the result is byte-identical to graph.FromEdges
// over the same multiset, and comes with the patch's stats. With nothing to
// patch it returns the (immutable) base itself and zero stats.
func (f Frozen) Materialize() (*graph.Graph, graph.PatchStats) {
	adds, dels := netEdges([][]graph.Edge{f.pending}, [][]graph.Edge{f.dels})
	if len(adds) == 0 && len(dels) == 0 && f.n == f.base.NumVertices() {
		return f.base, graph.PatchStats{}
	}
	g, st, err := f.base.PatchEdgesPermN(f.n, adds, dels, nil)
	if err != nil {
		// Unreachable: every applied update was range-checked and every
		// cancellation names a live base occurrence.
		panic(err)
	}
	return g, st
}

// Since returns the net edge change from the earlier capture b to f, as
// sorted insertion and deletion lists with multiplicities unrolled: the log
// entries f holds past b (insertions minus deletions), netted per (Src,
// Dst, Weight). The lists are freshly allocated and the caller's own to
// rewrite. It spans at most one compaction; ok is false when b predates f's
// previous generation or was captured after f.
func (f Frozen) Since(b Frozen) (adds, dels []graph.Edge, ok bool) {
	plus, minus, ok := f.logsSince(b)
	if !ok {
		return nil, nil, false
	}
	adds, dels = netEdges(plus, minus)
	return adds, dels, true
}

// EntriesSince counts the raw log entries Since would net, in O(1); ok as
// for Since.
func (f Frozen) EntriesSince(b Frozen) (int64, bool) {
	plus, minus, ok := f.logsSince(b)
	return int64(entries(plus) + entries(minus)), ok
}

// entries counts the edges in runs.
func entries(runs [][]graph.Edge) int {
	c := 0
	for _, r := range runs {
		c += len(r)
	}
	return c
}

// logsSince returns the log runs f holds past b: b's unseen tail of its own
// generation's logs, followed — when f is one compaction later — by f's
// whole logs.
func (f Frozen) logsSince(b Frozen) (plus, minus [][]graph.Edge, ok bool) {
	if b.epoch > f.epoch {
		return nil, nil, false
	}
	switch f.gen - b.gen {
	case 0:
		return [][]graph.Edge{f.pending[len(b.pending):]}, [][]graph.Edge{f.dels[len(b.dels):]}, true
	case 1:
		return [][]graph.Edge{f.prevPending[len(b.pending):], f.pending},
			[][]graph.Edge{f.prevDels[len(b.dels):], f.dels}, true
	}
	return nil, nil, false
}

// netEdges nets signed edge runs into their multiset difference. The plus
// and the minus entries, copied into one buffer, are each radix-sorted by
// (Src, Dst, Weight) (graph.SortEdges, with one more buffer), and one
// linear merge of the two sorted runs cancels equal entries pairwise: what
// survives of the plus run, written back over its own part of the buffer,
// is the sorted adds, and of the minus run the sorted dels.
func netEdges(plus, minus [][]graph.Edge) (adds, dels []graph.Edge) {
	np, buf := entries(plus), slices.Concat(append(slices.Clip(plus), minus...)...)
	tmp := make([]graph.Edge, len(buf))
	p, m := graph.SortEdges(buf[:np:np], tmp[:np:np]), graph.SortEdges(buf[np:], tmp[np:])
	adds, dels = buf[:0:np], buf[np:np] // the survivors go back into buf
	i, j := 0, 0
	for i < len(p) && j < len(m) {
		switch c := graph.CompareEdges(p[i], m[j]); {
		case c < 0:
			adds, i = append(adds, p[i]), i+1
		case c > 0:
			dels, j = append(dels, m[j]), j+1
		default:
			i, j = i+1, j+1
		}
	}
	return append(adds, p[i:]...), append(dels, m[j:]...)
}

// Snapshot materializes the live graph as an immutable CSR+CSC graph.Graph
// the processing engines can traverse: one Freeze().Materialize(). The
// result is never mutated, so callers may keep using an old snapshot safely
// across later batches.
func (d *Graph) Snapshot() *graph.Graph {
	g, _ := d.Freeze().Materialize()
	return g
}

// Compact materializes a capture of the live graph as the new base and
// starts a new log generation, keeping the retired logs as the previous
// generation for Frozen.Since. Engines holding older snapshots (and views
// holding older freezes) are unaffected: the old base and log prefix stay
// immutable. The "compact" span parents onto the batch whose log bound
// triggered it, or onto nothing for a direct call, and carries whether the
// materialization folded and the edges it wrote.
func (d *Graph) Compact() {
	cstart := time.Now()
	pending := d.PendingOps()
	var st graph.PatchStats
	d.base, st = d.Freeze().Materialize()
	fold := int64(0)
	if st.Fold != "" {
		fold = 1
	}
	d.prevPending, d.prevDels = d.pendingAdd, d.delLog
	d.pendingAdd, d.delLog = nil, nil
	d.gen++
	d.addAlive = make(map[edgeKey][]int32)
	d.delBase = make(map[wkey]int64)
	d.cancels = 0
	d.m.compactions.Inc()
	d.m.compactNS.ObserveSince(cstart)
	d.sp.Record(obs.Span{
		Parent: d.curBatch.Context().ID, Name: "compact", Kind: "maintain",
		Cause: "log-bound", Epoch: d.epoch, Start: cstart, Dur: time.Since(cstart),
		Attrs: map[string]int64{
			"pending_ops": pending, "base_edges": d.base.NumEdges(),
			"fold": fold, "written_edges": st.EdgesWritten,
		},
	})
}
