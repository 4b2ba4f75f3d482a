package dynamic

import (
	"fmt"
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
	b := d.liveEdges / 8
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

// baseMultiplicity counts edge (s,d) occurrences in the base graph via
// binary search over s's sorted out-neighbour list. Vertices admitted after
// the base was compacted have no base row.
func (d *Graph) baseMultiplicity(s, dst graph.VertexID) int64 {
	if int(s) >= d.base.NumVertices() {
		return 0
	}
	nbrs := d.base.OutNeighbors(s)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= dst })
	var c int64
	for ; i < len(nbrs) && nbrs[i] == dst; i++ {
		c++
	}
	return c
}

// baseMultiplicityW counts base occurrences of (s,d) with exactly weight w.
func (d *Graph) baseMultiplicityW(s, dst graph.VertexID, w int32) int64 {
	if int(s) >= d.base.NumVertices() {
		return 0
	}
	nbrs := d.base.OutNeighbors(s)
	ws := d.base.OutWeights(s)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= dst })
	var c int64
	for ; i < len(nbrs) && nbrs[i] == dst; i++ {
		if ws[i] == w {
			c++
		}
	}
	return c
}

// liveMultiplicity counts the surviving occurrences of edge (s,d).
func (d *Graph) liveMultiplicity(s, dst graph.VertexID) int64 {
	k := keyOf(s, dst)
	return d.baseMultiplicity(s, dst) + int64(len(d.addAlive[k])) - d.delPair[k]
}

// HasEdge reports whether at least one live (s,d) edge exists.
func (d *Graph) HasEdge(s, dst graph.VertexID) bool {
	return d.liveMultiplicity(s, dst) > 0
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
	d.liveEdges++
	d.degIn[dst]++
	d.partEdges[d.assign[dst]]++
	d.noteChange(graph.Edge{Src: s, Dst: dst, Weight: w}, +1)
	d.touch()
	d.stats.Updates++
	d.stats.Inserts++
	d.m.inserts.Inc()
}

// deleteEdge cancels one live (s,dst) occurrence. A non-zero wSel on a
// weighted graph selects among parallel edges: only an occurrence carrying
// exactly that weight may die. With no selector (wSel == 0, or any value on
// unweighted graphs) the most recent pending log insertion dies first, else
// the earliest surviving base occurrence — deterministic either way, and the
// resolved weight is recorded so snapshots and view deltas agree
// edge-for-edge.
func (d *Graph) deleteEdge(s, dst graph.VertexID, wSel int32) error {
	k := keyOf(s, dst)
	if !d.weighted {
		wSel = 0
	}
	var died int32
	if wSel == 0 {
		if alive := d.addAlive[k]; len(alive) > 0 {
			died = d.killPending(s, dst, len(alive)-1)
		} else {
			w, ok := d.earliestLiveBase(s, dst)
			if !ok {
				return fmt.Errorf("delete of non-existent edge (%d,%d)", s, dst)
			}
			died = w
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
			died = d.killPending(s, dst, i)
		case d.baseMultiplicityW(s, dst, wSel)-d.delBase[wkey{k, wSel}] > 0:
			died = wSel
			d.cancelBase(s, dst, wSel)
		default:
			return fmt.Errorf("delete of non-existent edge (%d,%d) with weight %d", s, dst, wSel)
		}
	}
	d.liveEdges--
	d.degIn[dst]--
	d.partEdges[d.assign[dst]]--
	d.noteChange(graph.Edge{Src: s, Dst: dst, Weight: died}, -1)
	d.touch()
	d.stats.Updates++
	d.stats.Deletes++
	d.m.deletes.Inc()
	return nil
}

// killPending removes index i from pair (s,dst)'s surviving-pending weight
// list, logs the kill with that weight and returns it. The insertion's own
// log entry stays; Materialize nets kills against insertions.
func (d *Graph) killPending(s, dst graph.VertexID, i int) int32 {
	k := keyOf(s, dst)
	alive := d.addAlive[k]
	w := alive[i]
	alive = append(alive[:i], alive[i+1:]...)
	if len(alive) == 0 {
		delete(d.addAlive, k)
	} else {
		d.addAlive[k] = alive
	}
	d.killedAdd = append(d.killedAdd, graph.Edge{Src: s, Dst: dst, Weight: w})
	return w
}

// cancelBase records a deletion against a base occurrence of (s,dst,w).
func (d *Graph) cancelBase(s, dst graph.VertexID, w int32) {
	k := keyOf(s, dst)
	d.delBase[wkey{k, w}]++
	d.delPair[k]++
	d.cancelLog = append(d.cancelLog, graph.Edge{Src: s, Dst: dst, Weight: w})
}

// earliestLiveBase locates the earliest base occurrence of (s,dst) not yet
// cancelled and returns its weight. Cancellations are per-weight prefixes of
// the parallel-edge run, so an occurrence is live iff the number of
// same-weight occurrences before it covers the weight's cancellation count.
func (d *Graph) earliestLiveBase(s, dst graph.VertexID) (int32, bool) {
	if int(s) >= d.base.NumVertices() {
		return 0, false
	}
	nbrs := d.base.OutNeighbors(s)
	ws := d.base.OutWeights(s)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= dst })
	k := keyOf(s, dst)
	var seen map[int32]int64
	for ; i < len(nbrs) && nbrs[i] == dst; i++ {
		w := ws[i]
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

func (d *Graph) touch() {
	d.epoch++
}

// Frozen is an immutable capture of the live edge multiset at one epoch. It
// shares the base graph and capped prefixes of the three append-only delta
// logs with the live structure and copies nothing else, so freezing is O(1)
// and allocation-free regardless of graph or log size. A Frozen may be
// materialized from any goroutine, concurrently with further ApplyBatch
// calls on the source graph: the writer only appends past the prefixes, or
// starts fresh logs at compaction.
//
//vebo:frozen
type Frozen struct {
	n         int
	epoch     int64
	liveEdges int64
	base      *graph.Graph
	pending   []graph.Edge // insertions, in arrival order
	killed    []graph.Edge // deletions that killed a pending insertion
	cancels   []graph.Edge // deletions that cancelled a base occurrence
}

// Freeze captures the current live edge multiset.
func (d *Graph) Freeze() Frozen {
	return Frozen{
		n:         d.n,
		epoch:     d.epoch,
		liveEdges: d.liveEdges,
		base:      d.base,
		pending:   d.pendingAdd[:len(d.pendingAdd):len(d.pendingAdd)],
		killed:    d.killedAdd[:len(d.killedAdd):len(d.killedAdd)],
		cancels:   d.cancelLog[:len(d.cancelLog):len(d.cancelLog)],
	}
}

// Epoch returns the mutation epoch the capture was taken at.
func (f Frozen) Epoch() int64 { return f.epoch }

// NumVertices reports the vertex count.
func (f Frozen) NumVertices() int { return f.n }

// NumEdges reports the live edge count of the capture.
func (f Frozen) NumEdges() int64 { return f.liveEdges }

// Materialize builds the captured edge multiset as an immutable CSR+CSC
// graph by row-patching the base: the cancellations are removed and the
// surviving insertions — per (src,dst,weight), the earliest arrivals not
// netted out by kills — are merged in. Rows are sorted by (neighbor,
// weight), so the result is byte-identical to graph.FromEdges over the same
// multiset. With nothing to patch it returns the (immutable) base itself.
func (f Frozen) Materialize() *graph.Graph {
	var adds []graph.Edge
	if len(f.pending) > 0 {
		need := make(map[graph.Edge]int64, len(f.pending))
		for _, e := range f.pending {
			need[e]++
		}
		for _, e := range f.killed {
			need[e]--
		}
		adds = make([]graph.Edge, 0, len(f.pending)-len(f.killed))
		for _, e := range f.pending {
			if need[e] > 0 {
				need[e]--
				adds = append(adds, e)
			}
		}
	}
	if len(adds) == 0 && len(f.cancels) == 0 && f.n == f.base.NumVertices() {
		return f.base
	}
	g, _, err := f.base.PatchEdgesN(f.n, adds, f.cancels)
	if err != nil {
		// Unreachable: every applied update was range-checked and every
		// cancellation names a live base occurrence.
		panic(err)
	}
	return g
}

// Snapshot materializes the live graph as an immutable CSR+CSC graph.Graph
// the processing engines can traverse. The result is cached until the next
// mutation; callers must not retain it across ApplyBatch if they need the
// newest state, but may keep using an old snapshot safely (it is never
// mutated).
func (d *Graph) Snapshot() *graph.Graph {
	if d.snapCache != nil && d.snapEpoch == d.epoch {
		return d.snapCache
	}
	g := d.Freeze().Materialize()
	d.snapCache, d.snapEpoch = g, d.epoch
	return g
}

// Compact promotes the current snapshot to the new base graph and clears the
// delta log. Engines holding older snapshots (and views holding older
// freezes) are unaffected: the old base and log prefix stay immutable. The
// "compact" span parents onto the batch whose log bound triggered it, or
// onto nothing for a direct call.
func (d *Graph) Compact() {
	cstart := time.Now()
	pending := d.PendingOps()
	d.base = d.Snapshot()
	d.pendingAdd, d.killedAdd, d.cancelLog = nil, nil, nil
	d.addAlive = make(map[edgeKey][]int32)
	d.delBase = make(map[wkey]int64)
	d.delPair = make(map[edgeKey]int64)
	d.stats.Compactions++
	d.m.compactions.Inc()
	d.m.compactNS.ObserveSince(cstart)
	d.sp.Record(obs.Span{
		Parent: d.curBatch.Context().ID, Name: "compact", Kind: "maintain",
		Cause: "log-bound", Epoch: d.epoch, Start: cstart, Dur: time.Since(cstart),
		Attrs: map[string]int64{"pending_ops": pending, "base_edges": d.liveEdges},
	})
}
