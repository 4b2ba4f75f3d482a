package dynamic

import (
	"fmt"
	"slices"
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

// startLog opens an empty log generation over the current base: no pending
// insertions or deletions, and writer indexes to match. The pair index
// does not rehash as the log fills: New sizes it for the log bound (capped
// at the adaptive bound, so an explicit huge CompactEvery preallocates
// nothing extra), and Compact clears it, keeping the capacity the last
// generation grew, rather than allocating a new table beside the old one.
// The cancellation bitset is sized for the new base on first use.
func (d *Graph) startLog() {
	// Captures share the logs' prefixes, so they start afresh; the slab and
	// the pair index are the writer's own and keep their capacity.
	d.pendingAdd, d.delLog, d.addPrev = nil, nil, d.addPrev[:0]
	if d.addAlive == nil {
		d.addAlive = make(map[edgeKey]int32, min(d.compactBound(), max(8192, d.NumEdges()/8)))
	} else {
		clear(d.addAlive)
	}
	d.cancelled = nil
	d.cancels = 0
}

// baseRun locates the base's parallel (s,dst) edges: the position of the
// first in the base's out-edge numbering (OutOffsets), and their weights in
// row order — sorted, so each weight's occurrences are one sub-run. The base
// is in slot space, so both endpoints are looked up through its
// permutation; an endpoint admitted after the compaction has no base row.
func (d *Graph) baseRun(s, dst graph.VertexID) (lo int64, ws []int32) {
	b := d.base
	if int(s) >= len(b.Perm) || int(dst) >= len(b.Perm) {
		return 0, nil
	}
	s, dst = b.Perm[s], b.Perm[dst]
	nbrs := b.G.OutNeighbors(s)
	i, _ := slices.BinarySearch(nbrs, dst)
	j := i
	for j < len(nbrs) && nbrs[j] == dst {
		j++
	}
	return b.G.OutOffsets()[s] + int64(i), b.G.OutWeights(s)[i:j]
}

// normWeight maps an input weight to its stored form. New and AdmitBatch
// reject negative weights, so every stored weight is at least 1.
func (d *Graph) normWeight(w int32) int32 {
	if !d.weighted || w == 0 {
		return 1
	}
	return w
}

func (d *Graph) insertEdge(s, dst graph.VertexID, w int32) {
	w = d.normWeight(w)
	k := keyOf(s, dst)
	prev, ok := d.addAlive[k]
	if !ok {
		prev = -1
	}
	d.addAlive[k] = int32(len(d.pendingAdd))
	d.addPrev = append(d.addPrev, prev)
	d.pendingAdd = append(d.pendingAdd, graph.Edge{Src: s, Dst: dst, Weight: w})
	d.degIn[dst]++
	d.partEdges[d.assign[dst]]++
	d.markStale(dst)
	d.touch()
}

// deleteEdge cancels one live (s,dst) occurrence. A non-zero wSel on a
// weighted graph selects among parallel edges: only an occurrence carrying
// exactly that weight may die. With no selector (wSel == 0, or any value on
// unweighted graphs) the most recent pending log insertion dies first, else
// the earliest surviving base occurrence — deterministic either way, and the
// resolved weight is logged so snapshots and view deltas agree
// edge-for-edge. A selector picks the most recent surviving pending
// insertion of its weight, else the weight's earliest surviving base
// occurrence.
func (d *Graph) deleteEdge(s, dst graph.VertexID, wSel int32) error {
	if !d.weighted {
		wSel = 0
	}
	if !d.killPending(s, dst, wSel) && !d.cancelBase(s, dst, wSel) {
		if wSel == 0 {
			return fmt.Errorf("delete of non-existent edge (%d,%d)", s, dst)
		}
		return fmt.Errorf("delete of non-existent edge (%d,%d) with weight %d", s, dst, wSel)
	}
	d.degIn[dst]--
	d.partEdges[d.assign[dst]]--
	d.markStale(dst)
	d.touch()
	return nil
}

// killPending kills the most recent surviving pending (s,dst) insertion
// carrying wSel (any weight when wSel is 0): it unlinks the insertion from
// the pair's stack and logs the deletion with its weight. The insertion's
// own log entry stays; Since nets the deletion against it. It reports
// whether one was found.
func (d *Graph) killPending(s, dst graph.VertexID, wSel int32) bool {
	k := keyOf(s, dst)
	i, ok := d.addAlive[k]
	if !ok {
		return false
	}
	for above := int32(-1); i >= 0; above, i = i, d.addPrev[i] {
		w := d.pendingAdd[i].Weight
		if wSel != 0 && w != wSel {
			continue
		}
		switch below := d.addPrev[i]; {
		case above >= 0:
			d.addPrev[above] = below
		case below >= 0:
			d.addAlive[k] = below
		default:
			delete(d.addAlive, k)
		}
		d.delLog = append(d.delLog, graph.Edge{Src: s, Dst: dst, Weight: w})
		return true
	}
	return false
}

// cancelBase cancels the earliest uncancelled base (s,dst) occurrence
// carrying wSel (any weight when wSel is 0) and logs the deletion with its
// weight, reporting whether one was found. Cancellations of one weight are
// a prefix of its sub-run of the parallel-edge run, so the earliest
// uncancelled position is the one a per-weight cancellation count names.
func (d *Graph) cancelBase(s, dst graph.VertexID, wSel int32) bool {
	lo, ws := d.baseRun(s, dst)
	for j, w := range ws {
		pos := lo + int64(j)
		if wSel != 0 && w != wSel || d.isCancelled(pos) {
			continue
		}
		if d.cancelled == nil {
			d.cancelled = make([]uint64, (d.base.G.NumEdges()+63)/64)
		}
		d.cancelled[pos/64] |= 1 << (pos % 64)
		d.cancels++
		d.delLog = append(d.delLog, graph.Edge{Src: s, Dst: dst, Weight: w})
		return true
	}
	return false
}

// isCancelled reports whether base out-edge position pos was cancelled.
func (d *Graph) isCancelled(pos int64) bool {
	return d.cancelled != nil && d.cancelled[pos/64]&(1<<(pos%64)) != 0
}

func (d *Graph) touch() {
	d.epoch++
}

// newBase returns a log generation's compaction base: g, the live graph
// at epoch relabeled by the ordering perm of renumbering epoch renum. Its
// capture opens the generation, and two captures share a generation iff
// they share its base.
func newBase(g *graph.Graph, perm []graph.VertexID, renum, epoch int64) *SlotGraph {
	b := &SlotGraph{G: g, Perm: perm, Renum: renum}
	b.At = Frozen{n: len(perm), epoch: epoch, base: b}
	return b
}

// Frozen is an immutable capture of the live edge multiset at one epoch. It
// shares the base and capped prefixes of the two append-only delta logs
// with the live structure and copies nothing else, so freezing is O(1) and
// allocation-free regardless of graph or log size. A Frozen may be read
// from any goroutine, concurrently with further ApplyBatch calls on the
// source graph: the writer only appends past the prefixes, or starts fresh
// logs at compaction.
//
//vebo:frozen
type Frozen struct {
	n       int
	epoch   int64
	base    *SlotGraph
	pending []graph.Edge // insertions, in arrival order
	dels    []graph.Edge // deletions, of pending insertions or base edges
}

// Freeze captures the current live edge multiset.
func (d *Graph) Freeze() Frozen {
	return Frozen{
		n:       d.n,
		epoch:   d.epoch,
		base:    d.base,
		pending: d.pendingAdd[:len(d.pendingAdd):len(d.pendingAdd)],
		dels:    d.delLog[:len(d.delLog):len(d.delLog)],
	}
}

// Epoch returns the mutation epoch the capture was taken at.
func (f Frozen) Epoch() int64 { return f.epoch }

// NumVertices reports the vertex count.
func (f Frozen) NumVertices() int { return f.n }

// NumEdges reports the live edge count of the capture.
func (f Frozen) NumEdges() int64 {
	return f.base.G.NumEdges() + int64(len(f.pending)-len(f.dels))
}

// Base returns the compaction base of the capture's log generation, every
// view's basis of last resort.
func (f Frozen) Base() SlotGraph { return *f.base }

// Snapshot builds the captured edge multiset in original vertex IDs from
// scratch: graph.FromEdges over the base's edges mapped back through its
// permutation, netted against the logs. It shares no code with the slot
// derivations, which makes it their oracle.
func (f Frozen) Snapshot() *graph.Graph {
	b := f.base
	orig := make([]graph.VertexID, b.G.NumVertices())
	for v, s := range b.Perm {
		orig[s] = graph.VertexID(v)
	}
	es := b.G.Edges()
	for i := range es {
		es[i].Src, es[i].Dst = orig[es[i].Src], orig[es[i].Dst]
	}
	live, _ := netEdges(append(es, f.pending...), f.dels)
	g, err := graph.FromEdges(f.n, live, b.G.Weighted())
	if err != nil {
		// Unreachable: every logged endpoint was range-checked.
		panic(err)
	}
	return g
}

// Since returns the net edge change from the earlier capture b to f, as
// sorted insertion and deletion lists with multiplicities unrolled: the log
// entries f holds past b (insertions minus deletions), netted per (Src,
// Dst, Weight). The lists are freshly allocated and the caller's own to
// rewrite. ok is false when b is of another generation (a compaction lies
// between the two) or was captured after f.
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
	return int64(len(plus) + len(minus)), ok
}

// logsSince returns the log entries f holds past b, a capture of its own
// generation.
func (f Frozen) logsSince(b Frozen) (plus, minus []graph.Edge, ok bool) {
	if b.base != f.base || b.epoch > f.epoch {
		return nil, nil, false
	}
	return f.pending[len(b.pending):], f.dels[len(b.dels):], true
}

// netEdges nets signed edge lists into their multiset difference. The plus
// and the minus entries, copied into one buffer, are each radix-sorted by
// (Src, Dst, Weight) (graph.SortEdges, with one more buffer), and one
// linear merge of the two sorted runs cancels equal entries pairwise: what
// survives of the plus run, written back over its own part of the buffer,
// is the sorted adds, and of the minus run the sorted dels.
func netEdges(plus, minus []graph.Edge) (adds, dels []graph.Edge) {
	np, buf := len(plus), slices.Concat(plus, minus)
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

// Snapshot builds the live graph in original vertex IDs as an immutable
// CSR+CSC graph.Graph: Freeze().Snapshot(). The result is never mutated,
// so callers may keep using an old snapshot safely across later batches.
func (d *Graph) Snapshot() *graph.Graph { return d.Freeze().Snapshot() }

// Latest returns the newest slot graph of the current log generation:
// the base, or a later one a reader registered.
func (d *Graph) Latest() *SlotGraph { return d.latest.Load() }

// Register offers s, a slot graph a reader derived or reads through its
// derived ancestor, as the newest of its generation. A capture of a later
// epoch wins, and a tie keeps the current entry unless that is the base of
// s's own generation (the view published at the compaction epoch holds
// the base's graph and may carry engines), or holds no graph while s does.
// A capture of an older generation is never newer than the compaction that
// ended it, nor of the base's generation, so it never wins. Safe from any
// goroutine.
func (d *Graph) Register(s *SlotGraph) {
	for {
		cur := d.latest.Load()
		if s.At.epoch < cur.At.epoch || s.At.epoch == cur.At.epoch && s.At.base != cur && (cur.G != nil || s.G == nil) {
			return
		}
		if d.latest.CompareAndSwap(cur, s) {
			return
		}
	}
}

// deriveBase derives the live graph in the current ordering's slot space
// the way views derive theirs: from the newest derived slot graph of the
// generation (Latest, or the ancestor it reads through).
func (d *Graph) deriveBase() (*graph.Graph, graph.PatchStats) {
	b := d.Latest().Derived()
	c, _ := d.Freeze().ChangeSince(*b, d.ordPerm, d.renumEpoch) // b is of the live generation
	g, st, err := b.G.Patch(int(d.Ordering().Slots()), c)
	if err != nil {
		// Unreachable: every applied update was range-checked and every
		// cancellation names a live occurrence.
		panic(err)
	}
	return g, st
}

// Compact derives the live graph in the current ordering's slot space as
// the new base (deriveBase) and starts a new log generation. Views and
// snapshots holding older captures are unaffected: the old base and log
// prefix stay immutable. The "compact" span parents onto the batch whose
// log bound triggered it, or onto nothing for a direct call, and carries
// whether the derivation folded and the edges it wrote.
func (d *Graph) Compact() {
	cstart := time.Now()
	pending := d.PendingOps()
	g, st := d.deriveBase()
	fold := int64(0)
	if st.Fold != "" {
		fold = 1
	}
	d.base = newBase(g, d.ordPerm[:d.n:d.n], d.renumEpoch, d.epoch)
	d.latest.Store(d.base)
	d.startLog()
	d.m.compactions.Inc()
	d.m.compactNS.ObserveSince(cstart)
	d.sp.Record(obs.Span{
		Parent: d.curBatch.Context().ID, Name: "compact", Kind: "maintain",
		Cause: "log-bound", Epoch: d.epoch, Start: cstart, Dur: time.Since(cstart),
		Attrs: map[string]int64{
			"pending_ops": pending, "base_edges": g.NumEdges(),
			"fold": fold, "written_edges": st.EdgesWritten,
		},
	})
}
