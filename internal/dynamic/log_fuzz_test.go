package dynamic

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// FuzzFrozenSince decodes bytes into programs of insertions, selector and
// blind deletions, Grow, forced Rebuild and direct Compact calls on a small
// weighted multigraph whose log bound also compacts automatically. A
// reference multiset follows every step (a blind deletion's weight is the
// one the graph logged), and FromEdges over it is the oracle: after every
// step the live Snapshot must equal it, the slot graph a compaction would
// derive must equal it relabeled by the live ordering, and HasEdge must
// agree with it on the pair the step touched. checkSince holds Since
// against the oracle graphs of every capture pair: exact within a
// generation, refused across a compaction. At the end every capture's
// Snapshot must still equal its oracle.
func FuzzFrozenSince(f *testing.F) {
	f.Add([]byte{6, 8, 1, 2, 1, 3, 4, 2, 0, 0, 1, 2, 3, 1, 6, 0, 0, 2, 5, 9, 3, 6, 0, 1, 1})
	f.Add([]byte{9, 3, 0, 1, 1, 0, 1, 1, 0, 1, 2, 3, 0, 0, 3, 1, 3, 4, 0, 2, 0, 3, 1})
	f.Add([]byte{4, 20, 1, 1, 3, 2, 2, 2, 0, 3, 3, 5, 1, 6, 6, 2, 4, 6, 3, 5, 2, 7, 1})
	// Three parallel (0,0) insertions compacted into the base, then one of
	// them deleted: HasEdge must count the weight's cancellation once.
	f.Add([]byte("0000000000000007$"))
	// Growth, a forced rebuild and a compaction, then deletions on both
	// sides of it: the base is in a renumbered slot space with admitted
	// vertices past its permutation.
	f.Add([]byte{7, 10, 0, 1, 2, 1, 2, 3, 2, 3, 1, 6, 2, 8, 7, 0, 4, 0, 5, 1, 3, 14, 5, 4, 0, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			i++
			return data[i-1]
		}
		n := 4 + int(next()%8)
		var live []graph.Edge
		for m := int(next() % 24); m > 0; m-- {
			live = append(live, graph.Edge{
				Src: graph.VertexID(int(next()) % n), Dst: graph.VertexID(int(next()) % n),
				Weight: int32(1 + next()%3),
			})
		}
		g, err := graph.FromEdges(n, live, true)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(g, Config{Partitions: 2, CompactEvery: 3 + int(next()%12)})
		if err != nil {
			t.Fatal(err)
		}
		caps := []frozenCapture{capture(d, g)}
		for step := 0; step < 48 && i < len(data); step++ {
			var touched *graph.EdgeUpdate
			switch op := next() % 9; {
			case op < 4:
				u := graph.EdgeUpdate{
					Src: graph.VertexID(int(next()) % d.n), Dst: graph.VertexID(int(next()) % d.n),
					Weight: int32(next() % 4),
				}
				if _, err := d.ApplyBatch([]graph.EdgeUpdate{u}); err != nil {
					t.Fatal(err)
				}
				live = append(live, graph.Edge{Src: u.Src, Dst: u.Dst, Weight: max(u.Weight, 1)})
				touched = &u
			case op < 6:
				// Delete a live edge; a zero selector lets the graph pick
				// the occurrence, and the weight that died is the one whose
				// multiplicity on the pair dropped.
				if len(live) == 0 {
					continue
				}
				e := live[int(next())%len(live)]
				u := graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Del: true}
				if op == 5 {
					u.Weight = 0
				}
				if _, err := d.ApplyBatch([]graph.EdgeUpdate{u}); err != nil {
					t.Fatal(err)
				}
				if op == 5 {
					e.Weight = diedWeight(live, d.Snapshot(), e.Src, e.Dst)
				}
				j := slices.Index(live, e)
				if j < 0 {
					t.Fatalf("step %d: deleting (%d,%d) left its multiplicity unchanged", step, e.Src, e.Dst)
				}
				live = slices.Delete(live, j, j+1)
				touched = &u
			case op == 6:
				d.Grow(1 + int(next()%3))
			case op == 7:
				d.Rebuild()
			default:
				d.Compact()
			}
			want, err := graph.FromEdges(d.n, live, true)
			if err != nil {
				t.Fatal(err)
			}
			f := d.Freeze()
			if m := d.NumEdges(); f.NumEdges() != m || want.NumEdges() != m {
				t.Fatalf("step %d: NumEdges graph %d, capture %d, oracle %d", step, m, f.NumEdges(), want.NumEdges())
			}
			if !graph.Equal(d.Snapshot(), want) {
				t.Fatalf("step %d: snapshot differs from FromEdges over the reference multiset", step)
			}
			checkDerived(t, d, want)
			if u := touched; u != nil && d.HasEdge(u.Src, u.Dst) != want.HasEdge(u.Src, u.Dst) {
				t.Fatalf("step %d: HasEdge(%d,%d) = %v, oracle says %v",
					step, u.Src, u.Dst, d.HasEdge(u.Src, u.Dst), want.HasEdge(u.Src, u.Dst))
			}
			caps = append(caps, capture(d, want))
		}
		checkSince(t, caps)
		for _, c := range caps {
			if !graph.Equal(c.f.Snapshot(), c.snap) {
				t.Fatalf("capture of epoch %d no longer builds its oracle graph", c.f.Epoch())
			}
		}
	})
}

// diedWeight returns the weight of the (s,dst) occurrence a blind deletion
// removed: one whose multiplicity in live exceeds the snapshot's after the
// deletion.
func diedWeight(live []graph.Edge, after *graph.Graph, s, dst graph.VertexID) int32 {
	count := make(map[int32]int)
	for _, e := range live {
		if e.Src == s && e.Dst == dst {
			count[e.Weight]++
		}
	}
	ws := after.OutWeights(s)
	for k, nb := range after.OutNeighbors(s) {
		if nb == dst {
			count[ws[k]]--
		}
	}
	for w, c := range count {
		if c > 0 {
			return w
		}
	}
	return 0
}

// FuzzNetEdges holds netEdges against netEdgesOracle, the comparator sort
// it replaced, element for element. Bytes decode into plus and minus
// entries on few endpoints, so parallel entries and cancellations are
// common, with weights from the full int32 range: zero, negative and both
// extremes.
func FuzzNetEdges(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 1, 2, 3, 8, 1, 2, 3, 12, 2, 1, 4})
	f.Add([]byte{1, 0, 0, 5, 9, 0, 0, 5, 3, 0, 0, 6, 2, 0, 0, 7, 5, 3, 3, 2})
	f.Add([]byte{7, 200, 17, 1, 6, 200, 17, 1, 4, 9, 9, 255, 1, 9, 9, 254, 3, 1, 1, 128})
	weights := []int32{1, 0, -1, 2, -2, 3, math.MinInt32, math.MaxInt32, math.MinInt32 + 1, math.MaxInt32 - 1, 1 << 16, -1 << 16}
	f.Fuzz(func(t *testing.T, data []byte) {
		var plus, minus []graph.Edge
		for i := 0; i+4 <= len(data); i += 4 {
			op, b := data[i], data[i+3]
			w := weights[int(b)%len(weights)]
			if b >= 128 {
				w = int32(uint32(b)<<24 | uint32(op)<<8 | uint32(data[i+1]))
			}
			e := graph.Edge{Src: graph.VertexID(data[i+1] % 5), Dst: graph.VertexID(data[i+2] % 5), Weight: w}
			if op&4 != 0 {
				e.Src |= graph.VertexID(data[i+2]) << 16 // a high-byte ID
			}
			if op&1 == 0 {
				plus = append(plus, e)
			} else {
				minus = append(minus, e)
			}
		}
		adds, dels := netEdges(plus, minus)
		wantAdds, wantDels := netEdgesOracle(plus, minus)
		if !slices.Equal(adds, wantAdds) || !slices.Equal(dels, wantDels) {
			t.Fatalf("netEdges(%v, %v) = %v, %v; oracle %v, %v", plus, minus, adds, dels, wantAdds, wantDels)
		}
	})
}

// netEdgesOracle is the comparator netting netEdges replaced: one sort of
// every signed entry by (Src, Dst, Weight), then per triple the summed
// sign, unrolled into sorted adds (positive) and dels (negative).
func netEdgesOracle(plus, minus []graph.Edge) (adds, dels []graph.Edge) {
	type signed struct {
		key  uint64 // Src<<32 | Dst
		w    int32
		sign int32
	}
	var es []signed
	put := func(edges []graph.Edge, sign int32) {
		for _, e := range edges {
			es = append(es, signed{uint64(e.Src)<<32 | uint64(e.Dst), e.Weight, sign})
		}
	}
	put(plus, 1)
	put(minus, -1)
	slices.SortFunc(es, func(a, b signed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})
	for i := 0; i < len(es); {
		c, j := int32(0), i
		for ; j < len(es) && es[j].key == es[i].key && es[j].w == es[i].w; j++ {
			c += es[j].sign
		}
		e := graph.Edge{Src: graph.VertexID(es[i].key >> 32), Dst: graph.VertexID(uint32(es[i].key)), Weight: es[i].w}
		for ; c > 0; c-- {
			adds = append(adds, e)
		}
		for ; c < 0; c++ {
			dels = append(dels, e)
		}
		i = j
	}
	return adds, dels
}

// FuzzDeleteResolution holds the writer's deletion resolution — the
// per-pair pending stacks in one slab and the cancellation bitset over the
// base's out-edge positions — to resolveOracle, the per-pair weight lists
// and per-(pair, weight) cancellation counts it replaced. Bytes decode into
// a weighted or unweighted multigraph with parallel edges of equal and of
// different weights, then one-update batches: insertions (zero weights
// included), deletions with and without a weight selector on a few
// endpoints (so they hit a pending insertion, a base occurrence or
// nothing, and name vertices admitted after the last compaction, which
// have no base row), Grow, forced Rebuild and direct Compact calls. After
// every step the deletion log, every error text, PendingOps and HasEdge on
// every pair must equal the oracle's.
func FuzzDeleteResolution(f *testing.F) {
	// Weighted, 4 vertices, base edges (1,0) of weights 1, 1 and 3 and
	// (2,3) of weight 2. Steps: pending (1,0) insertions of weights 2 and
	// 3; a blind delete (kills pending 3); selector 1 (the first base
	// 1); selector 2 (pending); blind (the second base 1); selector 2
	// (nothing); Compact; blind (the base 3); Grow 1; a delete on the
	// admitted vertex (no base row); its insertion and selector delete;
	// a pending (2,3) of weight 1 and selector 2 (the base).
	f.Add([]byte{0, 2, 4, 1, 0, 0, 1, 0, 0, 1, 0, 2, 2, 3, 1,
		0, 1, 0, 2, 0, 1, 0, 3, 6, 1, 0, 0, 6, 1, 0, 1, 7, 1, 0, 2, 8, 1, 0, 0, 9, 1, 0, 2,
		15, 10, 1, 0, 0, 13, 0, 11, 4, 1, 0, 1, 4, 1, 0, 12, 4, 1, 1, 2, 2, 3, 0, 6, 2, 3, 2})
	// Unweighted, 3 vertices, base edges (0,1) twice and (1,2): a pending
	// (0,1) and a selector delete (ignored: kills it), two blind deletes
	// (the base pair), one more (nothing), Rebuild, Compact, a base
	// delete in the renumbered slot space, Grow 2, a delete on an
	// admitted pair.
	f.Add([]byte{1, 1, 3, 0, 1, 0, 0, 1, 0, 1, 2, 0,
		0, 0, 1, 2, 6, 0, 1, 3, 6, 0, 1, 0, 7, 0, 1, 1, 8, 0, 1, 0, 14, 15, 9, 1, 2, 0, 13, 1, 10, 4, 3, 0})
	// A blind delete with two pending insertions of different weights on
	// the pair: the most recent dies.
	f.Add([]byte("0210000100010271"))
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		weighted := next()%2 == 0
		n := 2 + next()%5
		var edges []graph.Edge
		for m := next() % 24; m > 0; m-- {
			e := graph.Edge{Src: graph.VertexID(next() % n), Dst: graph.VertexID(next() % n), Weight: int32(1 + next()%3)}
			if !weighted {
				e.Weight = 1
			}
			edges = append(edges, e)
		}
		g, err := graph.FromEdges(n, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(g, Config{Partitions: 2, CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		o := newResolveOracle(d)
		for step := 0; step < 64 && i < len(data); step++ {
			op := next() % 16
			switch op {
			case 13:
				d.Grow(1 + next()%2)
				continue
			case 14:
				d.Rebuild()
				continue
			case 15:
				d.Compact()
				o = newResolveOracle(d)
				continue
			}
			// With at most six vertices before growth, updates land on
			// pending insertions and base runs often; admitted vertices are
			// endpoints too.
			u := graph.EdgeUpdate{Src: graph.VertexID(next() % d.n), Dst: graph.VertexID(next() % d.n),
				Weight: int32(next() % 4), Del: op >= 6}
			var want error
			if u.Del {
				want = o.deleteEdge(u.Src, u.Dst, u.Weight)
			} else {
				o.insertEdge(u.Src, u.Dst, u.Weight)
			}
			_, err := d.ApplyBatch([]graph.EdgeUpdate{u})
			switch {
			case (err == nil) != (want == nil):
				t.Fatalf("step %d: %+v: error %v, oracle %v", step, u, err, want)
			case err != nil && err.Error() != "dynamic: update 0: "+want.Error():
				t.Fatalf("step %d: %+v: error %q, oracle %q", step, u, err, want)
			case !slices.Equal(d.delLog, o.delLog):
				t.Fatalf("step %d: %+v: deletion log %v, oracle %v", step, u, d.delLog, o.delLog)
			case d.PendingOps() != int64(len(o.pendingAdd))+o.cancels:
				t.Fatalf("step %d: PendingOps %d, oracle %d", step, d.PendingOps(), int64(len(o.pendingAdd))+o.cancels)
			}
			for s := range graph.VertexID(d.n) {
				for dst := range graph.VertexID(d.n) {
					if got, want := d.HasEdge(s, dst), o.hasEdge(s, dst); got != want {
						t.Fatalf("step %d: HasEdge(%d,%d) = %v, oracle %v", step, s, dst, got, want)
					}
				}
			}
		}
	})
}

// wkey addresses one (src,dst,weight) edge class of resolveOracle.
type wkey struct {
	k edgeKey
	w int32
}

// resolveOracle is the deletion resolution the slab stacks and the
// cancellation bitset replaced: addAlive[k] lists the weights of pair k's
// surviving pending insertions in insertion order, and delBase[{k,w}]
// counts the base occurrences of (k, w) cancelled. Its methods are the
// replaced code verbatim, less the degree, epoch and metric bookkeeping.
type resolveOracle struct {
	weighted   bool
	base       *SlotGraph
	pendingAdd []graph.Edge
	delLog     []graph.Edge
	addAlive   map[edgeKey][]int32
	delBase    map[wkey]int64
	cancels    int64
}

// newResolveOracle starts an oracle over d's current, empty, log
// generation.
func newResolveOracle(d *Graph) *resolveOracle {
	return &resolveOracle{weighted: d.weighted, base: d.base,
		addAlive: make(map[edgeKey][]int32), delBase: make(map[wkey]int64)}
}

// hasEdge is the HasEdge test helper over the replaced indexes: the
// surviving pending insertions plus the base run, less each weight's
// cancellations (subtracted once, where the weight's sub-run starts).
func (d *resolveOracle) hasEdge(s, dst graph.VertexID) bool {
	k := keyOf(s, dst)
	c := int64(len(d.addAlive[k]))
	ws := d.baseRun(s, dst)
	for i, w := range ws {
		c++
		if i == 0 || w != ws[i-1] {
			c -= d.delBase[wkey{k, w}]
		}
	}
	return c > 0
}

func (d *resolveOracle) baseRun(s, dst graph.VertexID) []int32 {
	b := d.base
	if int(s) >= len(b.Perm) || int(dst) >= len(b.Perm) {
		return nil
	}
	s, dst = b.Perm[s], b.Perm[dst]
	nbrs := b.G.OutNeighbors(s)
	lo := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= dst })
	hi := lo
	for hi < len(nbrs) && nbrs[hi] == dst {
		hi++
	}
	return b.G.OutWeights(s)[lo:hi]
}

func (d *resolveOracle) normWeight(w int32) int32 {
	if !d.weighted || w == 0 {
		return 1
	}
	return w
}

func (d *resolveOracle) insertEdge(s, dst graph.VertexID, w int32) {
	w = d.normWeight(w)
	k := keyOf(s, dst)
	d.pendingAdd = append(d.pendingAdd, graph.Edge{Src: s, Dst: dst, Weight: w})
	d.addAlive[k] = append(d.addAlive[k], w)
}

func (d *resolveOracle) deleteEdge(s, dst graph.VertexID, wSel int32) error {
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
	return nil
}

func (d *resolveOracle) killPending(s, dst graph.VertexID, i int) {
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

func (d *resolveOracle) cancelBase(s, dst graph.VertexID, w int32) {
	d.delBase[wkey{keyOf(s, dst), w}]++
	d.cancels++
	d.delLog = append(d.delLog, graph.Edge{Src: s, Dst: dst, Weight: w})
}

func (d *resolveOracle) earliestLiveBase(s, dst graph.VertexID) (int32, bool) {
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

func countWeight(ws []int32, w int32) int {
	c := 0
	for _, x := range ws {
		if x == w {
			c++
		}
	}
	return c
}
