package dynamic

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// FuzzSwapRepair decodes bytes into a partition count P ∈ [2,8], an
// unweighted multigraph of at most 512 vertices — mostly of in-degree 0 to
// 2, so member lists hold long equal-degree runs, plus a few hubs — and a
// sequence of steps — insertion/deletion batches, Grow admissions and
// forced Rebuilds — all under the default maintenance config. Every batch's
// swap repair pass is held to swapRepairOracle run on a clone of the state
// the pass started from (checkRepairPass). After every step it holds the
// member lists to the placement and the live degrees (checkMembers), the
// balance bookkeeping against a recount (in-degrees against a flat
// edge-list model, per-partition counts against PartitionOf and InDegree),
// the ordering against its contract (an injection in which every partition
// owns the occupied prefix of one contiguous segment), every earlier
// Ordering against the copy taken when it was published (the permutation
// and assignment are copy-on-write), and Stats against the spans: one
// repair, rebuild and compact span per counted event. After every step
// that renumbered (a rebuild, or a Grow that relabeled into fresh
// headroom) the ordering must equal numberOracle of the live state. After
// a batch that did not rebuild, Δ(n) and δ(n) must be within their gates.
// Every batch rebuild span must name why the swap repair fell short.
func FuzzSwapRepair(f *testing.F) {
	// Random seeds: with few vertices per partition, uniform churn trips the
	// gate often enough to exercise swaps and both rebuild causes.
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 160)
		rng.Read(data)
		f.Add(data)
	}
	// Wide graphs: hundreds of mostly degree-0 and degree-1 vertices.
	for seed := int64(7); seed <= 9; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 640)
		rng.Read(data)
		data[1] = 255 // n = 512
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
		p := 2 + next()%7
		n := 1 + next()%64
		if n == 64 {
			n = 64 * (1 + next()%8)
		}
		// vertex decodes one byte below 256 vertices and two from there on.
		vertex := func() graph.VertexID {
			if n <= 256 {
				return graph.VertexID(next() % n)
			}
			return graph.VertexID((next() | next()<<8) % n)
		}
		var live []graph.Edge
		for m := next()%32 + n/4; m > 0; m-- {
			live = append(live, graph.Edge{Src: vertex(), Dst: vertex(), Weight: 1})
		}
		g, err := graph.FromEdges(n, live, false)
		if err != nil {
			t.Fatal(err)
		}
		sp := obs.NewSpans(1024)
		d, err := New(g, Config{Partitions: p, Spans: sp})
		if err != nil {
			t.Fatal(err)
		}
		m := newDynMetrics(obs.NewRegistry(), p)
		var pins []pinnedOrdering
		for step := 0; step < 32 && i < len(data); step++ {
			renum := d.RenumEpoch()
			switch next() % 16 {
			case 14:
				d.Grow(1 + next()%3)
				n = d.NumVertices()
				checkMembers(t, d)
				checkBalance(t, d, live)
				pins = checkPinned(t, d, sp, pins)
				if d.RenumEpoch() != renum {
					checkNumbered(t, d)
				}
				continue
			case 15:
				d.Rebuild()
				checkMembers(t, d)
				checkBalance(t, d, live)
				pins = checkPinned(t, d, sp, pins)
				checkNumbered(t, d)
				continue
			}
			pre := cloneForOracle(d, m)
			var batch []graph.EdgeUpdate
			for k := 1 + next()%16; k > 0; k-- {
				op := next()
				if op%4 == 0 && len(live) > 0 {
					j := next() % len(live)
					e := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					batch = append(batch, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst, Del: true})
					pre.degIn[e.Dst]--
					pre.partEdges[pre.assign[e.Dst]]--
					continue
				}
				e := graph.Edge{Src: graph.VertexID(op % n), Dst: vertex(), Weight: 1}
				if op%8 == 1 {
					e.Dst = graph.VertexID(op % 4 % n) // pile onto a few hubs
				}
				live = append(live, e)
				batch = append(batch, graph.EdgeUpdate{Src: e.Src, Dst: e.Dst})
				pre.degIn[e.Dst]++
				pre.partEdges[pre.assign[e.Dst]]++
			}
			res, err := d.ApplyBatch(batch)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkRepairPass(t, d, sp, pre, res)
			checkMembers(t, d)
			checkBalance(t, d, live)
			pins = checkPinned(t, d, sp, pins)
			if res.Rebuilt {
				checkNumbered(t, d)
			}
			if res.EdgeImbalance != d.EdgeImbalance() || res.VertexImbalance != d.VertexImbalance() {
				t.Fatalf("step %d: batch reports Δ=%d δ=%d, graph Δ=%d δ=%d",
					step, res.EdgeImbalance, res.VertexImbalance, d.EdgeImbalance(), d.VertexImbalance())
			}
			if !res.Rebuilt {
				if got, gate := d.EdgeImbalance(), d.EffectiveRebuildThreshold(); got > gate {
					t.Fatalf("step %d (repaired=%v): Δ(n)=%d over its gate %d", step, res.Repaired, got, gate)
				}
				if got, gate := d.VertexImbalance(), d.cfg.VertexRebuildThreshold; got > gate {
					t.Fatalf("step %d (repaired=%v): δ(n)=%d over its gate %d", step, res.Repaired, got, gate)
				}
			}
		}
		for _, s := range sp.Snapshot() {
			batch := s.Parent != 0
			if s.Name == "rebuild" && batch != (s.Cause == "repair-shortfall" || s.Cause == "vertex-threshold") {
				t.Fatalf("rebuild span (batch=%v) with cause %q", batch, s.Cause)
			}
		}
	})
}

// oracleGraph is the part of a Graph swapRepairOracle reads and writes,
// under the field names it reads them by.
type oracleGraph struct {
	cfg       Config
	n         int
	degIn     []int64
	assign    []uint32
	partEdges []int64
	partVerts []int64
	ordPerm   []graph.VertexID
	members   [][]graph.VertexID
	m         dynMetrics
	th        int64
}

// cloneForOracle copies d's placement and balance state. Its member lists
// are left to the oracle's own ensureMembers, which buckets them from the
// assignment, so a real member list that lost or gained a vertex shows as a
// different choice.
func cloneForOracle(d *Graph, m dynMetrics) *oracleGraph {
	return &oracleGraph{
		cfg: d.cfg, n: d.n, m: m,
		degIn: slices.Clone(d.degIn), assign: slices.Clone(d.assign),
		partEdges: slices.Clone(d.partEdges), partVerts: slices.Clone(d.partVerts),
		ordPerm: slices.Clone(d.ordPerm),
	}
}

func (d *oracleGraph) effEdgeThreshold() int64 { return d.th }

// ensureMembers is the member bucketing the persistent (degree, ID) lists
// replaced.
func (d *oracleGraph) ensureMembers() {
	if d.members != nil {
		return
	}
	d.members = make([][]graph.VertexID, d.cfg.Partitions)
	for v := 0; v < d.n; v++ {
		q := d.assign[v]
		d.members[q] = append(d.members[q], graph.VertexID(v))
	}
}

// swapRepairOracle is the swap repair pass the persistent member order and
// the monotone pair search replaced, verbatim: it sorts every member list
// it reads from scratch and binary-searches the donor list for each
// receiver.
func (d *oracleGraph) swapRepairOracle() (swaps int64) {
	th := d.effEdgeThreshold()
	if core.Spread(d.partEdges) <= th {
		return 0
	}
	d.ensureMembers()
	lists := d.members
	// Partition member lists are sorted by ascending live degree lazily, on
	// first use as a donor or receiver in this pass (degrees drift between
	// passes, so sortedness never carries over); a typical pass touches a
	// handful of partitions, not all P.
	sorted := make([]bool, d.cfg.Partitions)
	var keys []uint64
	sortList := func(q int) {
		if sorted[q] {
			return
		}
		// One packed degree<<32|ID key per member (in-degrees fit in 32
		// bits): uint64 order is degree-ascending, ID-ascending order.
		keys = keys[:0]
		for _, v := range lists[q] {
			keys = append(keys, uint64(d.degIn[v])<<32|uint64(v))
		}
		slices.Sort(keys)
		for i, k := range keys {
			lists[q][i] = graph.VertexID(uint32(k))
		}
		sorted[q] = true
	}
	// insertSorted keeps a sorted list sorted after adding w.
	insertSorted := func(q int, w graph.VertexID) {
		l := lists[q]
		i := sort.Search(len(l), func(i int) bool {
			if d.degIn[l[i]] != d.degIn[w] {
				return d.degIn[l[i]] > d.degIn[w]
			}
			return l[i] >= w
		})
		l = append(l, 0)
		copy(l[i+1:], l[i:])
		l[i] = w
		lists[q] = l
	}
	var perm []graph.VertexID
	var partOf []uint32
	for iter := 0; iter < d.n; iter++ {
		pmax := argMin2Neg(d.partEdges)
		pmin := argMin2(d.partEdges, d.partVerts)
		gap := d.partEdges[pmax] - d.partEdges[pmin]
		if gap <= th {
			break
		}
		sortList(pmax)
		sortList(pmin)
		lmax, lmin := lists[pmax], lists[pmin]
		// Best pair: minimize |transfer − gap/2| over transfers in (0, gap),
		// which strictly shrinks this pair's imbalance (and the sum of
		// squared loads, so the loop terminates). For each candidate u the
		// two donors bracketing the ideal degree suffice, since degrees are
		// sorted.
		bestV, bestU := -1, -1
		var bestScore int64
		for ui, u := range lmin {
			target := d.degIn[u] + (gap+1)/2
			i := sort.Search(len(lmax), func(i int) bool { return d.degIn[lmax[i]] >= target })
			for _, j := range [2]int{i - 1, i} {
				if j < 0 || j >= len(lmax) {
					continue
				}
				t := d.degIn[lmax[j]] - d.degIn[u]
				if t <= 0 || t >= gap {
					continue
				}
				score := gap - 2*t
				if score < 0 {
					score = -score
				}
				if bestV < 0 || score < bestScore {
					bestV, bestU, bestScore = j, ui, score
				}
			}
		}
		if bestV < 0 {
			// No improving pair exchange exists.
			break
		}
		v, u := lmax[bestV], lmin[bestU]
		if perm == nil {
			// Clone the shared permutation and assignment once per pass, so
			// views pinned to earlier epochs keep their numbering.
			perm = append([]graph.VertexID(nil), d.ordPerm...)
			partOf = append([]uint32(nil), d.assign...)
		}
		dv, du := d.degIn[v], d.degIn[u]
		partOf[v], partOf[u] = uint32(pmin), uint32(pmax)
		d.partEdges[pmax] += du - dv
		d.partEdges[pmin] += dv - du
		perm[v], perm[u] = perm[u], perm[v]
		swaps++
		lists[pmax] = append(lmax[:bestV], lmax[bestV+1:]...)
		lists[pmin] = append(lmin[:bestU], lmin[bestU+1:]...)
		insertSorted(pmax, u)
		insertSorted(pmin, v)
	}
	if swaps > 0 {
		d.ordPerm, d.assign = perm, partOf
		d.m.swaps.Add(swaps)
		d.m.placements.Add(2 * swaps)
	}
	return swaps
}

// checkRepairPass holds the repair pass of the batch d just applied against
// swapRepairOracle run on pre, a clone of the state the pass started from:
// the same gate trip, the same swap count and, unless a rebuild replaced
// the placement after the pass, the same ordPerm, assign and partEdges.
func checkRepairPass(t *testing.T, d *Graph, sp *obs.Spans, pre *oracleGraph, res BatchResult) {
	t.Helper()
	// The gate the batch's maintenance read: no update has landed since.
	pre.th = d.EffectiveRebuildThreshold()
	tripped := core.Spread(pre.partEdges) > pre.th || core.Spread(pre.partVerts) > d.cfg.VertexRebuildThreshold
	if tripped != res.Repaired {
		t.Fatalf("batch repaired=%v, the oracle's state trips the gate: %v", res.Repaired, tripped)
	}
	if !tripped {
		return
	}
	var rep obs.Span
	for _, s := range sp.Snapshot() {
		if s.Name == "repair" {
			rep = s
		}
	}
	want := pre.swapRepairOracle()
	if got := rep.Attrs["swaps"]; got != want {
		t.Fatalf("repair pass made %d swaps, the oracle %d", got, want)
	}
	if res.Rebuilt {
		return
	}
	switch {
	case !slices.Equal(d.ordPerm, pre.ordPerm):
		t.Fatalf("repair pass permutation %v, the oracle's %v", d.ordPerm, pre.ordPerm)
	case !slices.Equal(d.assign, pre.assign):
		t.Fatalf("repair pass assignment %v, the oracle's %v", d.assign, pre.assign)
	case !slices.Equal(d.partEdges, pre.partEdges):
		t.Fatalf("repair pass partition loads %v, the oracle's %v", d.partEdges, pre.partEdges)
	}
}

// checkMembers holds the swap repair's member lists, when built, to the
// placement and the live degrees. Every list is in strictly ascending
// (degree, ID) order and holds only its partition's vertices, each at most
// once. A vertex that is not stale is listed, keyed by its live degree; a
// stale one has its bit set and one entry in its partition's stale list.
func checkMembers(t *testing.T, d *Graph) {
	t.Helper()
	if d.members == nil {
		return
	}
	listed := make(map[graph.VertexID]uint64)
	for q, l := range d.members {
		for k, key := range l {
			v := graph.VertexID(key)
			if k > 0 && l[k-1] >= key {
				t.Fatalf("member list %d is not in strictly ascending (degree, ID) order at %d", q, k)
			}
			if _, dup := listed[v]; dup || int(d.assign[v]) != q {
				t.Fatalf("member list %d holds vertex %d of partition %d (listed before: %v)", q, v, d.assign[v], dup)
			}
			listed[v] = key
		}
	}
	stale := make(map[graph.VertexID]bool)
	for q, st := range d.stale {
		for _, v := range st {
			if stale[v] || int(d.assign[v]) != q {
				t.Fatalf("stale list %d holds vertex %d of partition %d (stale before: %v)", q, v, d.assign[v], stale[v])
			}
			stale[v] = true
		}
	}
	for v := range graph.VertexID(d.n) {
		key, isListed := listed[v]
		switch bit := d.staleBits[v/64]&(1<<(v%64)) != 0; {
		case bit != stale[v]:
			t.Fatalf("vertex %d: stale bit %v, in a stale list %v", v, bit, stale[v])
		case !bit && (!isListed || int64(key>>32) != d.degIn[v]):
			t.Fatalf("vertex %d of degree %d, not stale: listed %v with key degree %d", v, d.degIn[v], isListed, key>>32)
		}
	}
}

// pinnedOrdering is a published Ordering with copies of its slices taken
// when it was published.
type pinnedOrdering struct {
	ord    *core.Result
	perm   []graph.VertexID
	partOf []uint32
}

// checkPinned holds every earlier published ordering against its copies,
// holds Stats against the span ring, and returns pins extended with the
// current ordering.
func checkPinned(t *testing.T, d *Graph, sp *obs.Spans, pins []pinnedOrdering) []pinnedOrdering {
	t.Helper()
	for k, pin := range pins {
		if !slices.Equal(pin.ord.Perm, pin.perm) || !slices.Equal(pin.ord.PartitionOf, pin.partOf) {
			t.Fatalf("ordering %d of %d was rewritten after it was published", k, len(pins))
		}
	}
	if sp.Dropped() != 0 {
		t.Fatalf("span ring dropped %d spans", sp.Dropped())
	}
	spans := map[string]int64{}
	for _, s := range sp.Snapshot() {
		spans[s.Name]++
	}
	st := d.Stats()
	if st.Repairs != spans["repair"] || st.FullRebuilds != spans["rebuild"] || st.Compactions != spans["compact"] {
		t.Fatalf("Stats counts %d repairs, %d rebuilds, %d compactions; spans %d, %d, %d",
			st.Repairs, st.FullRebuilds, st.Compactions, spans["repair"], spans["rebuild"], spans["compact"])
	}
	ord := d.Ordering()
	return append(pins, pinnedOrdering{ord, slices.Clone(ord.Perm), slices.Clone(ord.PartitionOf)})
}

// checkBalance recounts the tracked in-degrees from live and the
// per-partition counts from the placement, and checks that the ordering is
// an injection giving each partition the occupied prefix of one contiguous
// new-ID segment (the whole segment while the ordering is compact).
func checkBalance(t *testing.T, d *Graph, live []graph.Edge) {
	t.Helper()
	n, p := d.NumVertices(), d.Partitions()
	deg := make([]int64, n)
	for _, e := range live {
		deg[e.Dst]++
	}
	edges, verts := make([]int64, p), make([]int64, p)
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		if d.InDegree(id) != deg[v] {
			t.Fatalf("vertex %d tracked in-degree %d, recount %d", v, d.InDegree(id), deg[v])
		}
		q := d.PartitionOf(id)
		edges[q] += deg[v]
		verts[q]++
	}
	for q, c := range d.EdgeCounts() {
		if c != edges[q] {
			t.Fatalf("partition %d tracked %d edges, recount %d", q, c, edges[q])
		}
	}
	for q, c := range d.VertexCounts() {
		if c != verts[q] {
			t.Fatalf("partition %d tracked %d vertices, recount %d", q, c, verts[q])
		}
	}
	ord := d.Ordering()
	b := ord.Boundaries()
	seen := make([]bool, ord.Slots())
	for v, id := range ord.Perm {
		q := d.PartitionOf(graph.VertexID(v))
		if int64(id) >= ord.Slots() || seen[id] {
			t.Fatalf("Perm is not an injection: vertex %d → %d", v, id)
		}
		seen[id] = true
		if hi := b[q] + ord.VertexCounts[q]; ord.PartitionOf[v] != q || int64(id) < b[q] || int64(id) >= hi {
			t.Fatalf("vertex %d of partition %d (ordering says %d) has new ID %d outside segment [%d,%d)",
				v, q, ord.PartitionOf[v], id, b[q], hi)
		}
	}
}
