package dynamic

import (
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// overThreshold reports whether either tracked imbalance exceeds its
// maintenance threshold.
func (d *Graph) overThreshold() bool {
	return d.EdgeImbalance() > d.effEdgeThreshold() ||
		d.VertexImbalance() > d.cfg.VertexRebuildThreshold
}

// adaptCap bounds the degree histogram used for the granularity quantile;
// a granularity estimate above it is clamped (the threshold is then 2×cap,
// which only an extremely dense uniform-degree graph reaches).
const adaptCap = 1024

// effEdgeThreshold returns the Δ(n) gate currently in force, refreshing the
// cached granularity estimate when enough updates have landed since the
// last computation (the degree distribution drifts slowly, and the O(n)
// quantile should not be paid per batch).
func (d *Graph) effEdgeThreshold() int64 {
	t := d.cfg.RebuildThreshold
	if d.adaptNext == 0 || d.updates() >= d.adaptNext {
		d.refreshGranularity()
	}
	if a := 2 * d.adaptGran; a > t {
		t = a
	}
	return t
}

// refreshGranularity recomputes the repair granularity: the 10th percentile
// of the nonzero live in-degrees. Power-law graphs keep it at 1 (degree-1
// vertices are abundant, so repairs can fine-tune the balance in steps of
// 1); near-uniform-degree graphs (usaroad sits at 4) push it to the common
// degree, the smallest imbalance a whole-vertex move can express.
func (d *Graph) refreshGranularity() {
	hist := make([]int64, adaptCap+1)
	var nonzero int64
	for _, deg := range d.degIn {
		if deg <= 0 {
			continue
		}
		nonzero++
		if deg > adaptCap {
			deg = adaptCap
		}
		hist[deg]++
	}
	d.adaptGran = 0
	if nonzero > 0 {
		tenth := (nonzero + 9) / 10
		var cum int64
		for b := int64(1); b <= adaptCap; b++ {
			cum += hist[b]
			if cum >= tenth {
				d.adaptGran = b
				break
			}
		}
	}
	step := int64(d.n) / 2
	if step < 4096 {
		step = 4096
	}
	d.adaptNext = d.updates() + step
}

// ensureMembers (re)builds the per-partition member lists when stale, with
// every vertex stale: each list is sorted on its first read by a pass.
func (d *Graph) ensureMembers() {
	if d.members != nil {
		return
	}
	d.members = make([][]uint64, d.cfg.Partitions)
	d.stale = make([][]graph.VertexID, d.cfg.Partitions)
	d.staleBits = make([]uint64, (d.n+63)/64)
	for v := range graph.VertexID(d.n) {
		d.markStale(v)
	}
}

// markStale records that v's member key is out of date — its degree
// changed, or Grow just admitted it — unless the member lists are stale as
// a whole. O(1); fixList re-places v when a pass next reads its list.
func (d *Graph) markStale(v graph.VertexID) {
	if d.members == nil {
		return
	}
	w, bit := int(v/64), uint64(1)<<(v%64)
	for w >= len(d.staleBits) {
		d.staleBits = append(d.staleBits, 0) // Grow admits IDs in order
	}
	if d.staleBits[w]&bit != 0 {
		return
	}
	d.staleBits[w] |= bit
	q := d.assign[v]
	d.stale[q] = append(d.stale[q], v)
}

// fixList re-places partition q's stale members, so the list is in
// (degree, ID) order again: one pass drops their old keys, their current
// keys are sorted, and one backward merge puts them in place. For k stale
// members that is O(|list| + k log k), in place.
func (d *Graph) fixList(q int) {
	st := d.stale[q]
	if len(st) == 0 {
		return
	}
	kept := d.members[q][:0]
	for _, key := range d.members[q] {
		if v := uint32(key); d.staleBits[v/64]&(1<<(v%64)) == 0 {
			kept = append(kept, key)
		}
	}
	fresh := d.keyBuf[:0]
	for _, v := range st {
		d.staleBits[v/64] &^= 1 << (v % 64)
		fresh = append(fresh, uint64(d.degIn[v])<<32|uint64(v))
	}
	slices.Sort(fresh)
	// Merge from the back, so each kept key moves once.
	i, j := len(kept)-1, len(fresh)-1
	l := slices.Grow(kept, len(fresh))[:len(kept)+len(fresh)]
	for w := len(l) - 1; j >= 0; w-- {
		if i >= 0 && l[i] > fresh[j] {
			l[w], i = l[i], i-1
		} else {
			l[w], j = fresh[j], j-1
		}
	}
	d.members[q], d.stale[q], d.keyBuf = l, st[:0], fresh
}

// swapRepair pulls Δ(n) back under the effective threshold without moving
// the partition segment boundaries: each step exchanges a vertex v of the
// most-loaded partition with a lower-degree vertex u of the least-loaded
// one, transferring deg(v)−deg(u) edges while both vertex counts stay
// fixed. The pair is chosen to maximize the edge-balance gain (transfer
// closest to half the gap), breaking ties toward the lowest-degree u (then
// the lowest ID). The two vertices exchange new IDs, so the ordering
// permutation changes at exactly the swapped positions — a segment-local
// permutation the view layer can patch engines across (movedBetween). The
// shared permutation and assignment are never mutated: a repair pass that
// swaps clones them once (copy-on-write) so views pinned to earlier epochs
// keep their numbering.
//
// The member lists stay in (degree, ID) order across passes; a pass
// re-places only the stale members of the lists it reads (fixList), and
// each step moves the two swapped keys to their sorted places in the other
// list. The pair search (bestPair) visits each degree class of the
// receiving list at most once.
//
// The pass ends when the gap is under threshold or no improving pair is
// left; the caller then falls back to a full rebuild if Δ(n) is still over
// its gate. Returns the number of swaps and of receiver degree classes the
// pair searches examined.
func (d *Graph) swapRepair() (swaps, scanned int64) {
	th := d.effEdgeThreshold()
	if core.Spread(d.partEdges) <= th {
		return 0, 0
	}
	d.ensureMembers()
	lists := d.members
	var perm []graph.VertexID
	var partOf []uint32
	for iter := 0; iter < d.n; iter++ {
		pmax := argMin2Neg(d.partEdges)
		pmin := argMin2(d.partEdges, d.partVerts)
		gap := d.partEdges[pmax] - d.partEdges[pmin]
		if gap <= th {
			break
		}
		d.fixList(pmax)
		d.fixList(pmin)
		bestV, bestU, classes := bestPair(lists[pmax], lists[pmin], gap)
		scanned += classes
		if bestV < 0 {
			// No improving pair exchange exists.
			break
		}
		kv, ku := lists[pmax][bestV], lists[pmin][bestU]
		v, u := graph.VertexID(kv), graph.VertexID(ku)
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
		replaceKey(lists[pmax], bestV, ku)
		replaceKey(lists[pmin], bestU, kv)
	}
	if swaps > 0 {
		d.ordPerm, d.assign = perm, partOf
		d.m.swaps.Add(swaps)
		d.m.placements.Add(2 * swaps)
	}
	return swaps, scanned
}

// bestPair finds the exchange of a donor lmax[bestV] for a receiver
// lmin[bestU], both lists of (degree, ID) keys in ascending order, whose
// transfer t = deg(v) − deg(u) minimizes |gap − 2t| over 0 < t < gap, ties
// to the earlier receiver, then to the lower donor; bestV is -1 when no
// transfer qualifies. Any such transfer strictly shrinks the pair's
// imbalance and the sum of squared loads, so the pass terminates. It also returns the receiver degree classes it
// examined. Every receiver of one degree sees the same donors, so only the
// first of each class can win a strict comparison, and for it the two
// donors bracketing the ideal degree deg(u) + ⌈gap/2⌉ suffice; the bracket
// only moves right as the receiver's degree grows, so one monotone sweep of
// both lists finds the pair.
func bestPair(lmax, lmin []uint64, gap int64) (bestV, bestU int, classes int64) {
	bestV, bestU = -1, -1
	var bestScore int64
	i := 0
	for a := 0; a < len(lmin); {
		du := int64(lmin[a] >> 32)
		classes++
		off, _ := slices.BinarySearch(lmax[i:], degKey(du+(gap+1)/2))
		i += off
		for _, j := range [2]int{i - 1, i} {
			if j < 0 || j >= len(lmax) {
				continue
			}
			t := int64(lmax[j]>>32) - du
			if t <= 0 || t >= gap {
				continue
			}
			score := gap - 2*t
			if score < 0 {
				score = -score
			}
			if bestV < 0 || score < bestScore {
				bestV, bestU, bestScore = j, a, score
			}
		}
		if bestV >= 0 && bestScore == gap&1 {
			// |gap − 2t| has gap's parity: nothing later can beat this.
			break
		}
		off, _ = slices.BinarySearch(lmin[a:], degKey(du+1))
		a += off
	}
	return bestV, bestU, classes
}

// degKey is the smallest member key of degree deg: keys of lower degrees
// sort before it, keys of deg or more at or after it.
func degKey(deg int64) uint64 {
	if deg > math.MaxUint32 {
		return math.MaxUint64
	}
	return uint64(deg) << 32
}

// replaceKey replaces l[i] with key, keeping the sorted list l sorted, by
// shifting the entries between the two positions one step toward i.
func replaceKey(l []uint64, i int, key uint64) {
	if key > l[i] {
		p, _ := slices.BinarySearch(l[i+1:], key)
		copy(l[i:i+p], l[i+1:i+1+p])
		l[i+p] = key
		return
	}
	p, _ := slices.BinarySearch(l[:i], key)
	copy(l[p+1:i+1], l[p:i])
	l[p] = key
}

// argMin2Neg returns the index of the maximum value (lowest index wins ties).
func argMin2Neg(xs []int64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// rebuild runs the full Algorithm 2 over the live degree array and starts a
// new numbering lineage. The result's compact Perm is dropped: number
// renumbers the placement, slotted if the vertex space has grown.
func (d *Graph) rebuild() {
	r, err := core.ReorderDegrees(d.degIn, d.cfg.Partitions, core.Options{})
	if err != nil {
		// Unreachable: the config validated P at New time.
		panic(err)
	}
	d.assign, d.partEdges, d.partVerts = r.PartitionOf, r.EdgeCounts, r.VertexCounts
	d.m.placements.Add(int64(d.n))
	d.renumEpoch++
	d.number(d.slotBase != nil)
	// The swap repair's member lists no longer match the assignment.
	d.members, d.stale, d.staleBits = nil, nil, nil
}

// Rebuild forces a full reorder regardless of the thresholds. It runs
// outside any batch, so its "rebuild" span has no parent.
func (d *Graph) Rebuild() {
	bstart := time.Now()
	d.rebuild()
	d.m.rebuildForced.Inc()
	d.m.rebuildNS.ObserveSince(bstart)
	d.sp.Record(obs.Span{
		Name: "rebuild", Kind: "maintain",
		Cause: "forced", Epoch: d.epoch, Start: bstart, Dur: time.Since(bstart),
		Attrs: map[string]int64{"placements": int64(d.n)},
	})
	d.syncGauges()
}

// argMin2 returns the index minimizing primary, breaking ties by secondary.
func argMin2(primary, secondary []int64) int {
	best := 0
	for i := 1; i < len(primary); i++ {
		if primary[i] < primary[best] ||
			(primary[i] == primary[best] && secondary[i] < secondary[best]) {
			best = i
		}
	}
	return best
}
