package dynamic

import (
	"slices"
	"sort"
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
	if d.adaptNext == 0 || d.stats.Updates >= d.adaptNext {
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
	d.adaptNext = d.stats.Updates + step
}

// ensureMembers (re)builds the per-partition member lists when stale.
func (d *Graph) ensureMembers() {
	if d.members != nil {
		return
	}
	d.members = make([][]graph.VertexID, d.cfg.Partitions)
	for v := 0; v < d.n; v++ {
		q := d.assign[v]
		d.members[q] = append(d.members[q], graph.VertexID(v))
	}
}

// swapRepair pulls Δ(n) back under the effective threshold without moving
// the partition segment boundaries: each step exchanges a vertex v of the
// most-loaded partition with a lower-degree vertex u of the least-loaded
// one, transferring deg(v)−deg(u) edges while both vertex counts stay
// fixed. The pair is chosen to maximize the edge-balance gain (transfer
// closest to half the gap), breaking ties toward the lowest-degree u. The
// two vertices exchange new IDs, so the ordering permutation changes at
// exactly the swapped positions — a segment-local permutation the view
// layer can patch engines across (ViewDelta.Moved). The shared cached
// permutation is never mutated: a repair pass that swaps clones it once
// (copy-on-write) so views pinned to earlier epochs keep their numbering.
//
// The pass ends when the gap is under threshold or no improving pair is
// left; the caller then falls back to a full rebuild if Δ(n) is still over
// its gate. Returns the number of swaps.
func (d *Graph) swapRepair() (swaps int64) {
	th := d.effEdgeThreshold()
	if core.Spread(d.partEdges) <= th {
		return 0
	}
	d.ensureOrdering()
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
			// Clone the shared cached permutation once per pass, so views
			// pinned to earlier epochs keep their numbering.
			perm = append([]graph.VertexID(nil), d.ordPerm...)
			partOf = append([]uint32(nil), d.ordPartOf...)
		}
		dv, du := d.degIn[v], d.degIn[u]
		d.assign[v], d.assign[u] = uint32(pmin), uint32(pmax)
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
		d.ordPerm, d.ordPartOf = perm, partOf
		d.placeEpoch++
		d.ordPlace = d.placeEpoch
		d.stats.Swaps += swaps
		d.stats.Placements += 2 * swaps
		d.stats.RepairedVertices += 2 * swaps
		d.m.swaps.Add(swaps)
	}
	d.stats.Repairs++
	return swaps
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

// rebuild runs the full Algorithm 2 over the live degree array.
func (d *Graph) rebuild() {
	r, err := core.ReorderDegrees(d.degIn, d.cfg.Partitions, core.Options{})
	if err != nil {
		// Unreachable: the config validated P at New time.
		panic(err)
	}
	copy(d.assign, r.PartitionOf)
	copy(d.partEdges, r.EdgeCounts)
	copy(d.partVerts, r.VertexCounts)
	d.stats.FullRebuilds++
	d.stats.Placements += int64(d.n)
	d.placementChanged()
}

// placementChanged invalidates everything keyed to the placement: the cached
// permutation and the patchability of engine-side structures. Swap repairs
// do NOT go through here — they maintain the permutation copy-on-write,
// keeping the numbering lineage (renumEpoch) intact.
func (d *Graph) placementChanged() {
	d.placeEpoch++
	d.renumEpoch++
	// The swap repair's member lists no longer match the assignment.
	d.members = nil
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
