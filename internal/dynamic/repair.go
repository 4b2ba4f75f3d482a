package dynamic

import (
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
	if d.cfg.DisableAdaptiveThreshold {
		return t
	}
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

// resortSegment restores the degree-descending (ID-ascending on ties) order
// phase 3 establishes inside one partition's segment, advancing a
// round-robin cursor one partition per call. Swaps and rotations park a
// moved vertex at its partner's old position, so segments slowly lose the
// layout that gives dense traversal its locality; the re-sort is a
// segment-local permutation — exactly the shape the engine patch paths
// already handle, like any swap.
// Returns the re-sorted partition and how many of its vertices moved.
func (d *Graph) resortSegment() (q int, moves int64) {
	d.ensureOrdering()
	d.ensureMembers()
	q = d.resortNext % d.cfg.Partitions
	d.resortNext++
	l := d.members[q]
	if len(l) < 2 {
		return q, 0
	}
	byPos := append([]graph.VertexID(nil), l...)
	sort.Slice(byPos, func(i, j int) bool { return d.ordPerm[byPos[i]] < d.ordPerm[byPos[j]] })
	want := append([]graph.VertexID(nil), l...)
	sort.Slice(want, func(i, j int) bool {
		if d.degIn[want[i]] != d.degIn[want[j]] {
			return d.degIn[want[i]] > d.degIn[want[j]]
		}
		return want[i] < want[j]
	})
	var moved []graph.VertexID
	for i := range want {
		if want[i] != byPos[i] {
			moved = append(moved, want[i])
		}
	}
	if len(moved) == 0 {
		return q, 0
	}
	pos := make([]graph.VertexID, len(byPos))
	for i, v := range byPos {
		pos[i] = d.ordPerm[v]
	}
	perm := append([]graph.VertexID(nil), d.ordPerm...) // copy-on-write
	for i, v := range want {
		perm[v] = pos[i]
	}
	d.ordPerm = perm
	d.placeEpoch++
	d.ordPlace = d.placeEpoch
	d.stats.Resorts++
	d.stats.ResortedVertices += int64(len(moved))
	d.m.resorts.Inc()
	return q, int64(len(moved))
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

// rotScanK bounds the degree-indexed rotation search: per (receiver,donor)
// pair, at most this many valid intermediates are gain-evaluated (and at most
// 8× as many index slots scanned past skipped pmax/pmin residents). The
// candidates nearest deg(a) carry almost all the gain — anything further
// disturbs the intermediate partition more — so a short window finds the
// same rotations an exhaustive pmin×P sweep does in practice.
const rotScanK = 12

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
// The return reports the pass outcome: the exchange counts, and stalled —
// the pass ended with the gap still over threshold and neither an improving
// pair swap nor a positive-gain rotation left, the state that forces the
// caller's full-rebuild fallback.
func (d *Graph) swapRepair() (swaps, rots int64, stalled bool) {
	th := d.effEdgeThreshold()
	if core.Spread(d.partEdges) <= th {
		return 0, 0, false
	}
	d.ensureOrdering()
	d.ensureMembers()
	lists := d.members
	// Partition member lists are sorted by ascending live degree lazily, on
	// first use as a donor or receiver in this pass (degrees drift between
	// passes, so sortedness never carries over); a typical pass touches a
	// handful of partitions, not all P.
	sorted := make([]bool, d.cfg.Partitions)
	byDeg := func(l []graph.VertexID) func(i, j int) bool {
		return func(i, j int) bool {
			if d.degIn[l[i]] != d.degIn[l[j]] {
				return d.degIn[l[i]] < d.degIn[l[j]]
			}
			return l[i] < l[j]
		}
	}
	sortList := func(q int) {
		if !sorted[q] {
			sort.Slice(lists[q], byDeg(lists[q]))
			sorted[q] = true
		}
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
	// cow clones the shared cached permutation once per pass, so views
	// pinned to earlier epochs keep their numbering.
	cow := func() {
		if perm == nil {
			perm = append([]graph.VertexID(nil), d.ordPerm...)
			partOf = append([]uint32(nil), d.ordPartOf...)
		}
	}
	// rotIdx is the degree-indexed rotation candidate index: every vertex,
	// sorted by (live in-degree, ID). Degrees are fixed within a pass, so it
	// is built lazily on the first rotation attempt and shared by the rest of
	// the pass. It lets the search find intermediate vertices b with degree
	// near deg(a) — the choice that least disturbs b's partition — by binary
	// search plus a short two-sided scan, instead of probing every partition.
	var rotIdx []graph.VertexID
	ensureRotIdx := func() {
		if rotIdx != nil {
			return
		}
		rotIdx = make([]graph.VertexID, d.n)
		for v := range rotIdx {
			rotIdx[v] = graph.VertexID(v)
		}
		sort.Slice(rotIdx, func(i, j int) bool {
			if d.degIn[rotIdx[i]] != d.degIn[rotIdx[j]] {
				return d.degIn[rotIdx[i]] < d.degIn[rotIdx[j]]
			}
			return rotIdx[i] < rotIdx[j]
		})
	}
	// rotate attempts a three-way exchange when no improving pair swap
	// exists: a ∈ pmax moves to an intermediate partition q, b ∈ q moves to
	// pmin, and c ∈ pmin moves to pmax, the three exchanging new IDs
	// cyclically so all vertex counts and segment boundaries stay fixed.
	// Per-pair transfers that are individually too coarse (deg(a)−deg(c)
	// ∉ (0, gap) for every direct pair) can compose into a fine-grained
	// net flow through q. The rotation is accepted only if it strictly
	// decreases the sum of squared loads of the three partitions, which
	// bounds the repair loop the same way pair swaps do.
	rotate := func(pmax, pmin int, gap int64) bool {
		d.stats.RotationAttempts++
		d.m.rotAttempts.Inc()
		lmax, lmin := lists[pmax], lists[pmin]
		bestQ, bestA, bestB, bestC := -1, -1, -1, -1
		var bestGain int64
		// Gain of moving loads x→x+t is −(2xt+t²) summed over the three
		// partitions; positive gain = smaller Σ load².
		gainOf := func(load, t int64) int64 { return -(2*load*t + t*t) }
		// Indexed search: for each receiver c, take the donors a bracketing
		// the ideal transfer (as the pair search does) and probe the degree
		// index around deg(a) for intermediates b, nearest degree first.
		ensureRotIdx()
		posInList := func(q int, b graph.VertexID) int {
			sortList(q)
			l := lists[q]
			return sort.Search(len(l), func(i int) bool {
				if d.degIn[l[i]] != d.degIn[b] {
					return d.degIn[l[i]] > d.degIn[b]
				}
				return l[i] >= b
			})
		}
		probe := func(aj, ci int) {
			da, dc := d.degIn[lmax[aj]], d.degIn[lmin[ci]]
			i0 := sort.Search(len(rotIdx), func(i int) bool { return d.degIn[rotIdx[i]] >= da })
			taken, scanned := 0, 0
			for lo, hi := i0-1, i0; taken < rotScanK && scanned < 8*rotScanK && (lo >= 0 || hi < len(rotIdx)); {
				var b graph.VertexID
				// Expand toward whichever side's next candidate is nearer
				// in degree.
				switch {
				case lo < 0:
					b = rotIdx[hi]
					hi++
				case hi >= len(rotIdx):
					b = rotIdx[lo]
					lo--
				case da-d.degIn[rotIdx[lo]] <= d.degIn[rotIdx[hi]]-da:
					b = rotIdx[lo]
					lo--
				default:
					b = rotIdx[hi]
					hi++
				}
				scanned++
				q := int(d.assign[b])
				if q == pmax || q == pmin {
					continue
				}
				bj, db := posInList(q, b), d.degIn[b]
				gain := gainOf(d.partEdges[pmax], dc-da) +
					gainOf(d.partEdges[q], da-db) +
					gainOf(d.partEdges[pmin], db-dc)
				if gain > bestGain {
					bestQ, bestA, bestB, bestC, bestGain = q, aj, bj, ci, gain
				}
				taken++
			}
		}
		for ci, c := range lmin {
			target := d.degIn[c] + (gap+1)/2
			ai := sort.Search(len(lmax), func(i int) bool { return d.degIn[lmax[i]] >= target })
			for _, aj := range [2]int{ai - 1, ai} {
				if aj < 0 || aj >= len(lmax) {
					continue
				}
				probe(aj, ci)
			}
		}
		if bestQ < 0 {
			d.stats.RotationStalls++
			d.m.rotStalls.Inc()
			return false
		}
		q := bestQ
		a, b, c := lists[pmax][bestA], lists[q][bestB], lists[pmin][bestC]
		cow()
		da, db, dc := d.degIn[a], d.degIn[b], d.degIn[c]
		d.assign[a], d.assign[b], d.assign[c] = uint32(q), uint32(pmin), uint32(pmax)
		partOf[a], partOf[b], partOf[c] = uint32(q), uint32(pmin), uint32(pmax)
		d.partEdges[pmax] += dc - da
		d.partEdges[q] += da - db
		d.partEdges[pmin] += db - dc
		// a takes b's position, b takes c's, c takes a's.
		perm[a], perm[b], perm[c] = perm[b], perm[c], perm[a]
		rots++
		lists[pmax] = append(lists[pmax][:bestA], lists[pmax][bestA+1:]...)
		lists[q] = append(lists[q][:bestB], lists[q][bestB+1:]...)
		lists[pmin] = append(lists[pmin][:bestC], lists[pmin][bestC+1:]...)
		insertSorted(q, a)
		insertSorted(pmin, b)
		insertSorted(pmax, c)
		return true
	}
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
			// No improving pair exchange exists; try a three-way rotation
			// through an intermediate partition before giving up (the
			// caller falls back to a full rebuild).
			if !rotate(pmax, pmin, gap) {
				stalled = true
				break
			}
			continue
		}
		v, u := lmax[bestV], lmin[bestU]
		cow()
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
	if swaps > 0 || rots > 0 {
		d.ordPerm, d.ordPartOf = perm, partOf
		d.placeEpoch++
		d.ordPlace = d.placeEpoch
		d.stats.Swaps += swaps
		d.stats.Rotations += rots
		d.stats.Placements += 2*swaps + 3*rots
		d.stats.RepairedVertices += 2*swaps + 3*rots
		d.m.swaps.Add(swaps)
		d.m.rotations.Add(rots)
	}
	d.stats.Repairs++
	return swaps, rots, stalled
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
