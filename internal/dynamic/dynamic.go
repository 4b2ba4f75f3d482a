// Package dynamic keeps a graph and its VEBO ordering live under a stream of
// edge insertions and deletions, so that engines never pay a full
// O(n log P) reorder plus O(m) CSR/CSC rebuild per update batch.
//
// The design has four parts:
//
//   - Delta-log storage. The last compacted graph.Graph is kept immutable;
//     inserted edges accumulate in an append-only log and deletions in a
//     cancellation multiset keyed by (src,dst,weight). Snapshot materializes
//     the surviving edge set into a fresh CSR/CSC graph on demand (cached per
//     mutation epoch) and Compact promotes that snapshot to the new base.
//     Freeze captures the same state immutably so concurrent readers can
//     materialize a snapshot without touching the live structures.
//
//   - Incremental balance accounting. Per-partition in-edge counts (the
//     paper's w[p]) and vertex counts (u[p]) are updated in O(1) per edge
//     update, so the tracked edge imbalance Δ(n) and vertex imbalance δ(n)
//     are always available without touching the graph.
//
//   - Incremental ordering maintenance, gated on the imbalances. The gate
//     (Δ(n) over the effective rebuild threshold, which scales with the
//     graph's degree granularity unless disabled) triggers a repair whose
//     strategy is the configured RepairMode. The default, RepairPreserve,
//     fixes the edge balance with vertex swaps: a vertex of the most-loaded
//     partition trades places — partition AND new ID — with a lower-degree
//     vertex of the least-loaded one, so per-partition vertex counts, the
//     segment boundaries of the ordering, and the new IDs of every unmoved
//     vertex are all invariant. When no improving pair exists, a three-way
//     rotation through an intermediate partition is tried before giving up.
//     The legacy RepairReplace re-runs the paper's Algorithm 2 greedy
//     placement over the vertices whose in-degree class changed
//     (O(k log k + kP) for k dirty vertices), followed by a vertex-balance
//     pass; it reaches slightly tighter balance but renumbers the whole
//     ordering. Either way, if the repair cannot pull the imbalances back
//     under their thresholds the subsystem falls back to a full
//     core.ReorderDegrees rebuild. A background re-sort additionally
//     restores the degree-descending order inside one partition segment
//     after each batch whose repairs or admissions disturbed it.
//
//   - A growable vertex space. Grow (and AutoGrow, for dense-ID streams;
//     see Allocator for sparse external IDs) admits zero-degree vertices to
//     the least-vertex partitions, filling reserved headroom slots at each
//     partition segment's tail: internal IDs are append-only, the cached
//     ordering is extended in place (the first admission in a lineage
//     converts it to slotted form with amortized per-segment headroom), and
//     the numbering lineage (RenumEpoch) is preserved with an identity
//     injection on the pre-existing vertices, so engine-side patching
//     across growth epochs is O(delta). Exhausted headroom spills to a
//     relabeling epoch that reserves fresh slots everywhere.
//
//   - View-delta tracking. Between drains (one per published facade view)
//     the subsystem records the net resolved edge changes, the set of
//     vertices repositioned by placement-preserving swaps, rotations and
//     re-sorts (Moved), the per-partition admission counts (Grown), and
//     whether the whole numbering was invalidated (PlacementChanged). The
//     facade derives the exact set of dirty partitions from the delta's
//     destination endpoints plus the moved and admitted positions, builds
//     the segment-local injection from the two epochs' orderings, and
//     patches engine-side structures for unchanged partitions instead of
//     rebuilding them (see the vebo.View API).
//
// See DESIGN.md §5 for how this subsystem fits the rest of the system.
package dynamic

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// RepairMode selects how threshold-gated maintenance restores balance.
type RepairMode int

const (
	// RepairPreserve (the default) repairs the edge balance with vertex
	// swaps that keep per-partition vertex counts — and therefore the
	// partition segment boundaries of the ordering — fixed. Only the swapped
	// vertices change new IDs (a segment-local permutation), so engine-side
	// structures of untouched partitions stay patchable across repair
	// epochs. δ(n) cannot drift in this mode: every move is a 1-for-1
	// exchange.
	RepairPreserve RepairMode = iota
	// RepairReplace is the legacy mode: Algorithm 2's greedy placement
	// re-runs over the dirty vertices, followed by a vertex-balance pass.
	// It converges to slightly better Δ(n) on hostile streams but moves
	// vertices across partitions freely, renumbering the whole ordering and
	// invalidating every cached engine.
	RepairReplace
)

// Config tunes a dynamic graph. The zero value selects the defaults below.
type Config struct {
	// Partitions is the VEBO partition count P (default 64).
	Partitions int
	// RebuildThreshold is the Δ(n) value above which maintenance runs: first
	// the incremental repair (swap-based by default, see RepairMode), then —
	// if an imbalance is still above its threshold — a full reorder.
	// Default 2, the paper's power-law bound (Theorem 1 gives Δ ≤ 1; one
	// in-flight batch may add one more). Unless DisableAdaptiveThreshold is
	// set, the effective threshold additionally scales with the graph's
	// degree spread: see EffectiveRebuildThreshold.
	RebuildThreshold int64
	// VertexRebuildThreshold is the δ(n) value above which maintenance runs.
	// Replace-mode repair placement balances edges first, so δ(n) drifts
	// under edge-only gating (to ~35 on the 100k-update powerlaw stream);
	// gating on δ(n) too bounds it. Default 4 (2× Theorem 2's δ ≤ ~1 static
	// bound, with slack for in-flight batches). In RepairPreserve mode δ(n)
	// is frozen at its initial value, so this gate never fires between full
	// rebuilds.
	VertexRebuildThreshold int64
	// CompactEvery bounds the delta log: once the number of pending
	// insertions plus pending deletions reaches it, ApplyBatch compacts the
	// log into a fresh base graph. 0 selects an adaptive bound,
	// max(8192, liveEdges/8): compaction costs O(m), so a fixed small bound
	// would pay it every few batches on large graphs.
	CompactEvery int
	// Repair selects the maintenance strategy (default RepairPreserve).
	Repair RepairMode
	// DisableAdaptiveThreshold pins the Δ(n) gate to RebuildThreshold
	// exactly instead of scaling it with the degree spread. Repairs move
	// whole vertices, so the achievable Δ(n) is bounded below by the
	// in-degrees of the vertices available to move: on near-uniform-degree
	// graphs (usaroad) a fixed threshold below that granularity forces a
	// futile full rebuild every batch. Exists for the adaptivity ablation.
	DisableAdaptiveThreshold bool
	// AutoGrow admits vertices on demand: an insertion whose endpoint is at
	// or beyond the current vertex count grows the vertex space (via Grow)
	// up to that endpoint instead of failing the batch. Internal IDs are
	// dense, so callers feeding sparse external IDs should map them through
	// an Allocator first; deletions never grow.
	AutoGrow bool
	// DisableSegmentResort turns off the background segment re-sort that
	// restores degree-descending order inside one partition segment after
	// batches whose repairs or admissions disturbed it (RepairPreserve
	// only). Exists for the locality-decay ablation.
	DisableSegmentResort bool
	// MinHeadroom is the minimum number of reserved admission slots per
	// partition segment in a slotted ordering (default 4). Once the vertex
	// space starts growing, every full ordering sort reserves
	// max(MinHeadroom, HeadroomFrac·occupied) free slots at each segment's
	// tail so admissions land in pre-allocated positions instead of
	// shifting later segments; see Grow.
	MinHeadroom int64
	// HeadroomFrac is the fraction of a segment's occupied length reserved
	// as admission headroom on top of MinHeadroom's floor (default 0.125,
	// vector-doubling-style amortization: the reservation cost is paid once
	// per relabeling epoch and covers proportionally many admissions).
	// Negative disables the proportional term, leaving MinHeadroom alone —
	// the knob spill tests use to force headroom exhaustion quickly.
	HeadroomFrac float64
	// Metrics, when set, receives the subsystem's counters, gauges and
	// latency histograms (the vebo_* series; see DESIGN.md §6). Nil disables
	// metric collection at zero cost: the handles degrade to no-ops.
	Metrics *obs.Registry
	// Spans, when set, receives one causal span per lifecycle step, with
	// its cause and wall-clock duration alongside the modeled work counts:
	// each batch opens an "ingest" span, maintenance work (repair, rebuild,
	// grow, spill, resort, compact) files child spans of the batch that
	// triggered it, and the facade layer parents publish and query spans
	// onto the batch chain (LastBatchSpan). Nil disables span collection.
	Spans *obs.Spans
}

// DefaultPartitions is the default VEBO partition count for dynamic graphs,
// deliberately smaller than GraphGrind's 384: a live system repartitions
// continuously, and the repair cost scales with P.
const DefaultPartitions = 64

// DefaultVertexThreshold is the default δ(n) maintenance threshold.
const DefaultVertexThreshold = 4

// DefaultMinHeadroom and DefaultHeadroomFrac are the default per-segment
// admission headroom parameters; see Config.MinHeadroom.
const (
	DefaultMinHeadroom  = 4
	DefaultHeadroomFrac = 0.125
)

func (c Config) withDefaults() Config {
	if c.Partitions == 0 {
		c.Partitions = DefaultPartitions
	}
	if c.RebuildThreshold == 0 {
		c.RebuildThreshold = 2
	}
	if c.VertexRebuildThreshold == 0 {
		c.VertexRebuildThreshold = DefaultVertexThreshold
	}
	if c.MinHeadroom == 0 {
		c.MinHeadroom = DefaultMinHeadroom
	}
	if c.HeadroomFrac == 0 {
		c.HeadroomFrac = DefaultHeadroomFrac
	}
	return c
}

// headroom returns the number of reserved tail slots for a segment holding
// occ vertices: max(MinHeadroom, HeadroomFrac·occ).
func (c Config) headroom(occ int64) int64 {
	h := int64(float64(occ) * c.HeadroomFrac)
	if h < c.MinHeadroom {
		h = c.MinHeadroom
	}
	return h
}

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

// Stats counts the work the subsystem has done, in units comparable with a
// full reorder (one placement = one arg-min probe + assignment, the unit
// Algorithm 2 performs n of).
type Stats struct {
	// Updates is the number of edge updates applied (inserts + deletes).
	Updates int64
	// Inserts and Deletes split Updates.
	Inserts, Deletes int64
	// Placements is the total number of greedy vertex placements performed,
	// including the initial full ordering and any full rebuilds. A swap
	// counts as two placements (both ends are re-placed).
	Placements int64
	// Repairs is the number of incremental repair passes (swap-based or
	// dirty-vertex, per the configured RepairMode).
	Repairs int64
	// RepairedVertices is the number of placements done by repairs alone.
	RepairedVertices int64
	// Swaps is the number of placement-preserving vertex pair exchanges
	// performed by RepairPreserve passes.
	Swaps int64
	// Rotations is the number of three-way placement-preserving exchanges
	// performed when no improving pair swap existed.
	Rotations int64
	// RotationAttempts counts rotation searches started (one per repair step
	// that found no improving pair swap); RotationFallbacks counts the ones
	// where the degree-indexed candidate scan found no positive-gain rotation
	// and the exhaustive sweep ran; RotationStalls counts the ones where even
	// the exhaustive sweep found nothing — the step that forces the caller's
	// full-rebuild fallback.
	RotationAttempts  int64
	RotationFallbacks int64
	RotationStalls    int64
	// Admitted is the number of vertices added to the graph after
	// construction (Grow and AutoGrow admissions).
	Admitted int64
	// HeadroomSpills is the number of times an admission found every
	// partition's reserved headroom exhausted and forced a relabeling epoch
	// (which reserves fresh headroom everywhere); see Grow.
	HeadroomSpills int64
	// Resorts is the number of background segment re-sort passes that moved
	// at least one vertex; ResortedVertices counts the moved vertices.
	Resorts          int64
	ResortedVertices int64
	// VertexMoves is the number of single-vertex moves performed by the
	// δ(n) vertex-balance repair.
	VertexMoves int64
	// FullRebuilds is the number of full Algorithm 2 re-runs (not counting
	// the initial ordering).
	FullRebuilds int64
	// Compactions is the number of delta-log compactions.
	Compactions int64
}

// BatchResult reports what one ApplyBatch call did.
type BatchResult struct {
	Applied int
	// Admitted is the number of vertices auto-admitted by this batch.
	Admitted        int
	Repaired        bool
	Rebuilt         bool
	Compacted       bool
	EdgeImbalance   int64
	VertexImbalance int64
}

type edgeKey uint64

func keyOf(s, d graph.VertexID) edgeKey { return edgeKey(s)<<32 | edgeKey(d) }

// wkey addresses one (src,dst,weight) edge class; weights are stored
// normalized (1 on unweighted graphs and for zero input weights).
type wkey struct {
	k edgeKey
	w int32
}

// Graph is a mutable graph with an incrementally maintained VEBO ordering.
// Mutation is single-writer: callers serialize ApplyBatch/Compact/Rebuild.
// Concurrent readers use Freeze (or the facade's View API), or keep an old
// immutable Snapshot.
type Graph struct {
	cfg      Config
	n        int
	weighted bool

	// base is the last compacted immutable graph; pendingAdd and the
	// cancellation counts below are the delta log on top of it.
	base       *graph.Graph
	pendingAdd []graph.Edge
	// addAlive[k] holds the weights of the surviving pending insertions of
	// pair k in insertion order (top = most recent). Its length is the
	// surviving pending multiplicity of the pair.
	addAlive map[edgeKey][]int32
	// delBase[{k,w}] counts pending deletions cancelling base occurrences of
	// (k, weight w), earliest-in-CSR-order first; delPair[k] is the per-pair
	// total of those counts.
	delBase     map[wkey]int64
	delPair     map[edgeKey]int64
	pendingDels int64
	liveEdges   int64

	// Live per-vertex in-degrees and the current placement.
	degIn  []int64
	assign []uint32
	// partEdges[p] and partVerts[p] are the paper's w[p] and u[p],
	// maintained incrementally.
	partEdges []int64
	partVerts []int64
	// dirty holds the vertices whose in-degree class changed since they were
	// last placed.
	dirty map[graph.VertexID]struct{}

	stats Stats

	// epoch increments on every mutation; snapCache is valid for snapEpoch.
	epoch     int64
	snapCache *graph.Graph
	snapEpoch int64

	// placeEpoch increments whenever any vertex changes partition (repair or
	// rebuild). renumEpoch increments only when the whole numbering is
	// invalidated (full rebuild or a replace-mode repair): swap repairs bump
	// placeEpoch but not renumEpoch, because they permute IDs only inside
	// the affected partitions' segments and the rest of the numbering
	// survives. The cached permutation is stable across epochs that only
	// change degrees and is maintained copy-on-write across swap repairs,
	// which is what makes engine-side patching possible.
	placeEpoch int64
	renumEpoch int64
	ordPerm    []graph.VertexID
	ordPartOf  []uint32
	ordPlace   int64

	// segCap[q] is partition q's slot capacity in the cached slotted
	// ordering — the occupied prefix plus reserved admission headroom — and
	// slotBase (len P+1) its cumulative boundaries: partition q owns new
	// IDs [slotBase[q], slotBase[q+1]), of which [slotBase[q],
	// slotBase[q]+partVerts[q]) are occupied. Both are nil while the
	// ordering is compact. growing flips on the first Grow and stays set:
	// from then on every full ordering sort reserves headroom, so workloads
	// that never grow keep exact compact permutations.
	segCap   []int64
	slotBase []int64
	growing  bool

	// adaptGran caches the repair granularity estimate (a low quantile of
	// the nonzero in-degrees); adaptNext is the Updates count at which it is
	// recomputed.
	adaptGran int64
	adaptNext int64

	// members holds the per-partition member lists the swap repair picks
	// exchange pairs from, maintained incrementally across repair passes
	// (swaps move entries between lists in place); nil when stale — any
	// placement change outside the swap path invalidates it. Avoids an
	// O(n) re-bucketing per pass in the serving regime, where repairs fire
	// almost every batch.
	members [][]graph.VertexID

	// resortNext is the round-robin cursor of the background segment
	// re-sort.
	resortNext int

	// View-delta accumulators, drained by DrainViewDelta.
	viewNet   map[graph.Edge]int64
	viewMoved map[graph.VertexID]struct{}
	viewGrow  []int64
	viewPlace bool

	// m holds the metric handles (no-ops when Config.Metrics is nil — the
	// struct is always populated so call sites never nil-check).
	m dynMetrics

	// sp collects causal spans (nil-tolerant); curBatch is the in-flight
	// batch span maintenance steps parent onto, lastBatch the context of the
	// most recently finished one — the causal anchor the facade's publish
	// span links to. Both are writer-side state like everything above.
	sp        *obs.Spans
	curBatch  *obs.ActiveSpan
	lastBatch obs.SpanContext
}

// New wraps g in a dynamic graph, computing the initial VEBO ordering.
func New(g *graph.Graph, cfg Config) (*Graph, error) {
	if cfg.Repair != RepairPreserve && cfg.Repair != RepairReplace {
		return nil, fmt.Errorf("dynamic: unknown repair mode %d", cfg.Repair)
	}
	cfg = cfg.withDefaults()
	r, err := core.Reorder(g, cfg.Partitions, core.Options{})
	if err != nil {
		return nil, err
	}
	d := &Graph{
		cfg:       cfg,
		n:         g.NumVertices(),
		weighted:  g.Weighted(),
		base:      g,
		addAlive:  make(map[edgeKey][]int32),
		delBase:   make(map[wkey]int64),
		delPair:   make(map[edgeKey]int64),
		liveEdges: g.NumEdges(),
		degIn:     g.InDegrees(),
		assign:    make([]uint32, g.NumVertices()),
		partEdges: append([]int64(nil), r.EdgeCounts...),
		partVerts: append([]int64(nil), r.VertexCounts...),
		dirty:     make(map[graph.VertexID]struct{}),
		viewNet:   make(map[graph.Edge]int64),
		viewMoved: make(map[graph.VertexID]struct{}),
	}
	copy(d.assign, r.PartitionOf)
	d.stats.Placements = int64(d.n)
	d.snapCache, d.snapEpoch = g, 0
	d.m = newDynMetrics(cfg.Metrics, cfg.Partitions)
	d.sp = cfg.Spans
	d.syncGauges()
	return d, nil
}

// NumVertices reports the current vertex count; Grow and AutoGrow
// admissions raise it, and internal IDs are append-only (an ID, once
// assigned, always names the same vertex).
func (d *Graph) NumVertices() int { return d.n }

// NumEdges reports the number of live edges (base − pending deletions +
// pending insertions).
func (d *Graph) NumEdges() int64 { return d.liveEdges }

// Weighted reports whether the graph carries non-unit edge weights.
func (d *Graph) Weighted() bool { return d.weighted }

// Partitions reports the partition count P.
func (d *Graph) Partitions() int { return d.cfg.Partitions }

// EdgeImbalance returns the tracked Δ(n) = max_p w[p] − min_p w[p].
func (d *Graph) EdgeImbalance() int64 { return core.Spread(d.partEdges) }

// VertexImbalance returns the tracked δ(n) = max_p u[p] − min_p u[p].
func (d *Graph) VertexImbalance() int64 { return core.Spread(d.partVerts) }

// EdgeCounts returns a copy of the per-partition in-edge counts w[p].
func (d *Graph) EdgeCounts() []int64 { return append([]int64(nil), d.partEdges...) }

// VertexCounts returns a copy of the per-partition vertex counts u[p].
func (d *Graph) VertexCounts() []int64 { return append([]int64(nil), d.partVerts...) }

// PartitionOf returns the current partition of v.
func (d *Graph) PartitionOf(v graph.VertexID) uint32 { return d.assign[v] }

// InDegree returns the live in-degree of v.
func (d *Graph) InDegree(v graph.VertexID) int64 { return d.degIn[v] }

// Stats returns the accumulated work counters.
func (d *Graph) Stats() Stats { return d.stats }

// Epoch returns the mutation epoch, incremented on every applied update.
func (d *Graph) Epoch() int64 { return d.epoch }

// PlaceEpoch returns the placement epoch, incremented whenever any vertex
// changes partition.
func (d *Graph) PlaceEpoch() int64 { return d.placeEpoch }

// RenumEpoch returns the renumbering epoch, incremented only when the whole
// ordering is invalidated (full rebuild or replace-mode repair). Swap
// repairs preserve it: between equal renumbering epochs, new IDs of all
// vertices outside the drained ViewDelta.Moved set are identical.
func (d *Graph) RenumEpoch() int64 { return d.renumEpoch }

// EffectiveRebuildThreshold returns the Δ(n) gate currently in force:
// RebuildThreshold, raised to twice the repair granularity — the 10th
// percentile of the nonzero live in-degrees — unless adaptivity is
// disabled. Repairs move whole vertices, so they cannot balance below the
// degrees of the vertices available to move; on near-uniform-degree graphs
// the granularity equals the common degree and a fixed low threshold would
// trigger a futile full rebuild every batch.
func (d *Graph) EffectiveRebuildThreshold() int64 { return d.effEdgeThreshold() }

// PendingOps reports the current delta-log size (pending insertions plus
// pending deletions against the base graph).
func (d *Graph) PendingOps() int64 { return int64(len(d.pendingAdd)) + d.pendingDels }

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

// ApplyBatch applies the updates in order, maintains the per-partition
// counters, and runs the threshold-gated ordering maintenance once at the
// end of the batch. An invalid update (vertex out of range without
// AutoGrow, deletion of a non-existent edge) stops processing and returns
// an error; updates before it remain applied. With AutoGrow, insertions
// mentioning endpoints at or beyond the current vertex count admit the
// missing dense IDs as zero-degree vertices (see Grow) at the start of the
// batch — one Grow call covers every arrival, and the admissions stand
// like any applied update even if a later update aborts the batch.
func (d *Graph) ApplyBatch(updates []graph.EdgeUpdate) (BatchResult, error) {
	start := time.Now()
	// The batch span is the causal root of this epoch: maintenance spans
	// (repair, rebuild, grow, spill) file as its children, and the facade's
	// publish span links to it via LastBatchSpan. finishBatch ends it on
	// every return path, error or not.
	d.curBatch = d.sp.Start("batch", "ingest", d.epoch, obs.SpanContext{})
	var res BatchResult
	if d.cfg.AutoGrow {
		// Admit for the whole batch up front: one Grow call claims headroom
		// slots for every arrival in the batch (batched per-partition
		// admission, one grow span and one gauge sync per batch instead of
		// per out-of-range update). The admissions stand even if a later
		// update aborts the batch, like any update applied before the
		// failure.
		mx := d.n - 1
		for _, u := range updates {
			if u.Del {
				continue
			}
			if int(u.Src) > mx {
				mx = int(u.Src)
			}
			if int(u.Dst) > mx {
				mx = int(u.Dst)
			}
		}
		if k := mx + 1 - d.n; k > 0 {
			d.Grow(k)
			res.Admitted += k
		}
	}
	for i, u := range updates {
		if int(u.Src) >= d.n || int(u.Dst) >= d.n {
			return d.finishBatch(res, start), fmt.Errorf("dynamic: update %d: edge (%d,%d) out of range n=%d", i, u.Src, u.Dst, d.n)
		}
		if u.Del {
			if err := d.deleteEdge(u.Src, u.Dst, u.Weight); err != nil {
				return d.finishBatch(res, start), fmt.Errorf("dynamic: update %d: %w", i, err)
			}
		} else {
			d.insertEdge(u.Src, u.Dst, u.Weight)
		}
		res.Applied++
	}
	return d.finishBatch(res, start), nil
}

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

// finishBatch runs the end-of-batch maintenance and fills the result, filing
// the spans that answer "what did this epoch do, and why": a "repair" span
// (cause "threshold-trip") when a gate fired, a "rebuild" span whose cause
// names which escape hatch forced it, a "resort" span when swaps decayed a
// segment's order, and the "batch" span summarizing the epoch.
func (d *Graph) finishBatch(res BatchResult, start time.Time) BatchResult {
	preMoves := d.stats.Swaps + d.stats.Rotations
	if d.overThreshold() {
		preDelta, preVert := d.EdgeImbalance(), d.VertexImbalance()
		rstart := time.Now()
		var swaps, rots int64
		var stalled bool
		if d.cfg.Repair == RepairPreserve {
			swaps, rots, stalled = d.swapRepair()
		} else {
			d.repair()
		}
		rdur := time.Since(rstart)
		d.m.repairs.Inc()
		d.m.repairNS.Observe(int64(rdur))
		res.Repaired = true
		d.sp.Record(obs.Span{
			Parent: d.curBatch.Context().ID, Name: "repair", Kind: "maintain",
			Cause: "threshold-trip", Epoch: d.epoch, Start: rstart, Dur: rdur,
			Attrs: map[string]int64{
				"delta_before": preDelta, "delta_after": d.EdgeImbalance(),
				"vertex_before": preVert, "vertex_after": d.VertexImbalance(),
				"threshold": d.effEdgeThreshold(), "swaps": swaps, "rotations": rots,
				"stalled": b2i(stalled),
			},
		})
		if d.overThreshold() {
			// The repair could not pull the imbalances back under their
			// gates; name why before falling back to the full reorder.
			cause, ctr := "repair-shortfall", d.m.rebuildShortfall
			if d.cfg.Repair == RepairPreserve {
				switch {
				case stalled:
					cause, ctr = "rotation-stall", d.m.rebuildRotStall
				case d.VertexImbalance() > d.cfg.VertexRebuildThreshold:
					cause, ctr = "vertex-threshold", d.m.rebuildVertex
				}
			}
			bstart := time.Now()
			d.rebuild()
			bdur := time.Since(bstart)
			ctr.Inc()
			d.m.rebuildNS.Observe(int64(bdur))
			res.Rebuilt = true
			d.sp.Record(obs.Span{
				Parent: d.curBatch.Context().ID, Name: "rebuild", Kind: "maintain",
				Cause: cause, Epoch: d.epoch, Start: bstart, Dur: bdur,
				Attrs: map[string]int64{
					"placements":   int64(d.n),
					"delta_after":  d.EdgeImbalance(),
					"vertex_after": d.VertexImbalance(),
				},
			})
		}
	}
	// Swaps and rotations decay the degree-descending order inside
	// segments (a moved vertex parks at its partner's old position);
	// re-sort one segment per disturbing batch. Headroom admissions are
	// not disturbances — they append in sorted position. A rebuild just
	// re-established the order everywhere.
	if !res.Rebuilt && d.cfg.Repair == RepairPreserve && !d.cfg.DisableSegmentResort &&
		d.stats.Swaps+d.stats.Rotations > preMoves {
		sstart := time.Now()
		q, moved := d.resortSegment()
		d.sp.Record(obs.Span{
			Parent: d.curBatch.Context().ID, Name: "resort", Kind: "maintain",
			Cause: "locality-decay", Epoch: d.epoch, Start: sstart, Dur: time.Since(sstart),
			Attrs: map[string]int64{"partition": int64(q), "moved": moved},
		})
	}
	if d.PendingOps() >= d.compactBound() {
		d.Compact()
		res.Compacted = true
	}
	res.EdgeImbalance = d.EdgeImbalance()
	res.VertexImbalance = d.VertexImbalance()
	d.m.batches.Inc()
	d.m.batchNS.ObserveSince(start)
	// Close out the epoch's causal root. The post-batch epoch is what views
	// of this batch will be pinned to, so the span settles there.
	d.curBatch.SetEpoch(d.epoch).
		Attr("applied", int64(res.Applied)).Attr("admitted", int64(res.Admitted)).
		Attr("repaired", b2i(res.Repaired)).Attr("rebuilt", b2i(res.Rebuilt)).
		Attr("compacted", b2i(res.Compacted)).
		Attr("edge_imbalance", res.EdgeImbalance).Attr("vertex_imbalance", res.VertexImbalance).
		End()
	d.lastBatch = d.curBatch.Context()
	d.curBatch = nil
	d.syncGauges()
	return res
}

// LastBatchSpan returns the causal context of the most recently finished
// batch span (the zero context before any batch, or without a Spans
// collector). The facade parents each epoch's publish span onto it.
func (d *Graph) LastBatchSpan() obs.SpanContext { return d.lastBatch }

// Grow admits count new zero-degree vertices, returning the first new
// internal ID (they are assigned densely: first, first+1, …). Each admitted
// vertex goes to the partition holding the fewest vertices among those with
// free headroom — Algorithm 1's least-loaded-bin rule applied incrementally,
// the same rule phase 2 uses for zero-degree vertices — and fills the next
// reserved slot at that partition's segment tail. The first Grow in a
// numbering lineage converts the cached ordering to slotted form (a
// relabeling epoch that reserves max(MinHeadroom, HeadroomFrac·occupied)
// free slots at every segment tail; see Config); after that, admissions
// extend the ordering in place — no copy, no shift of later segments — so
// pre-existing vertices keep their exact new IDs, the old→new injection
// across a growth epoch is the identity, and engine-side patching is
// O(delta). Only when every partition's headroom is exhausted does Grow
// spill to another relabeling epoch (Stats.HeadroomSpills,
// vebo_headroom_spill_total), which reserves fresh headroom everywhere —
// amortized O(1) per admission, vector-doubling style. The per-partition
// admission counts are accumulated into the view delta's growth vector.
func (d *Graph) Grow(count int) graph.VertexID {
	first := graph.VertexID(d.n)
	if count <= 0 {
		return first
	}
	gstart := time.Now()
	d.growing = true
	d.ensureOrdering()
	if d.segCap == nil {
		// First growth in this lineage: the cached ordering predates growing
		// and has no reserved slots. Relabel into slotted form.
		d.spillRelabel()
	}
	p := d.cfg.Partitions
	grow := make([]int64, p)
	spills := int64(0)
	for i := 0; i < count; i++ {
		q := d.admitTarget()
		if q < 0 {
			d.spillRelabel()
			spills++
			q = d.admitTarget()
		}
		// The admission occupies the next free slot of q's segment: appends
		// only, never a rewrite of an occupied position, so readers sharing
		// the published slices (bounded by their own lengths) are unaffected.
		slot := graph.VertexID(d.slotBase[q] + d.partVerts[q])
		d.ordPerm = append(d.ordPerm, slot)
		d.ordPartOf = append(d.ordPartOf, uint32(q))
		d.assign = append(d.assign, uint32(q))
		d.degIn = append(d.degIn, 0)
		if d.members != nil {
			d.members[q] = append(d.members[q], graph.VertexID(d.n))
		}
		d.partVerts[q]++
		grow[q]++
		d.n++
	}
	d.placeEpoch++
	d.ordPlace = d.placeEpoch
	if d.viewGrow == nil {
		d.viewGrow = make([]int64, p)
	}
	for q, c := range grow {
		d.viewGrow[q] += c
	}
	d.stats.Admitted += int64(count)
	d.stats.Placements += int64(count)
	// No re-sort is owed: a headroom admission appends a zero-degree vertex
	// with the largest ID at its segment's occupied tail, which is exactly
	// where the degree-descending (ID-ascending on ties) order wants it —
	// admissions do not decay the layout the background re-sort repairs.
	d.touch()
	cause := "growth-headroom"
	if spills > 0 {
		cause = "growth-spill"
	}
	free, _ := d.Headroom()
	d.m.admitted.Add(int64(count))
	d.m.growNS.ObserveSince(gstart)
	d.sp.Record(obs.Span{
		Parent: d.curBatch.Context().ID, Name: "grow", Kind: "maintain",
		Cause: cause, Epoch: d.epoch, Start: gstart, Dur: time.Since(gstart),
		Attrs: map[string]int64{"admitted": int64(count), "vertices": int64(d.n),
			"spills": spills, "headroom_free": free},
	})
	d.syncGauges()
	return first
}

// admitTarget returns the partition the next admission should fill: the
// fewest-vertices partition among those with free headroom, ties broken by
// edge load. Returns -1 when every partition's headroom is exhausted (or the
// ordering is not slotted yet).
func (d *Graph) admitTarget() int {
	if d.segCap == nil {
		return -1
	}
	best := -1
	for q := range d.partVerts {
		if d.partVerts[q] >= d.segCap[q] {
			continue
		}
		if best < 0 || d.partVerts[q] < d.partVerts[best] ||
			(d.partVerts[q] == d.partVerts[best] && d.partEdges[q] < d.partEdges[best]) {
			best = q
		}
	}
	return best
}

// spillRelabel converts the ordering to freshly slotted form through a
// relabeling epoch: the numbering lineage breaks (placementChanged), and the
// rebuilt ordering reserves headroom at every segment tail, guaranteeing
// admitTarget succeeds. Called on the first growth of a lineage and on
// headroom exhaustion; only the latter counts as a spill.
func (d *Graph) spillRelabel() {
	spill := d.segCap != nil
	if spill {
		d.stats.HeadroomSpills++
		d.m.headroomSpills.Inc()
	}
	sstart := time.Now()
	d.placementChanged()
	d.ensureOrdering()
	d.sp.Record(obs.Span{
		Parent: d.curBatch.Context().ID, Name: "spill", Kind: "maintain",
		Cause: map[bool]string{true: "headroom-exhausted", false: "first-growth"}[spill],
		Epoch: d.epoch, Start: sstart, Dur: time.Since(sstart),
	})
}

// Headroom reports the admission headroom of the cached slotted ordering:
// free reserved slots and total slot capacity, summed over partitions. Both
// are zero while the ordering is compact (no Grow yet) or stale (a
// renumbering is pending and the next ensureOrdering re-reserves).
func (d *Graph) Headroom() (free, capacity int64) {
	if d.segCap == nil || d.ordPlace != d.placeEpoch {
		return 0, 0
	}
	for q, c := range d.segCap {
		capacity += c
		free += c - d.partVerts[q]
	}
	return free, capacity
}

// SlotCounts returns a copy of the per-partition slot capacities of the
// cached slotted ordering (occupied plus reserved headroom), or nil while
// the ordering is compact.
func (d *Graph) SlotCounts() []int64 {
	if d.segCap == nil {
		return nil
	}
	return append([]int64(nil), d.segCap...)
}

// b2i renders a bool as a span attribute count.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// resortSegment restores the degree-descending (ID-ascending on ties) order
// phase 3 establishes inside one partition's segment, advancing a
// round-robin cursor one partition per call. Preserve-mode swaps park a
// moved vertex at its partner's old position and admissions append at the
// tail, so segments slowly lose the layout that gives dense traversal its
// locality; the re-sort is a segment-local permutation — exactly the shape
// the engine patch paths already handle — recorded in the view delta's
// moved set like any swap. Returns the re-sorted partition and how many of
// its vertices moved.
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
	for _, v := range moved {
		d.viewMoved[v] = struct{}{}
	}
	d.stats.Resorts++
	d.stats.ResortedVertices += int64(len(moved))
	d.m.resorts.Inc()
	return q, int64(len(moved))
}

func (d *Graph) insertEdge(s, dst graph.VertexID, w int32) {
	w = d.normWeight(w)
	k := keyOf(s, dst)
	d.pendingAdd = append(d.pendingAdd, graph.Edge{Src: s, Dst: dst, Weight: w})
	d.addAlive[k] = append(d.addAlive[k], w)
	d.liveEdges++
	d.degIn[dst]++
	d.partEdges[d.assign[dst]]++
	d.markDirty(dst)
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
			died = alive[len(alive)-1]
			d.popAlive(k, len(alive)-1)
		} else {
			w, ok := d.earliestLiveBase(s, dst)
			if !ok {
				return fmt.Errorf("delete of non-existent edge (%d,%d)", s, dst)
			}
			died = w
			d.cancelBase(k, w)
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
			died = wSel
			d.popAlive(k, i)
		case d.baseMultiplicityW(s, dst, wSel)-d.delBase[wkey{k, wSel}] > 0:
			died = wSel
			d.cancelBase(k, wSel)
		default:
			return fmt.Errorf("delete of non-existent edge (%d,%d) with weight %d", s, dst, wSel)
		}
	}
	d.liveEdges--
	d.degIn[dst]--
	d.partEdges[d.assign[dst]]--
	d.markDirty(dst)
	d.noteChange(graph.Edge{Src: s, Dst: dst, Weight: died}, -1)
	d.touch()
	d.stats.Updates++
	d.stats.Deletes++
	d.m.deletes.Inc()
	return nil
}

// popAlive removes index i from pair k's surviving-pending weight list.
func (d *Graph) popAlive(k edgeKey, i int) {
	alive := d.addAlive[k]
	alive = append(alive[:i], alive[i+1:]...)
	if len(alive) == 0 {
		delete(d.addAlive, k)
	} else {
		d.addAlive[k] = alive
	}
	// The log entry itself is dropped lazily at snapshot/compaction.
}

// cancelBase records a deletion against a base occurrence of (k, w).
func (d *Graph) cancelBase(k edgeKey, w int32) {
	d.delBase[wkey{k, w}]++
	d.delPair[k]++
	d.pendingDels++
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

// noteChange accumulates the view delta for one resolved edge change.
func (d *Graph) noteChange(e graph.Edge, sign int64) {
	d.viewNet[e] += sign
	if d.viewNet[e] == 0 {
		delete(d.viewNet, e)
	}
}

func (d *Graph) touch() {
	d.epoch++
}

// markDirty records that dst's in-degree class changed. Only the
// replace-mode repair consumes the dirty set; the swap repair picks movers
// by current load, so preserve mode skips the bookkeeping.
func (d *Graph) markDirty(dst graph.VertexID) {
	if d.cfg.Repair == RepairReplace {
		d.dirty[dst] = struct{}{}
	}
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
// same rotations the exhaustive pmin×P sweep does in practice, and the
// sweep remains as a fallback when the window finds none.
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
	p := d.cfg.Partitions
	lists := d.members
	// Partition member lists are sorted by ascending live degree lazily, on
	// first use as a donor or receiver in this pass (degrees drift between
	// passes, so sortedness never carries over); a typical pass touches a
	// handful of partitions, not all P.
	sorted := make([]bool, p)
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
	var moved []graph.VertexID
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
		consider := func(q, aj, bj, ci int) {
			a, b, c := lmax[aj], lists[q][bj], lmin[ci]
			da, db, dc := d.degIn[a], d.degIn[b], d.degIn[c]
			gain := gainOf(d.partEdges[pmax], dc-da) +
				gainOf(d.partEdges[q], da-db) +
				gainOf(d.partEdges[pmin], db-dc)
			if gain > bestGain {
				bestQ, bestA, bestB, bestC, bestGain = q, aj, bj, ci, gain
			}
		}
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
			da := d.degIn[lmax[aj]]
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
				consider(q, aj, posInList(q, b), ci)
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
			// The indexed scan found no positive-gain rotation; fall back to
			// the exhaustive pmin×P sweep so repair capability never
			// regresses relative to the unindexed search.
			d.stats.RotationFallbacks++
			d.m.rotFallbacks.Inc()
			for q := 0; q < p; q++ {
				if q == pmax || q == pmin || len(lists[q]) == 0 {
					continue
				}
				sortList(q)
				lq := lists[q]
				for ci, c := range lmin {
					target := d.degIn[c] + (gap+1)/2
					ai := sort.Search(len(lmax), func(i int) bool { return d.degIn[lmax[i]] >= target })
					for _, aj := range [2]int{ai - 1, ai} {
						if aj < 0 || aj >= len(lmax) {
							continue
						}
						a := lmax[aj]
						// b ideally matches deg(a) so q's load barely moves.
						bi := sort.Search(len(lq), func(i int) bool { return d.degIn[lq[i]] >= d.degIn[a] })
						for _, bj := range [2]int{bi - 1, bi} {
							if bj < 0 || bj >= len(lq) {
								continue
							}
							consider(q, aj, bj, ci)
						}
					}
				}
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
		moved = append(moved, a, b, c)
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
		moved = append(moved, v, u)
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
		for _, w := range moved {
			d.viewMoved[w] = struct{}{}
		}
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

// repair re-runs Algorithm 2's greedy placement over the dirty vertices
// only: each is removed from its partition and re-placed in decreasing live
// degree order onto the currently least-loaded partition — least edges for
// non-zero-degree vertices (phase 1), least vertices for zero-degree
// vertices (phase 2).
func (d *Graph) repair() {
	if len(d.dirty) == 0 {
		return
	}
	verts := make([]graph.VertexID, 0, len(d.dirty))
	for v := range d.dirty {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool {
		if d.degIn[verts[i]] != d.degIn[verts[j]] {
			return d.degIn[verts[i]] > d.degIn[verts[j]]
		}
		return verts[i] < verts[j]
	})
	for _, v := range verts {
		p := d.assign[v]
		d.partEdges[p] -= d.degIn[v]
		d.partVerts[p]--
	}
	for _, v := range verts {
		var q int
		if d.degIn[v] > 0 {
			// Least-edges placement as in phase 1, but ties broken toward the
			// least-vertex partition: repairs run continuously, and an
			// edge-only arg-min lets δ(n) drift batch over batch (ROADMAP's
			// δ-drift item) while the tie-break keeps it near the static
			// bound at no cost to Δ(n).
			q = argMin2(d.partEdges, d.partVerts)
		} else {
			q = argMin2(d.partVerts, d.partEdges)
		}
		d.assign[v] = uint32(q)
		d.partEdges[q] += d.degIn[v]
		d.partVerts[q]++
	}
	d.stats.Repairs++
	d.stats.RepairedVertices += int64(len(verts))
	d.stats.Placements += int64(len(verts))
	d.dirty = make(map[graph.VertexID]struct{})
	d.placementChanged()
	if d.VertexImbalance() > d.cfg.VertexRebuildThreshold {
		d.vertexRepair()
	}
}

// vertexRepair pulls δ(n) back under its threshold by moving the
// lowest-degree vertices of overfull partitions onto the least-vertex
// partition. Edge-focused repairs run continuously and place by least-edges,
// so vertex counts drift batch over batch (the ROADMAP δ-drift item); this
// pass corrects them directly, preferring zero-degree vertices whose move
// cannot disturb Δ(n). If it runs out of useful moves the caller's
// threshold check falls through to a full rebuild.
func (d *Graph) vertexRepair() {
	th := d.cfg.VertexRebuildThreshold
	p := d.cfg.Partitions
	lists := make([][]graph.VertexID, p)
	for v := 0; v < d.n; v++ {
		q := d.assign[v]
		lists[q] = append(lists[q], graph.VertexID(v))
	}
	// Bucketing is O(n); sorting is deferred until a partition actually
	// becomes the overfull donor, so a typical invocation sorts one or two
	// partitions (O(n/P log n/P)) instead of all of them.
	sorted := make([]bool, p)
	ptr := make([]int, p)
	var moves int64
	for i := 0; i < d.n; i++ {
		pmax := argMin2Neg(d.partVerts)
		pmin := argMin2(d.partVerts, d.partEdges)
		if d.partVerts[pmax]-d.partVerts[pmin] <= th {
			break
		}
		if !sorted[pmax] {
			l := lists[pmax]
			sort.Slice(l, func(i, j int) bool {
				if d.degIn[l[i]] != d.degIn[l[j]] {
					return d.degIn[l[i]] < d.degIn[l[j]]
				}
				return l[i] < l[j]
			})
			sorted[pmax] = true
		}
		var v graph.VertexID
		found := false
		for ptr[pmax] < len(lists[pmax]) {
			cand := lists[pmax][ptr[pmax]]
			ptr[pmax]++
			if d.assign[cand] == uint32(pmax) {
				v, found = cand, true
				break
			}
		}
		if !found {
			break
		}
		d.assign[v] = uint32(pmin)
		d.partVerts[pmax]--
		d.partVerts[pmin]++
		d.partEdges[pmax] -= d.degIn[v]
		d.partEdges[pmin] += d.degIn[v]
		moves++
	}
	if moves > 0 {
		d.stats.Placements += moves
		d.stats.VertexMoves += moves
		d.placementChanged()
	}
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
	d.dirty = make(map[graph.VertexID]struct{})
	d.stats.FullRebuilds++
	d.stats.Placements += int64(d.n)
	d.placementChanged()
}

// placementChanged invalidates everything keyed to the placement: the cached
// permutation and the patchability of engine-side structures. Swap repairs
// do NOT go through here — they maintain the permutation copy-on-write and
// record their moves in viewMoved instead, keeping the numbering lineage
// (renumEpoch) intact.
func (d *Graph) placementChanged() {
	d.placeEpoch++
	d.renumEpoch++
	d.viewPlace = true
	// Per-vertex move tracking is moot once the whole numbering changed,
	// and the swap repair's member lists no longer match the assignment.
	d.viewMoved = make(map[graph.VertexID]struct{})
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

// Frozen is an immutable capture of the live edge multiset at one epoch. It
// shares the base graph and the append-only prefix of the pending log with
// the live structure and copies only the (small) cancellation bookkeeping,
// so freezing costs O(pending) regardless of graph size. A Frozen may be
// materialized from any goroutine, concurrently with further ApplyBatch
// calls on the source graph.
//
//vebo:frozen
type Frozen struct {
	n         int
	weighted  bool
	epoch     int64
	liveEdges int64
	base      *graph.Graph
	pending   []graph.Edge
	needW     map[wkey]int64 // surviving pending insertions per (s,d,w)
	delBase   map[wkey]int64 // base cancellations per (s,d,w)
}

// Freeze captures the current live edge multiset.
func (d *Graph) Freeze() Frozen {
	f := Frozen{
		n:         d.n,
		weighted:  d.weighted,
		epoch:     d.epoch,
		liveEdges: d.liveEdges,
		base:      d.base,
		pending:   d.pendingAdd[:len(d.pendingAdd):len(d.pendingAdd)],
	}
	if len(d.addAlive) > 0 {
		f.needW = make(map[wkey]int64, len(d.addAlive))
		for k, alive := range d.addAlive {
			for _, w := range alive {
				f.needW[wkey{k, w}]++
			}
		}
	}
	if len(d.delBase) > 0 {
		f.delBase = make(map[wkey]int64, len(d.delBase))
		for k, c := range d.delBase {
			f.delBase[k] = c
		}
	}
	return f
}

// Epoch returns the mutation epoch the capture was taken at.
func (f Frozen) Epoch() int64 { return f.epoch }

// NumVertices reports the vertex count.
func (f Frozen) NumVertices() int { return f.n }

// NumEdges reports the live edge count of the capture.
func (f Frozen) NumEdges() int64 { return f.liveEdges }

// Materialize builds the captured edge multiset as an immutable CSR+CSC
// graph, in deterministic order: base edges in CSR order with cancellations
// consuming the earliest same-weight occurrences, then surviving log
// insertions in arrival order.
func (f Frozen) Materialize() *graph.Graph {
	edges := make([]graph.Edge, 0, f.liveEdges)
	var dels map[wkey]int64
	if len(f.delBase) > 0 {
		dels = make(map[wkey]int64, len(f.delBase))
		for k, c := range f.delBase {
			dels[k] = c
		}
	}
	for _, e := range f.base.Edges() {
		k := wkey{keyOf(e.Src, e.Dst), e.Weight}
		if dels[k] > 0 {
			dels[k]--
			continue
		}
		edges = append(edges, e)
	}
	if len(f.pending) > 0 {
		emitted := make(map[wkey]int64, len(f.needW))
		for _, e := range f.pending {
			k := wkey{keyOf(e.Src, e.Dst), e.Weight}
			if emitted[k] >= f.needW[k] {
				continue // cancelled by a later deletion
			}
			emitted[k]++
			edges = append(edges, e)
		}
	}
	g, err := graph.FromEdges(f.n, edges, f.weighted)
	if err != nil {
		// Unreachable: every applied update was range-checked.
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
	d.pendingAdd = nil
	d.addAlive = make(map[edgeKey][]int32)
	d.delBase = make(map[wkey]int64)
	d.delPair = make(map[edgeKey]int64)
	d.pendingDels = 0
	d.stats.Compactions++
	d.m.compactions.Inc()
	d.m.compactNS.ObserveSince(cstart)
	d.sp.Record(obs.Span{
		Parent: d.curBatch.Context().ID, Name: "compact", Kind: "maintain",
		Cause: "log-bound", Epoch: d.epoch, Start: cstart, Dur: time.Since(cstart),
		Attrs: map[string]int64{"pending_ops": pending, "base_edges": d.liveEdges},
	})
}

// ensureOrdering makes the cached permutation current. The full
// (partition, degree desc, ID) sort runs only when the numbering lineage
// broke (initial call, full rebuild, replace-mode repair, headroom spill);
// swap repairs update the cached permutation copy-on-write themselves, and
// Grow extends it in place, so between renumbering events the new IDs of
// unmoved vertices never change. Once the vertex space has started growing,
// the sort produces a slotted ordering: each partition's segment is followed
// by reserved headroom slots (Config.headroom) that future admissions fill
// without renumbering anything; before the first Grow the ordering stays
// compact, so non-growing workloads see exact permutations.
func (d *Graph) ensureOrdering() {
	if d.ordPerm != nil && d.ordPlace == d.placeEpoch {
		return
	}
	order := make([]int, d.n)
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if d.assign[a] != d.assign[b] {
			return d.assign[a] < d.assign[b]
		}
		if d.degIn[a] != d.degIn[b] {
			return d.degIn[a] > d.degIn[b]
		}
		return a < b
	})
	perm := make([]graph.VertexID, d.n)
	if d.growing {
		p := d.cfg.Partitions
		d.segCap = make([]int64, p)
		d.slotBase = make([]int64, p+1)
		for q := 0; q < p; q++ {
			d.segCap[q] = d.partVerts[q] + d.cfg.headroom(d.partVerts[q])
			d.slotBase[q+1] = d.slotBase[q] + d.segCap[q]
		}
		next := append([]int64(nil), d.slotBase[:p]...)
		// order is sorted by partition first, so assigning sequentially from
		// each partition's slot base keeps the occupied positions a
		// contiguous prefix of every segment.
		for _, v := range order {
			q := d.assign[v]
			perm[v] = graph.VertexID(next[q])
			next[q]++
		}
	} else {
		d.segCap, d.slotBase = nil, nil
		for newID, v := range order {
			perm[v] = graph.VertexID(newID)
		}
	}
	d.ordPerm = perm
	d.ordPartOf = append([]uint32(nil), d.assign...)
	d.ordPlace = d.placeEpoch
}

// Ordering returns the current placement as a core.Result: the permutation
// renumbers vertices so each partition owns a contiguous new-ID range, with
// vertices in decreasing degree order (as of the last renumbering event)
// inside it, as Algorithm 2's phase 3 does. The permutation is recomputed
// only when the numbering lineage breaks (full rebuild or replace-mode
// repair); swap repairs permute it copy-on-write at exactly the swapped
// positions, and degree-only epochs keep the exact numbering — which is
// what lets engine-side structures of unchanged partitions be reused —
// while the returned per-partition counts are always current. Once the
// vertex space has grown, the result is slotted (SlotCounts non-nil): each
// segment carries reserved headroom slots after its occupied prefix, the
// permutation is an injection into the slot space, and admissions fill
// slots without renumbering anyone. The Perm and PartitionOf slices are
// shared and immutable; callers must not modify them.
func (d *Graph) Ordering() *core.Result {
	d.ensureOrdering()
	return &core.Result{
		P:            d.cfg.Partitions,
		Perm:         d.ordPerm,
		PartitionOf:  d.ordPartOf,
		VertexCounts: d.VertexCounts(),
		EdgeCounts:   d.EdgeCounts(),
		SlotCounts:   d.SlotCounts(),
	}
}

// ViewDelta describes everything that changed between two drains: the net
// resolved edge changes and whether the placement moved. The facade
// publishes one view per drain and uses the delta to patch engine-side
// structures instead of rebuilding them; the exact set of dirty partitions
// is derived from the delta's destination endpoints.
type ViewDelta struct {
	// Net maps an edge triple (Src, Dst, normalized Weight) to its net
	// multiplicity change since the last drain. Entries are never zero.
	Net map[graph.Edge]int64
	// Moved holds the original-ID vertices repositioned by
	// placement-preserving swap repairs since the last drain: their
	// partition and new ID changed, but the partition segment boundaries
	// did not, and every vertex outside the set kept its exact new ID. The
	// set may over-approximate after window arithmetic (an entry whose
	// endpoint positions turn out equal is harmless — its segment
	// permutation entry is the identity).
	Moved map[graph.VertexID]struct{}
	// PlacementChanged reports whether the whole numbering was invalidated
	// since the last drain (full rebuild or replace-mode repair); swap
	// repairs set Moved instead.
	PlacementChanged bool
	// Grown is the per-partition count of vertices admitted since the last
	// drain (nil when none): partition p absorbed Grown[p] admissions into
	// its reserved headroom slots, leaving every pre-existing vertex's new
	// ID unchanged — the cross-epoch injection is the identity on the old
	// vertices. Internal IDs are append-only, so the admitted vertices are
	// exactly the IDs in [n − GrownTotal(), n) of the drained epoch's
	// space; their new IDs are scattered per-partition tail slots, not a
	// contiguous range. A spill (headroom exhaustion) renumbers instead and
	// sets PlacementChanged.
	Grown []int64
	// Updates counts the net edge changes covered by this delta.
	Updates int64
}

// GrownTotal returns the number of vertices admitted in the delta's window.
func (vd ViewDelta) GrownTotal() int64 {
	var t int64
	for _, c := range vd.Grown {
		t += c
	}
	return t
}

// addGrown adds sign×b into a elementwise, allocating on first use; a nil
// result stands for the zero vector.
func addGrown(a, b []int64, sign int64) []int64 {
	if len(b) == 0 {
		return a
	}
	if a == nil {
		a = make([]int64, len(b))
	}
	for p, c := range b {
		a[p] += sign * c
	}
	return a
}

// DrainViewDelta returns the accumulated delta and resets the accumulators.
// Single-writer: call only from the goroutine that applies batches.
func (d *Graph) DrainViewDelta() ViewDelta {
	vd := ViewDelta{
		Net:              d.viewNet,
		Moved:            d.viewMoved,
		PlacementChanged: d.viewPlace,
		Grown:            d.viewGrow,
	}
	for _, c := range vd.Net {
		if c > 0 {
			vd.Updates += c
		} else {
			vd.Updates -= c
		}
	}
	d.viewNet = make(map[graph.Edge]int64)
	d.viewMoved = make(map[graph.VertexID]struct{})
	d.viewGrow = nil
	d.viewPlace = false
	return vd
}

// mergeMoved unions two moved sets; a nil result stands for the empty set.
func mergeMoved(a, b map[graph.VertexID]struct{}) map[graph.VertexID]struct{} {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(map[graph.VertexID]struct{}, len(a)+len(b))
	for v := range a {
		out[v] = struct{}{}
	}
	for v := range b {
		out[v] = struct{}{}
	}
	return out
}

// Merge combines vd (earlier) with later into a fresh delta covering both
// windows. Moved is the union even when the combined window contains a
// renumbering (PlacementChanged): a later re-anchor onto a view published
// after the rebuild clears PlacementChanged again, and the swaps that
// landed after the rebuild must still be there for it to trim against —
// dropping them would leave the delta claiming an identity permutation
// across a real move. Neither input is mutated.
func (vd ViewDelta) Merge(later ViewDelta) ViewDelta {
	out := ViewDelta{
		Net:              make(map[graph.Edge]int64, len(vd.Net)+len(later.Net)),
		Moved:            mergeMoved(vd.Moved, later.Moved),
		PlacementChanged: vd.PlacementChanged || later.PlacementChanged,
		Grown:            addGrown(addGrown(nil, vd.Grown, 1), later.Grown, 1),
		Updates:          vd.Updates + later.Updates,
	}
	for e, c := range vd.Net {
		out.Net[e] = c
	}
	for e, c := range later.Net {
		out.Net[e] += c
		if out.Net[e] == 0 {
			delete(out.Net, e)
		}
	}
	return out
}

// Subtract returns the delta covering this delta's window minus a prefix of
// it: Net is the exact multiset difference; Moved is the union of both
// windows' sets (a safe over-approximation — the caller can trim entries
// whose endpoint positions agree); PlacementChanged is left for the caller
// to set from renumbering epochs. Neither input is mutated.
func (vd ViewDelta) Subtract(prefix ViewDelta) ViewDelta {
	out := ViewDelta{
		Net:   make(map[graph.Edge]int64, len(vd.Net)),
		Moved: mergeMoved(vd.Moved, prefix.Moved),
		// Admissions are cumulative and prefix-closed: the prefix's
		// admissions are a per-partition prefix of this window's.
		Grown: addGrown(addGrown(nil, vd.Grown, 1), prefix.Grown, -1),
	}
	for e, c := range vd.Net {
		out.Net[e] = c
	}
	for e, c := range prefix.Net {
		out.Net[e] -= c
		if out.Net[e] == 0 {
			delete(out.Net, e)
		}
	}
	for _, c := range out.Net {
		if c > 0 {
			out.Updates += c
		} else {
			out.Updates -= c
		}
	}
	return out
}

// dynMetrics bundles the subsystem's metric handles. It is populated even
// with a nil registry (every handle is then a nil no-op), so instrumented
// paths never branch on whether metrics are enabled.
type dynMetrics struct {
	batches, inserts, deletes            *obs.Counter
	repairs, swaps, rotations            *obs.Counter
	rotAttempts, rotFallbacks, rotStalls *obs.Counter
	rebuildRotStall, rebuildVertex       *obs.Counter
	rebuildShortfall, rebuildForced      *obs.Counter
	resorts, compactions                 *obs.Counter
	admitted, headroomSpills             *obs.Counter

	batchNS, repairNS, rebuildNS *obs.Histogram
	growNS, compactNS            *obs.Histogram

	epoch, vertices, liveEdges  *obs.Gauge
	edgeImb, vertImb, effThresh *obs.Gauge
	pendingOps                  *obs.Gauge
	// headroomSlots[q] tracks partition q's free reserved admission slots
	// (vebo_headroom_slots{partition=q}); zero while the ordering is compact.
	headroomSlots []*obs.Gauge
}

func newDynMetrics(r *obs.Registry, p int) dynMetrics {
	slots := make([]*obs.Gauge, p)
	for q := range slots {
		slots[q] = r.Gauge("vebo_headroom_slots", "partition", strconv.Itoa(q))
	}
	return dynMetrics{
		batches:          r.Counter("vebo_batches_total"),
		inserts:          r.Counter("vebo_updates_total", "op", "insert"),
		deletes:          r.Counter("vebo_updates_total", "op", "delete"),
		repairs:          r.Counter("vebo_repairs_total"),
		swaps:            r.Counter("vebo_swaps_total"),
		rotations:        r.Counter("vebo_rotations_total"),
		rotAttempts:      r.Counter("vebo_rotation_search_total", "result", "attempt"),
		rotFallbacks:     r.Counter("vebo_rotation_search_total", "result", "fallback"),
		rotStalls:        r.Counter("vebo_rotation_search_total", "result", "stall"),
		rebuildRotStall:  r.Counter("vebo_rebuilds_total", "cause", "rotation-stall"),
		rebuildVertex:    r.Counter("vebo_rebuilds_total", "cause", "vertex-threshold"),
		rebuildShortfall: r.Counter("vebo_rebuilds_total", "cause", "repair-shortfall"),
		rebuildForced:    r.Counter("vebo_rebuilds_total", "cause", "forced"),
		resorts:          r.Counter("vebo_resorts_total"),
		compactions:      r.Counter("vebo_compactions_total"),
		admitted:         r.Counter("vebo_admitted_total"),
		headroomSpills:   r.Counter("vebo_headroom_spill_total"),
		batchNS:          r.Histogram("vebo_batch_ns"),
		repairNS:         r.Histogram("vebo_repair_ns"),
		rebuildNS:        r.Histogram("vebo_rebuild_ns"),
		growNS:           r.Histogram("vebo_grow_ns"),
		compactNS:        r.Histogram("vebo_compact_ns"),
		epoch:            r.Gauge("vebo_epoch"),
		vertices:         r.Gauge("vebo_vertices"),
		liveEdges:        r.Gauge("vebo_live_edges"),
		edgeImb:          r.Gauge("vebo_edge_imbalance"),
		vertImb:          r.Gauge("vebo_vertex_imbalance"),
		effThresh:        r.Gauge("vebo_effective_threshold"),
		pendingOps:       r.Gauge("vebo_pending_ops"),
		headroomSlots:    slots,
	}
}

// syncGauges refreshes the instantaneous-state gauges after a lifecycle step.
func (d *Graph) syncGauges() {
	if d.m.epoch == nil {
		return
	}
	d.m.epoch.Set(d.epoch)
	d.m.vertices.Set(int64(d.n))
	d.m.liveEdges.Set(d.liveEdges)
	d.m.edgeImb.Set(d.EdgeImbalance())
	d.m.vertImb.Set(d.VertexImbalance())
	d.m.effThresh.Set(d.effEdgeThreshold())
	d.m.pendingOps.Set(d.PendingOps())
	slotted := d.segCap != nil && d.ordPlace == d.placeEpoch
	for q, g := range d.m.headroomSlots {
		var free int64
		if slotted {
			free = d.segCap[q] - d.partVerts[q]
		}
		g.Set(free)
	}
}

// AddsDels expands the net delta into explicit insertion and deletion lists
// (multiplicities unrolled).
func (vd ViewDelta) AddsDels() (adds, dels []graph.Edge) {
	for e, c := range vd.Net {
		for ; c > 0; c-- {
			adds = append(adds, e)
		}
		for ; c < 0; c++ {
			dels = append(dels, e)
		}
	}
	return adds, dels
}
