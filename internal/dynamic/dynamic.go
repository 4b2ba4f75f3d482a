// Package dynamic keeps a graph and its VEBO ordering live under a stream of
// edge insertions and deletions, so that engines never pay a full
// O(n log P) reorder plus O(m) CSR/CSC rebuild per update batch.
//
// The design has five parts:
//
//   - Delta-log storage. The last compacted graph.Graph is kept immutable;
//     inserted edges accumulate in an append-only log and deletions, each
//     resolved to the (src,dst,weight) occurrence that died, in two more:
//     kills of pending insertions and cancellations of base edges.
//     Snapshot materializes the surviving edge set by row-patching the base
//     (cached per mutation epoch) and Compact promotes that snapshot to the
//     new base. Freeze captures the same state in O(1) — prefixes of the
//     three logs — so concurrent readers can materialize a snapshot without
//     touching the live structures.
//
//   - Incremental balance accounting. Per-partition in-edge counts (the
//     paper's w[p]) and vertex counts (u[p]) are updated in O(1) per edge
//     update, so the tracked edge imbalance Δ(n) and vertex imbalance δ(n)
//     are always available without touching the graph.
//
//   - Incremental ordering maintenance, gated on the imbalances. The gate
//     (Δ(n) over the effective rebuild threshold, which scales with the
//     graph's degree granularity) triggers a swap repair that fixes the
//     edge balance with vertex exchanges: a vertex of the most-loaded
//     partition trades places — partition AND new ID — with a lower-degree
//     vertex of the least-loaded one, so per-partition vertex counts, the
//     segment boundaries of the ordering, and the new IDs of every unmoved
//     vertex are all invariant. If no improving pair is left and the
//     imbalances are still over their thresholds, the subsystem falls back
//     to a full core.ReorderDegrees rebuild.
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
//   - View deltas from log cursors. A Frozen capture pins O(1) prefixes of
//     the three logs, so the net edge change between two captures at most
//     one compaction apart is a pure function of the pair (Frozen.Since):
//     the log suffix between them, netted with one sort. Nothing is
//     accumulated on the update path. The facade reads the rest of a view's
//     delta off the two views' orderings — the vertices whose position
//     differs, the admission count, and whether the renumbering epoch
//     changed — and patches engine-side structures for unchanged
//     partitions instead of rebuilding them (see the vebo.View API).
//
// See DESIGN.md §5 for how this subsystem fits the rest of the system.
package dynamic

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Config tunes a dynamic graph. The zero value selects the defaults below.
type Config struct {
	// Partitions is the VEBO partition count P (default 64).
	Partitions int
	// RebuildThreshold is the Δ(n) value above which maintenance runs: first
	// the swap repair, then — if an imbalance is still above its threshold —
	// a full reorder. Default 2, the paper's power-law bound (Theorem 1 gives
	// Δ ≤ 1; one in-flight batch may add one more). The effective threshold
	// additionally scales with the graph's degree spread: see
	// EffectiveRebuildThreshold.
	RebuildThreshold int64
	// VertexRebuildThreshold is the δ(n) value above which maintenance runs.
	// Default 4 (2× Theorem 2's δ ≤ ~1 static bound, with slack for
	// in-flight batches). Swap repairs exchange vertices 1-for-1, so between
	// full rebuilds δ(n) moves only through admissions (Grow places each on
	// the least-vertex partition with free headroom).
	VertexRebuildThreshold int64
	// CompactEvery bounds the delta log: once the number of pending
	// insertions plus pending deletions reaches it, ApplyBatch compacts the
	// log into a fresh base graph. 0 selects an adaptive bound,
	// max(8192, liveEdges/8): compaction costs O(m), so a fixed small bound
	// would pay it every few batches on large graphs.
	CompactEvery int
	// AutoGrow admits vertices on demand: an insertion whose endpoint is at
	// or beyond the current vertex count grows the vertex space (via Grow)
	// up to that endpoint instead of failing the batch. Internal IDs are
	// dense, so callers feeding sparse external IDs should map them through
	// an Allocator first; deletions never grow.
	AutoGrow bool
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
	// grow, spill, compact) files child spans of the batch that triggered
	// it, and the facade layer parents publish and query spans
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
	// Repairs is the number of swap repair passes.
	Repairs int64
	// RepairedVertices is the number of placements done by repairs alone.
	RepairedVertices int64
	// Swaps is the number of placement-preserving vertex pair exchanges.
	Swaps int64
	// Admitted is the number of vertices added to the graph after
	// construction (Grow and AutoGrow admissions).
	Admitted int64
	// HeadroomSpills is the number of times an admission found every
	// partition's reserved headroom exhausted and forced a relabeling epoch
	// (which reserves fresh headroom everywhere); see Grow.
	HeadroomSpills int64
	// Resorts and ResortedVertices are always 0; kept only for the
	// benchmark harness.
	Resorts          int64
	ResortedVertices int64
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

// Graph is a mutable graph with an incrementally maintained VEBO ordering.
// Mutation is single-writer: callers serialize ApplyBatch/Compact/Rebuild.
// Concurrent readers use Freeze (or the facade's View API), or keep an old
// immutable Snapshot.
type Graph struct {
	cfg      Config
	n        int
	weighted bool

	// base is the last compacted immutable graph; three append-only logs
	// are the delta on top of it, each entry carrying the resolved stored
	// weight: pendingAdd holds every insertion in arrival order, killedAdd
	// the deletions that killed a pending insertion, and cancelLog those
	// that cancelled a base occurrence. Freeze shares capped prefixes of
	// all three; only Compact starts fresh ones, moving the retired logs to
	// the prev* fields and bumping the generation gen.
	base        *graph.Graph
	pendingAdd  []graph.Edge
	killedAdd   []graph.Edge
	cancelLog   []graph.Edge
	gen         int64
	prevPending []graph.Edge
	prevKilled  []graph.Edge
	prevCancels []graph.Edge
	// The indexes below resolve deletions and never leave the writer.
	// addAlive[k] holds the weights of the surviving pending insertions of
	// pair k in insertion order (top = most recent). Its length is the
	// surviving pending multiplicity of the pair.
	addAlive map[edgeKey][]int32
	// delBase[{k,w}] counts pending deletions cancelling base occurrences of
	// (k, weight w), earliest-in-CSR-order first; delPair[k] is the per-pair
	// total of those counts.
	delBase   map[wkey]int64
	delPair   map[edgeKey]int64
	liveEdges int64

	// Live per-vertex in-degrees and the current placement.
	degIn  []int64
	assign []uint32
	// partEdges[p] and partVerts[p] are the paper's w[p] and u[p],
	// maintained incrementally.
	partEdges []int64
	partVerts []int64

	stats Stats

	// epoch increments on every mutation; snapCache is valid for snapEpoch.
	epoch     int64
	snapCache *graph.Graph
	snapEpoch int64

	// placeEpoch increments whenever any vertex changes partition or
	// position (repair, admission or rebuild). renumEpoch
	// increments only when the whole numbering is invalidated (a full
	// rebuild or a spillRelabel — headroom exhaustion, or the first growth
	// converting the ordering to slotted form): swap repairs bump placeEpoch
	// but not
	// renumEpoch, because they permute IDs only inside the affected
	// partitions' segments and the rest of the numbering survives. The cached permutation is stable across epochs that only
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

// RenumEpoch returns the renumbering epoch, incremented only when the whole
// ordering is invalidated (full rebuild or relabeling spill). Swap repairs
// and headroom admissions preserve it: between two orderings of
// equal renumbering epochs, a vertex's new ID either stayed put or moved
// within the closed set of positions whose occupant changed, so diffing
// the two permutations (ViewDelta.Moved) finds every move.
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
func (d *Graph) PendingOps() int64 { return int64(len(d.pendingAdd) + len(d.cancelLog)) }

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

// finishBatch runs the end-of-batch maintenance and fills the result, filing
// the spans that answer "what did this epoch do, and why": a "repair" span
// (cause "threshold-trip") when a gate fired, a "rebuild" span whose cause
// names which escape hatch forced it, and the "batch" span summarizing the
// epoch.
func (d *Graph) finishBatch(res BatchResult, start time.Time) BatchResult {
	if d.overThreshold() {
		preDelta, preVert := d.EdgeImbalance(), d.VertexImbalance()
		rstart := time.Now()
		swaps := d.swapRepair()
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
				"threshold": d.effEdgeThreshold(), "swaps": swaps,
			},
		})
		if d.overThreshold() {
			// The repair could not pull the imbalances back under their
			// gates; name why before falling back to the full reorder.
			cause, ctr := "repair-shortfall", d.m.rebuildShortfall
			if d.VertexImbalance() > d.cfg.VertexRebuildThreshold {
				cause, ctr = "vertex-threshold", d.m.rebuildVertex
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

// b2i renders a bool as a span attribute count.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
