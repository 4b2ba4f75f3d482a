// Package dynamic keeps a graph and its VEBO ordering live under a stream of
// edge insertions and deletions, so that engines never pay a full
// O(n log P) reorder plus O(m) CSR/CSC rebuild per update batch.
//
// The design has five parts:
//
//   - Delta-log storage. The compaction base is an immutable slot graph:
//     the live graph at the last compaction, relabeled into the slot space
//     of the ordering then current. Inserted edges accumulate in an
//     append-only log and deletions, each resolved to the (src,dst,weight)
//     occurrence that died — a pending insertion or a base edge — in a
//     second one. Freeze captures the live state in O(1) — prefixes of the
//     two logs — so concurrent readers derive from it without touching the
//     live structures; Compact derives the live graph in the current slot
//     space, the way views do, and makes it the new base.
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
//   - A growable vertex space. Grow (driven by the facade's external-ID
//     ingest through an Allocator) admits zero-degree vertices to the
//     least-vertex partitions, filling reserved headroom slots at each
//     partition segment's tail: internal IDs are append-only, the cached
//     ordering is extended in place (the first admission in a lineage
//     converts it to slotted form with amortized per-segment headroom), and
//     the numbering lineage (RenumEpoch) is preserved with an identity
//     injection on the pre-existing vertices, so engine-side patching
//     across growth epochs is O(delta). Exhausted headroom spills to a
//     relabeling epoch that reserves fresh slots everywhere.
//
//   - Slot graphs derived from log cursors. A Frozen capture pins O(1)
//     prefixes of the two logs, so the net edge change between two
//     captures of one generation is a pure function of the pair
//     (Frozen.Since): the log suffix between them, netted with one sort.
//     Nothing is accumulated on the update path. ChangeSince relabels it
//     into a target ordering's slots and reads the slot map off the two
//     orderings — the vertices whose position differs, or the full map
//     across a renumbering — and the admitted slots, one graph.Delta, and
//     graph.Patch applies it to the newest slot graph of the
//     generation, a view's or the base. The facade patches engine-side
//     structures and refines results from the same delta (see the
//     vebo.View API).
//
// Every work count lives once, in the metrics registry (the vebo_* series);
// Stats reads it back.
//
// See DESIGN.md §5 for how this subsystem fits the rest of the system.
package dynamic

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Config tunes a dynamic graph. The zero value selects the defaults below.
// Admission headroom is a fixed policy, not a setting (see headroom).
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
	// Metrics receives the subsystem's counters, gauges and latency
	// histograms (the vebo_* series; see DESIGN.md §6). The counters are the
	// only record of the work done — Stats reads them — so a nil Metrics
	// gets a private registry.
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
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Stats counts the work the subsystem has done, in units comparable with a
// full reorder (one placement = one arg-min probe + assignment, the unit
// Algorithm 2 performs n of). It is a read of the registry's counters.
type Stats struct {
	// Updates is the number of edge updates applied (inserts + deletes).
	Updates int64
	// Inserts and Deletes split Updates.
	Inserts, Deletes int64
	// Placements is the total number of greedy vertex placements performed,
	// including the initial full ordering and any full rebuilds. A swap
	// counts as two placements (both ends are re-placed).
	Placements int64
	// Repairs is the number of maintenance threshold trips, each running
	// one swap repair pass.
	Repairs int64
	// RepairedVertices is the number of placements done by repairs alone.
	RepairedVertices int64
	// Swaps is the number of placement-preserving vertex pair exchanges.
	Swaps int64
	// Admitted is the number of vertices added to the graph after
	// construction (Grow admissions).
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

// BatchResult reports what one ApplyBatch or AdmitBatch call did.
type BatchResult struct {
	Applied int
	// Admitted is the number of vertices AdmitBatch admitted for this batch
	// (ApplyBatch admits none).
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

	// base is the generation's compaction base, a slot graph; two
	// append-only logs are the delta on top of it, in original IDs, each
	// entry carrying the resolved stored weight: pendingAdd holds every
	// insertion in arrival order and delLog every deletion, whether it
	// killed a pending insertion or cancelled a base occurrence. The live
	// edge count is base + len(pendingAdd) − len(delLog). Freeze shares
	// capped prefixes of both; only Compact starts fresh ones, with a new
	// base. latest is the newest slot graph of the generation — the base,
	// or a later one a reader registered — and the next compaction's
	// starting point; never nil.
	base       *SlotGraph
	pendingAdd []graph.Edge
	delLog     []graph.Edge
	latest     atomic.Pointer[SlotGraph]
	// The indexes below resolve deletions and never leave the writer.
	// Each pair's surviving pending insertions form a stack threaded
	// through one slab parallel to pendingAdd: addAlive[k] is the log index
	// of pair k's most recent survivor (no key: none survives), and
	// addPrev[i] the index of the survivor below insertion i (-1 at the
	// bottom). A killed insertion is unlinked; its slab entry stays until
	// Compact.
	addAlive map[edgeKey]int32
	addPrev  []int32
	// cancelled has one bit per base out-edge position (the base's
	// OutOffsets numbering), set when a pending deletion cancelled that
	// occurrence; nil until the first. Each weight's cancellations are a
	// prefix of its sub-run of the pair's parallel-edge run (earliest in
	// CSR order first). cancels is their total, the deletion half of
	// PendingOps.
	cancelled []uint64
	cancels   int64

	// Live per-vertex in-degrees and the current placement. assign is
	// copy-on-write — swap repairs write a per-pass clone, rebuilds replace
	// it, Grow only appends — so Ordering publishes it as PartitionOf.
	degIn  []int64
	assign []uint32
	// partEdges[p] and partVerts[p] are the paper's w[p] and u[p],
	// maintained incrementally.
	partEdges []int64
	partVerts []int64

	// epoch increments on every mutation.
	epoch int64

	// ordPerm is the ordering permutation, renumbered (number) at every
	// placement change and never stale. renumEpoch increments only when
	// the whole numbering is replaced (a full rebuild or a spillRelabel —
	// headroom exhaustion, or the first growth converting the ordering to
	// slotted form): swap repairs keep it, because they permute IDs only
	// inside the affected partitions' segments and the rest of the
	// numbering survives. The permutation is stable across epochs that only
	// change degrees and is maintained copy-on-write across swap repairs,
	// which is what makes engine-side patching possible.
	renumEpoch int64
	ordPerm    []graph.VertexID

	// slotBase (len P+1) is the slotted ordering's layout: partition q owns
	// new IDs [slotBase[q], slotBase[q+1]) — the occupied prefix
	// [slotBase[q], slotBase[q]+partVerts[q]) plus reserved admission
	// headroom. Nil while the ordering is compact: the first Grow slots it,
	// and from then on every numbering reserves headroom, so workloads that
	// never grow keep exact compact permutations.
	slotBase []int64

	// adaptGran caches the repair granularity estimate (a low quantile of
	// the nonzero in-degrees); adaptNext is the update count (Stats.Updates)
	// at which it is recomputed.
	adaptGran int64
	adaptNext int64

	// members[q] lists partition q's members as packed degree<<32|ID keys
	// (in-degrees fit in 32 bits) in ascending order, the (degree, ID)
	// order the swap repair's pair search reads, kept across passes: a
	// swap moves its two keys between the lists by one shifted insertion
	// each. A member whose degree changed since its key was written, or
	// that Grow admitted, is stale instead: its staleBits bit is set and it
	// waits in stale[q] until fixList re-places it, when a pass next reads
	// q's list. All three are nil when stale as a whole — any placement
	// change outside the swap path (a rebuild) invalidates them — and
	// ensureMembers rebuilds them with every vertex stale. keyBuf is
	// fixList's scratch.
	members   [][]uint64
	stale     [][]graph.VertexID
	staleBits []uint64
	keyBuf    []uint64

	// m holds the metric handles; their counters are the work counts Stats
	// reports.
	m dynMetrics

	// sp collects causal spans (nil-tolerant); curBatch is the in-flight
	// batch span maintenance steps parent onto, lastBatch the context of the
	// most recently finished one — the causal anchor the facade's publish
	// span links to. Both are writer-side state like everything above.
	sp        *obs.Spans
	curBatch  *obs.ActiveSpan
	lastBatch obs.SpanContext
}

// New wraps g in a dynamic graph, computing the initial VEBO ordering. A
// weighted g holding a negative weight is an error: result refinement
// relies on every stored weight being at least 1 (normWeight).
func New(g *graph.Graph, cfg Config) (*Graph, error) {
	cfg = cfg.withDefaults()
	for v := range graph.VertexID(g.NumVertices()) {
		if g.Weighted() && slices.ContainsFunc(g.OutWeights(v), func(w int32) bool { return w < 0 }) {
			return nil, fmt.Errorf("dynamic: an out-edge of vertex %d has a negative weight", v)
		}
	}
	r, err := core.Reorder(g, cfg.Partitions, core.Options{})
	if err != nil {
		return nil, err
	}
	identity := make([]graph.VertexID, g.NumVertices())
	for v := range identity {
		identity[v] = graph.VertexID(v)
	}
	d := &Graph{
		cfg:      cfg,
		n:        g.NumVertices(),
		weighted: g.Weighted(),
		// The input graph is the first base, under the identity and a
		// numbering lineage no ordering has.
		base:      newBase(g, identity, -1, 0),
		degIn:     g.InDegrees(),
		assign:    r.PartitionOf,
		partEdges: r.EdgeCounts,
		partVerts: r.VertexCounts,
		// The initial ordering is compact, so its own phase-3 numbering is
		// the first; it opens lineage 0.
		ordPerm: r.Perm,
	}
	d.latest.Store(d.base)
	d.startLog()
	d.m = newDynMetrics(cfg.Metrics, cfg.Partitions)
	d.m.placements.Add(int64(d.n))
	d.sp = cfg.Spans
	d.syncGauges()
	return d, nil
}

// NumVertices reports the current vertex count; Grow admissions raise it,
// and internal IDs are append-only (an ID, once assigned, always names the
// same vertex).
func (d *Graph) NumVertices() int { return d.n }

// NumEdges reports the number of live edges (base − pending deletions +
// pending insertions).
func (d *Graph) NumEdges() int64 {
	return d.base.G.NumEdges() + int64(len(d.pendingAdd)-len(d.delLog))
}

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

// Stats returns the accumulated work counters, read from the registry.
func (d *Graph) Stats() Stats {
	m := &d.m
	ins, del, swaps := m.inserts.Value(), m.deletes.Value(), m.swaps.Value()
	return Stats{
		Updates:          ins + del,
		Inserts:          ins,
		Deletes:          del,
		Placements:       m.placements.Value(),
		Repairs:          m.repairs.Value(),
		RepairedVertices: 2 * swaps,
		Swaps:            swaps,
		Admitted:         m.admitted.Value(),
		HeadroomSpills:   m.headroomSpills.Value(),
		FullRebuilds:     m.rebuildVertex.Value() + m.rebuildShortfall.Value() + m.rebuildForced.Value(),
		Compactions:      m.compactions.Value(),
	}
}

// updates is the number of edge updates applied, Stats().Updates.
func (d *Graph) updates() int64 { return d.m.inserts.Value() + d.m.deletes.Value() }

// Epoch returns the mutation epoch, incremented on every applied update.
func (d *Graph) Epoch() int64 { return d.epoch }

// RenumEpoch returns the renumbering epoch, incremented only when the whole
// ordering is invalidated (full rebuild or relabeling spill). Swap repairs
// and headroom admissions preserve it: between two orderings of
// equal renumbering epochs, a vertex's new ID either stayed put or moved
// within the closed set of positions whose occupant changed, so diffing
// the two permutations (movedBetween) finds every move.
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
func (d *Graph) PendingOps() int64 { return int64(len(d.pendingAdd)) + d.cancels }

// ApplyBatch applies the updates in order, maintains the per-partition
// counters, and runs the threshold-gated ordering maintenance once at the
// end of the batch. An invalid update (an endpoint at or beyond the current
// vertex count, an insertion of a negative weight into a weighted graph,
// deletion of a non-existent edge) stops processing and
// returns an error; updates before it remain applied. Vertices enter only
// through Grow, which AdmitBatch calls before the updates that name them.
func (d *Graph) ApplyBatch(updates []graph.EdgeUpdate) (BatchResult, error) {
	return d.AdmitBatch(0, updates)
}

// AdmitBatch is ApplyBatch preceded by Grow(admit), admit ≥ 0, inside the
// same batch: the admissions count in the batch's time and result, and
// their grow and spill spans are the batch span's children.
func (d *Graph) AdmitBatch(admit int, updates []graph.EdgeUpdate) (BatchResult, error) {
	start := time.Now()
	// The batch span is the causal root of this epoch: maintenance spans
	// (grow, spill, repair, rebuild, compact) file as its children, and the
	// facade's publish span links to it via LastBatchSpan. finishBatch ends
	// it on every return path, error or not.
	d.curBatch = d.sp.Start("batch", "ingest", d.epoch, obs.SpanContext{})
	d.Grow(admit)
	res := BatchResult{Admitted: admit}
	ins := 0
	for i, u := range updates {
		if int(u.Src) >= d.n || int(u.Dst) >= d.n {
			return d.finishBatch(res, ins, start), fmt.Errorf("dynamic: update %d: edge (%d,%d) out of range n=%d", i, u.Src, u.Dst, d.n)
		}
		if d.weighted && !u.Del && u.Weight < 0 {
			return d.finishBatch(res, ins, start), fmt.Errorf("dynamic: update %d: edge (%d,%d) weight %d is negative", i, u.Src, u.Dst, u.Weight)
		}
		if u.Del {
			if err := d.deleteEdge(u.Src, u.Dst, u.Weight); err != nil {
				return d.finishBatch(res, ins, start), fmt.Errorf("dynamic: update %d: %w", i, err)
			}
		} else {
			d.insertEdge(u.Src, u.Dst, u.Weight)
			ins++
		}
		res.Applied++
	}
	return d.finishBatch(res, ins, start), nil
}

// finishBatch counts the batch's applied updates into the registry — ins
// insertions, the rest of res.Applied deletions — once per batch rather
// than once per update, then runs the end-of-batch maintenance and fills
// the result, filing the spans that answer "what did this epoch do, and
// why": a "repair" span (cause "threshold-trip") when a gate fired, a
// "rebuild" span whose cause names which escape hatch forced it, and the
// "batch" span summarizing the epoch.
func (d *Graph) finishBatch(res BatchResult, ins int, start time.Time) BatchResult {
	d.m.inserts.Add(int64(ins))
	d.m.deletes.Add(int64(res.Applied - ins))
	if d.overThreshold() {
		preDelta, preVert := d.EdgeImbalance(), d.VertexImbalance()
		rstart := time.Now()
		swaps, scanned := d.swapRepair()
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
				"threshold": d.effEdgeThreshold(), "swaps": swaps, "scanned": scanned,
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
