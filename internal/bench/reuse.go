package bench

import (
	"fmt"
	"slices"
	"time"

	vebo "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// reuseOps is the stream length at the default scale (0.2); other scales
// stream proportionally.
const reuseOps = 10_000

// reuseBatch is deliberately small relative to the partition count: engine
// reuse pays off exactly when a batch leaves most partitions untouched, the
// regime a serving system with frequent small ingest batches lives in.
const reuseBatch = 64

// reuseExp is an extension experiment (not a paper table) measuring the
// engine-build amortization of the epoch-pinned View API — the paper's
// reordering-overhead argument (Table VI) carried into the dynamic stack. A
// powerlaw churn stream is ingested batch by batch through IngestBatch;
// after every batch the freshly published view builds all three framework
// engines. Three rows replay the same stream:
//
//   - patched: thresholds high enough that the placement never moves, the
//     maximum-reuse regime; engines are patched from the previous epoch's
//     (dirty partitions only, admissions landing in reserved headroom slots);
//   - rebuild: the same, with DisableViewReuse, so every epoch rebuilds from
//     scratch — the baseline the work ratios divide by;
//   - maintained: default thresholds, where placement-preserving swap
//     repairs (and growth, when the stream grows) fire almost every batch and
//     patching must keep applying across those epochs.
//
// Reported per row: published epochs, sustained epochs/sec including engine
// builds, and the construction work split (edges through full rebuilds vs
// patch merges vs segment relabels vs carried over untouched).
type reuseExp struct {
	name, title string
	// growFrac is the stream's per-insertion vertex-arrival probability; 0
	// streams pure churn, which admits nothing.
	growFrac float64
	// quickBatches is the Quick-mode stream length in batches.
	quickBatches int
	// maintainedMin is the bar the maintained row's work ratio must beat.
	maintainedMin float64
}

var (
	// viewExp streams pure churn; its gate is that patching still applies
	// under default-threshold maintenance at all.
	viewExp = reuseExp{name: "view", title: "epoch-pinned views", quickBatches: 3, maintainedMin: 1}
	// growExp interleaves vertex arrivals with the churn, the regime the
	// growable vertex space exists for. At 0.015 and batch 64 roughly half
	// the batches admit at least one vertex — well above the ≥10% bar it
	// certifies — while the other half exercise the pure-churn fast path.
	// Its quick stream is long enough to amortize the maintained row's
	// warm-up repairs; shorter streams under-report its steady-state ratio.
	growExp = reuseExp{name: "grow", title: "growable vertex space", growFrac: 0.015, quickBatches: 24, maintainedMin: 2}
)

func (e reuseExp) run(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	ops := max(int(float64(reuseOps)*cfg.Scale/0.2), 4*reuseBatch)
	if cfg.Quick {
		ops = e.quickBatches * reuseBatch
	}
	g, updates, err := gen.StreamFromRecipe("powerlaw", cfg.Scale, ops, cfg.Seed,
		gen.RecipeStreamOptions{GrowFrac: e.growFrac})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Extension: %s (powerlaw, %d updates, batch %d, P=%d) ==\n",
		e.title, len(updates), reuseBatch, 64)

	// Count the batches that introduce new vertices (an endpoint at or
	// beyond the running vertex count).
	growBatches, batches := 0, 0
	maxSeen := graph.VertexID(g.NumVertices() - 1)
	for b := range slices.Chunk(updates, reuseBatch) {
		batches++
		grew := false
		for _, u := range b {
			if top := max(u.Src, u.Dst); top > maxSeen {
				maxSeen, grew = top, true
			}
		}
		if grew {
			growBatches++
		}
	}
	growBatchFrac := float64(growBatches) / float64(batches)
	if e.growFrac > 0 {
		fmt.Fprintf(w, "vertex arrivals: %d (n %d -> %d); %d of %d batches grow (%.0f%%)\n",
			int(maxSeen)+1-g.NumVertices(), g.NumVertices(), int(maxSeen)+1,
			growBatches, batches, 100*growBatchFrac)
	}

	engOpts := vebo.EngineOptions{
		Sockets:          cfg.Topology.Sockets,
		ThreadsPerSocket: cfg.Topology.ThreadsPerSocket,
	}
	stable := vebo.DynamicOptions{
		Partitions:             64,
		RebuildThreshold:       1 << 40,
		VertexRebuildThreshold: 1 << 40,
		Engine:                 engOpts,
	}
	scratch := stable
	scratch.DisableViewReuse = true
	type row struct {
		name    string
		opts    vebo.DynamicOptions
		work    vebo.ViewWork
		elapsed time.Duration
	}
	rows := []row{
		{name: "patched", opts: stable},
		{name: "rebuild", opts: scratch},
		{name: "maintained", opts: vebo.DynamicOptions{Partitions: 64, Engine: engOpts}},
	}
	ext := external(updates)
	fmt.Fprintf(w, "%-12s %8s %10s %14s %14s %14s %14s %9s\n",
		"config", "epochs", "epochs/s", "rebuildEdges", "patchedEdges", "relabeledEdges", "reusedEdges", "partReuse")
	for i := range rows {
		r := &rows[i]
		start := time.Now()
		d, err := vebo.NewDynamic(g, r.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		for b := range slices.Chunk(ext, reuseBatch) {
			if _, err := d.IngestBatch(b); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			v := d.View()
			for _, sys := range []vebo.System{vebo.Ligra, vebo.Polymer, vebo.GraphGrind} {
				if _, err := v.Engine(sys); err != nil {
					return fmt.Errorf("%s: %w", r.name, err)
				}
			}
		}
		r.work, r.elapsed = d.ViewWork(), time.Since(start)

		partTotal := r.work.PartitionsRebuilt + r.work.PartitionsReused + r.work.PartitionsRelabeled
		reuseFrac := 0.0
		if partTotal > 0 {
			reuseFrac = float64(r.work.PartitionsReused+r.work.PartitionsRelabeled) / float64(partTotal)
		}
		fmt.Fprintf(w, "%-12s %8d %10.1f %14d %14d %14d %14d %8.0f%%\n",
			r.name, r.work.Epochs,
			float64(r.work.Epochs)/r.elapsed.Seconds(),
			r.work.RebuildEdges, r.work.PatchedEdges, r.work.RelabeledEdges, r.work.ReusedEdges,
			100*reuseFrac)
	}

	// Construction work per row: edges through scratch builds plus patch
	// merges plus segment-relabel rewrites (reused edges are free), and the
	// GraphGrind patch accounting of every row that patches.
	modeled := map[string]float64{}
	for _, r := range rows {
		modeled[r.name+"_construction_edges"] = float64(r.work.RebuildEdges + r.work.PatchedEdges + r.work.RelabeledEdges)
		if r.opts.DisableViewReuse {
			continue
		}
		modeled[r.name+"_engine_patches"] = float64(r.work.EnginePatches)
		modeled[r.name+"_partitions_rebuilt"] = float64(r.work.PartitionsRebuilt)
		modeled[r.name+"_partitions_reused"] = float64(r.work.PartitionsReused)
		modeled[r.name+"_partitions_relabeled"] = float64(r.work.PartitionsRelabeled)
		modeled[r.name+"_relabeled_edges"] = float64(r.work.RelabeledEdges)
	}
	ratio := modeled["rebuild_construction_edges"] / modeled["patched_construction_edges"]
	maintainedRatio := modeled["rebuild_construction_edges"] / modeled["maintained_construction_edges"]
	modeled["work_ratio_patched"] = ratio
	fmt.Fprintf(w, "work ratio (rebuild/patched construction edges): %.1f×\n", ratio)
	fmt.Fprintf(w, "work ratio (rebuild/maintained construction edges): %.1f×\n", maintainedRatio)
	fmt.Fprintf(w, "wall ratio (rebuild/patched elapsed): %.1f×\n",
		rows[1].elapsed.Seconds()/rows[0].elapsed.Seconds())

	// The patched ratio is reported, not gated: a short quick run cannot be
	// held to a full-scale aspiration. On a growing stream, the stream must
	// keep growing, and headroom slots must make each growth epoch's
	// injection the identity outside the grown segments: a relabeled edge in
	// the frozen-placement row would be a fallback to a linear remap.
	var gates []Gate
	if e.growFrac > 0 {
		gates = append(gates, Gate{Name: "grow_batch_frac", Value: growBatchFrac, Threshold: 0.10, Pass: growBatchFrac >= 0.10})
	}
	gates = append(gates, Gate{Name: "work_ratio_maintained", Value: maintainedRatio, Threshold: e.maintainedMin, Pass: maintainedRatio > e.maintainedMin})
	if e.growFrac > 0 {
		relabeled := float64(rows[0].work.RelabeledEdges)
		gates = append(gates, Gate{Name: "odelta_relabeled_edges_patched", Value: relabeled, Threshold: 0, Pass: relabeled == 0})
	}
	return finish(cfg, Report{
		Experiment: e.name,
		Config:     ReportConfig{Scale: cfg.Scale, Seed: cfg.Seed, Ops: len(updates), Batch: reuseBatch, Quick: cfg.Quick},
		Gates:      gates,
		Modeled:    modeled,
	})
}

// external converts a gen stream into IngestBatch updates, which admit its
// vertices under internal IDs equal to their stream IDs.
func external(updates []graph.EdgeUpdate) []vebo.ExternalEdgeUpdate {
	ext := make([]vebo.ExternalEdgeUpdate, len(updates))
	for i, u := range updates {
		ext[i] = vebo.ExternalEdgeUpdate{
			Time: u.Time, Src: uint64(u.Src), Dst: uint64(u.Dst), Weight: u.Weight, Del: u.Del,
		}
	}
	return ext
}
