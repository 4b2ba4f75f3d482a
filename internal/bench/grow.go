package bench

import (
	"fmt"
	"time"

	vebo "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// growOps is the stream length at the default scale (0.2); other scales
// stream proportionally.
const growOps = 10_000

// growBatch matches viewBatch: small batches are the serving regime where
// engine reuse pays.
const growBatch = 64

// growFrac is the per-insertion vertex-arrival probability. At 0.015 and
// batch 64 roughly half the batches admit at least one vertex — well above
// the ≥10% bar the experiment certifies — while the other half exercise the
// pure-churn fast path, the mix a live ingest tier actually sees.
const growFrac = 0.015

// Grow is an extension experiment (not a paper table): it measures engine
// reuse on a stream that interleaves vertex arrivals with edge churn, the
// regime the growable vertex space exists for. A powerlaw churn stream with
// a growth knob is replayed batch by batch; after every batch the freshly
// published view builds all three framework engines, patched from the
// previous epoch's (admissions land in reserved headroom slots, so grown
// partitions rebuild and every other partition is shared outright) or
// rebuilt from scratch (DisableViewReuse). The work ratio compares
// rebuild-from-scratch construction work against the patched runs'; in
// Quick mode a maintained ratio ≤ 2× — growth epochs falling back to
// linear remaps — is an error, as is any relabeled edge in the
// frozen-placement row, where the identity-outside-growth injection must
// make remap work exactly zero.
func Grow(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	ops := int(float64(growOps) * cfg.Scale / 0.2)
	if ops < 4*growBatch {
		ops = 4 * growBatch
	}
	if cfg.Quick {
		// Long enough to amortize the maintained row's warm-up repairs;
		// shorter streams under-report its steady-state work ratio.
		ops = 24 * growBatch
	}
	g, updates, err := gen.StreamFromRecipeOpts("powerlaw", cfg.Scale, ops, cfg.Seed,
		gen.RecipeStreamOptions{GrowFrac: growFrac})
	if err != nil {
		return err
	}

	// Count the batches that introduce new vertices (an endpoint at or
	// beyond the running vertex count).
	growBatches, batches := 0, 0
	maxSeen := graph.VertexID(g.NumVertices() - 1)
	for lo := 0; lo < len(updates); lo += growBatch {
		hi := lo + growBatch
		if hi > len(updates) {
			hi = len(updates)
		}
		batches++
		grew := false
		for _, u := range updates[lo:hi] {
			if u.Src > maxSeen {
				maxSeen = u.Src
				grew = true
			}
			if u.Dst > maxSeen {
				maxSeen = u.Dst
				grew = true
			}
		}
		if grew {
			growBatches++
		}
	}
	growBatchFrac := float64(growBatches) / float64(batches)
	fmt.Fprintf(w, "== Extension: growable vertex space (powerlaw, %d updates, batch %d, P=%d) ==\n",
		len(updates), growBatch, 64)
	fmt.Fprintf(w, "vertex arrivals: %d (n %d -> %d); %d of %d batches grow (%.0f%%)\n",
		int(maxSeen)+1-g.NumVertices(), g.NumVertices(), int(maxSeen)+1,
		growBatches, batches, 100*growBatchFrac)

	engOpts := vebo.EngineOptions{
		Sockets:          cfg.Topology.Sockets,
		ThreadsPerSocket: cfg.Topology.ThreadsPerSocket,
	}
	// Same three configurations as the view experiment, all ingesting the
	// stream through IngestBatch (see external): placement frozen (maximum
	// reuse), scratch rebuilds (the baseline the ratios divide by), and
	// default-threshold maintenance (repairs and growth active at once).
	stable := vebo.DynamicOptions{
		Partitions:             64,
		RebuildThreshold:       1 << 40,
		VertexRebuildThreshold: 1 << 40,
		Engine:                 engOpts,
	}
	scratch := stable
	scratch.DisableViewReuse = true
	maintained := vebo.DynamicOptions{Partitions: 64, Engine: engOpts}

	type row struct {
		name    string
		work    vebo.ViewWork
		elapsed time.Duration
	}
	ext := external(updates)
	run := func(name string, opts vebo.DynamicOptions) (row, error) {
		start := time.Now()
		d, err := vebo.NewDynamic(g, opts)
		if err != nil {
			return row{}, err
		}
		for lo := 0; lo < len(updates); lo += growBatch {
			hi := lo + growBatch
			if hi > len(updates) {
				hi = len(updates)
			}
			if _, err := d.IngestBatch(ext[lo:hi]); err != nil {
				return row{}, err
			}
			v := d.View()
			for _, sys := range []vebo.System{vebo.Ligra, vebo.Polymer, vebo.GraphGrind} {
				if _, err := v.Engine(sys); err != nil {
					return row{}, err
				}
			}
		}
		return row{name: name, work: d.ViewWork(), elapsed: time.Since(start)}, nil
	}

	rows := make([]row, 0, 3)
	for _, c := range []struct {
		name string
		opts vebo.DynamicOptions
	}{
		{"patched", stable},
		{"rebuild", scratch},
		{"maintained", maintained},
	} {
		r, err := run(c.name, c.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		rows = append(rows, r)
	}

	fmt.Fprintf(w, "%-12s %8s %10s %14s %14s %14s %14s %9s\n",
		"config", "epochs", "epochs/s", "rebuildEdges", "patchedEdges", "relabeledEdges", "reusedEdges", "partReuse")
	for _, r := range rows {
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

	constructionWork := func(r row) int64 {
		return r.work.RebuildEdges + r.work.PatchedEdges + r.work.RelabeledEdges
	}
	rebuildWork := constructionWork(rows[1])
	ratio := float64(rebuildWork) / float64(constructionWork(rows[0]))
	maintainedRatio := float64(rebuildWork) / float64(constructionWork(rows[2]))
	// Headroom slots make a growth epoch's injection the identity outside
	// the grown segments: the frozen-placement row must do zero remap work
	// (every relabeled edge would be a fallback to the pre-headroom linear
	// shift), and the bar for the maintained row matches the pure-churn
	// experiment's 2×.
	patchedRelabeled := rows[0].work.RelabeledEdges
	fmt.Fprintf(w, "work ratio (rebuild/patched construction edges): %.1f× (target > 1×: %v)\n",
		ratio, ratio > 1)
	fmt.Fprintf(w, "work ratio (rebuild/maintained construction edges): %.1f× (target > 2×: %v)\n",
		maintainedRatio, maintainedRatio > 2)
	fmt.Fprintf(w, "O(delta) growth: %d relabeled edges in the frozen-placement row (target 0: %v)\n",
		patchedRelabeled, patchedRelabeled == 0)
	fmt.Fprintf(w, "wall ratio (rebuild/patched elapsed): %.1f×\n\n",
		rows[1].elapsed.Seconds()/rows[0].elapsed.Seconds())
	if err := writeReport(cfg, Report{
		Experiment: "grow",
		Config:     ReportConfig{Scale: cfg.Scale, Seed: cfg.Seed, Ops: len(updates), Batch: growBatch, Quick: cfg.Quick},
		// Gates mirror exactly the checks Quick mode enforces in-process.
		Gates: []Gate{
			{Name: "grow_batch_frac", Value: growBatchFrac, Threshold: 0.10, Pass: growBatchFrac >= 0.10},
			{Name: "work_ratio_maintained", Value: maintainedRatio, Threshold: 2, Pass: maintainedRatio > 2},
			{Name: "odelta_relabeled_edges_patched", Value: float64(patchedRelabeled), Threshold: 0, Pass: patchedRelabeled == 0},
		},
		Modeled: patchAccounting(map[string]float64{
			"work_ratio_patched":            ratio,
			"rebuild_construction_edges":    float64(rebuildWork),
			"patched_construction_edges":    float64(constructionWork(rows[0])),
			"maintained_construction_edges": float64(constructionWork(rows[2])),
		}, map[string]vebo.ViewWork{"patched": rows[0].work, "maintained": rows[2].work}),
	}); err != nil {
		return err
	}
	if cfg.Quick {
		if growBatchFrac < 0.10 {
			return fmt.Errorf("grow: only %.0f%% of batches introduce vertices — the stream no longer exercises growth", 100*growBatchFrac)
		}
		if maintainedRatio <= 2 {
			return fmt.Errorf("grow: maintained-row work ratio %.2f× regressed to <= 2× — growth epochs are paying linear remaps again", maintainedRatio)
		}
		if patchedRelabeled != 0 {
			return fmt.Errorf("grow: frozen-placement row relabeled %d edges — growth injections are no longer the identity outside grown segments", patchedRelabeled)
		}
	}
	return nil
}

// external converts a gen growth stream into IngestBatch updates, which
// admit its vertices under internal IDs equal to their stream IDs.
func external(updates []graph.EdgeUpdate) []vebo.ExternalEdgeUpdate {
	ext := make([]vebo.ExternalEdgeUpdate, len(updates))
	for i, u := range updates {
		ext[i] = vebo.ExternalEdgeUpdate{
			Time: u.Time, Src: uint64(u.Src), Dst: uint64(u.Dst), Weight: u.Weight, Del: u.Del,
		}
	}
	return ext
}
