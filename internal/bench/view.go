package bench

import (
	"fmt"
	"time"

	vebo "repro"
	"repro/internal/gen"
)

// viewOps is the stream length at the default scale (0.2); other scales
// stream proportionally.
const viewOps = 10_000

// viewBatch is deliberately small relative to the partition count: engine
// reuse pays off exactly when a batch leaves most partitions untouched, the
// regime a serving system with frequent small ingest batches lives in.
const viewBatch = 64

// View is an extension experiment (not a paper table): it measures the
// engine-build amortization of the epoch-pinned View API. A powerlaw churn
// stream is replayed batch by batch; after every batch the freshly published
// view builds all three framework engines, either patched from the previous
// epoch's engines (dirty partitions only) or rebuilt from scratch
// (DisableViewReuse). Reported per configuration: published epochs, sustained
// epochs/sec including engine builds, and the construction work split
// (edges through full rebuilds vs patch merges vs carried over untouched).
// The work ratio compares rebuild-from-scratch construction work against the
// patched runs'.
func View(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	ops := int(float64(viewOps) * cfg.Scale / 0.2)
	if ops < 4*viewBatch {
		ops = 4 * viewBatch
	}
	if cfg.Quick {
		ops = 3 * viewBatch
	}
	g, updates, err := gen.StreamFromRecipe("powerlaw", cfg.Scale, ops, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Extension: epoch-pinned views (powerlaw, %d updates, batch %d, P=%d) ==\n",
		len(updates), viewBatch, 64)

	engOpts := vebo.EngineOptions{
		Sockets:          cfg.Topology.Sockets,
		ThreadsPerSocket: cfg.Topology.ThreadsPerSocket,
	}
	// The serving configuration: thresholds high enough that the placement
	// never moves at all, the maximum-reuse regime. The maintained row uses
	// the default thresholds, where placement-preserving swap repairs fire
	// almost every batch: patching must keep applying across those repair
	// epochs (work ratio > 1×), which is the property the quick/CI mode
	// enforces.
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
	run := func(name string, opts vebo.DynamicOptions) (row, error) {
		start := time.Now()
		d, err := vebo.NewDynamic(g, opts)
		if err != nil {
			return row{}, err
		}
		for lo := 0; lo < len(updates); lo += viewBatch {
			hi := lo + viewBatch
			if hi > len(updates) {
				hi = len(updates)
			}
			if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
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

	// Construction work per configuration: edges through scratch builds plus
	// patch merges plus segment-relabel rewrites (reused edges are free).
	constructionWork := func(r row) int64 {
		return r.work.RebuildEdges + r.work.PatchedEdges + r.work.RelabeledEdges
	}
	rebuildWork := constructionWork(rows[1])
	ratio := float64(rebuildWork) / float64(constructionWork(rows[0]))
	maintainedRatio := float64(rebuildWork) / float64(constructionWork(rows[2]))
	fmt.Fprintf(w, "work ratio (rebuild/patched construction edges): %.1f× (target ≥ 2×: %v)\n",
		ratio, ratio >= 2)
	fmt.Fprintf(w, "work ratio (rebuild/maintained construction edges): %.1f× (target > 1×: %v)\n",
		maintainedRatio, maintainedRatio > 1)
	fmt.Fprintf(w, "wall ratio (rebuild/patched elapsed): %.1f×\n\n",
		rows[1].elapsed.Seconds()/rows[0].elapsed.Seconds())
	if err := writeReport(cfg, Report{
		Experiment: "view",
		Config:     ReportConfig{Scale: cfg.Scale, Seed: cfg.Seed, Ops: len(updates), Batch: viewBatch, Quick: cfg.Quick},
		// The quick/CI contract enforces only the maintained-row ratio; the
		// 2× patched target is a full-scale aspiration, reported as modeled
		// data rather than a gate so short quick runs cannot fail on it.
		Gates: []Gate{
			{Name: "work_ratio_maintained", Value: maintainedRatio, Threshold: 1, Pass: maintainedRatio > 1},
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
	if cfg.Quick && maintainedRatio <= 1 {
		return fmt.Errorf("view: maintained-row work ratio %.2f× regressed to <= 1× — engine patching no longer applies under default-threshold maintenance", maintainedRatio)
	}
	return nil
}

// patchAccounting adds each named row's GraphGrind patch accounting to a
// report's modeled values, as <row>_<counter>, and returns them.
func patchAccounting(modeled map[string]float64, rows map[string]vebo.ViewWork) map[string]float64 {
	for name, w := range rows {
		modeled[name+"_engine_patches"] = float64(w.EnginePatches)
		modeled[name+"_partitions_rebuilt"] = float64(w.PartitionsRebuilt)
		modeled[name+"_partitions_reused"] = float64(w.PartitionsReused)
		modeled[name+"_partitions_relabeled"] = float64(w.PartitionsRelabeled)
		modeled[name+"_relabeled_edges"] = float64(w.RelabeledEdges)
	}
	return modeled
}
