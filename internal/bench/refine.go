package bench

import (
	"fmt"
	"slices"
	"sort"
	"time"

	vebo "repro"
	"repro/internal/gen"
)

// refineEpochs fixes the stream length per batch-size configuration: every
// epoch is queried (the capture chain lives on the queried views — a skipped
// epoch breaks the seed lineage), so the cost knob is the epoch count, not a
// query sampling rate.
// 32 epochs give each timed series 31 samples, enough that its p95 and
// p99 are distinct samples.
const (
	refineEpochs      = 32
	refineQuickEpochs = 6
	refineGrowFrac    = 0.02
)

// refineBatches is the batch-size sweep, largest first; the smallest batch
// is the gated serving regime, where a query-heavy workload leaves the
// per-epoch delta tiny and refinement should win by the widest margin.
var refineBatches = []int{512, 128, 32}
var refineQuickBatches = []int{96, 32}

// Refine is an extension experiment (not a paper table): it measures result
// patching across epochs (View.Refine*, DESIGN.md §5d) against equal-answer
// scratch queries. A powerlaw churn stream with vertex growth is replayed at
// several ingest batch sizes; after every batch the fresh view answers BFS
// and PageRank twice — refined from the basis capture, and from scratch (BFS
// cold traversal; PageRank cold delta-iteration converged to the same ε).
// Engines are pre-built before timing so both variants measure pure query
// work, and the first epoch (scratch seeding of the capture chain) is
// excluded from the timed window. A second dynamic graph replays the same
// stream and times the first RefineBFS of each fresh view without building
// anything first (variant "fresh"): the query a serving reader pays, which
// reads rows through the view's overlay until a dense step or the overlay
// bound derives the graph. The gate requires refinement to beat scratch on
// both algorithms at the smallest batch.
func Refine(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	epochs := refineEpochs
	batches := refineBatches
	if cfg.Quick {
		epochs = refineQuickEpochs
		batches = refineQuickBatches
	}
	engOpts := vebo.EngineOptions{
		Sockets:          cfg.Topology.Sockets,
		ThreadsPerSocket: cfg.Topology.ThreadsPerSocket,
	}
	const sys = vebo.Ligra
	fmt.Fprintf(w, "== Extension: result refinement across epochs (powerlaw, %d epochs/config, %s) ==\n",
		epochs, sys)

	type cell struct {
		durs    []time.Duration
		elapsed time.Duration
	}
	type config struct {
		batch   int
		refined map[string]*cell // alg -> refined-query latencies
		scratch map[string]*cell // alg -> scratch-query latencies
		fresh   *cell            // first RefineBFS on a view nothing built for
		paths   map[string]int   // refine path -> count (bfs)
		totalOp int
	}
	var runs []config

	for _, batch := range batches {
		ops := epochs * batch
		g, updates, err := gen.StreamFromRecipe("powerlaw", cfg.Scale, ops, cfg.Seed,
			gen.RecipeStreamOptions{GrowFrac: refineGrowFrac})
		if err != nil {
			return err
		}
		d, err := vebo.NewDynamic(g, vebo.DynamicOptions{Partitions: 64, Engine: engOpts})
		if err != nil {
			return err
		}
		df, err := vebo.NewDynamic(g, vebo.DynamicOptions{Partitions: 64, Engine: engOpts})
		if err != nil {
			return err
		}
		c := config{
			batch:   batch,
			refined: map[string]*cell{"bfs": {}, "pagerank": {}},
			scratch: map[string]*cell{"bfs": {}, "pagerank": {}},
			fresh:   &cell{},
			paths:   map[string]int{},
			totalOp: len(updates),
		}
		ext := external(updates)
		epoch := 0
		for b := range slices.Chunk(ext, batch) {
			if _, err := df.IngestBatch(b); err != nil {
				return err
			}
			t0 := time.Now()
			if _, _, err := df.View().RefineBFS(sys, 0); err != nil {
				return err
			}
			if epoch > 0 {
				c.fresh.durs = append(c.fresh.durs, time.Since(t0))
			}

			if _, err := d.IngestBatch(b); err != nil {
				return err
			}
			v := d.View()
			if _, err := v.Engine(sys); err != nil {
				return err
			}
			timed := epoch > 0 // epoch 0 seeds the capture chain from scratch

			t0 = time.Now()
			_, st, err := v.RefineBFS(sys, 0)
			if err != nil {
				return err
			}
			if timed {
				c.refined["bfs"].durs = append(c.refined["bfs"].durs, time.Since(t0))
				c.paths[st.Path]++
			}
			t0 = time.Now()
			if _, err := v.BFS(sys, 0); err != nil {
				return err
			}
			if timed {
				c.scratch["bfs"].durs = append(c.scratch["bfs"].durs, time.Since(t0))
			}

			t0 = time.Now()
			if _, _, err := v.RefinePageRank(sys, 0); err != nil {
				return err
			}
			if timed {
				c.refined["pagerank"].durs = append(c.refined["pagerank"].durs, time.Since(t0))
			}
			t0 = time.Now()
			if _, err := v.PageRankDelta(sys, 400, vebo.DefaultRefineEps); err != nil {
				return err
			}
			if timed {
				c.scratch["pagerank"].durs = append(c.scratch["pagerank"].durs, time.Since(t0))
			}
			epoch++
		}
		runs = append(runs, c)
	}

	stats := func(durs []time.Duration) (p50, p95, p99, mean float64) {
		if len(durs) == 0 {
			return
		}
		s := append([]time.Duration(nil), durs...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		q := func(f float64) float64 {
			i := int(f * float64(len(s)-1))
			return float64(s[i]) / 1e6
		}
		var sum time.Duration
		for _, d := range s {
			sum += d
		}
		return q(0.50), q(0.95), q(0.99), float64(sum) / float64(len(s)) / 1e6
	}
	series := func(alg, variant string, batch int, c *cell) LatencySeries {
		p50, p95, p99, mean := stats(c.durs)
		var total time.Duration
		for _, d := range c.durs {
			total += d
		}
		s := LatencySeries{
			Op: "query", Alg: alg, System: sys.String(), Variant: variant, Batch: batch,
			Count: int64(len(c.durs)), P50Ms: p50, P95Ms: p95, P99Ms: p99, MeanMs: mean,
		}
		if total > 0 {
			s.OpsPerSec = float64(s.Count) / total.Seconds()
		}
		return s
	}

	var allSeries []LatencySeries
	speedup := map[string]float64{}
	fmt.Fprintf(w, "%6s %-9s %12s %12s %12s %12s %9s\n",
		"batch", "alg", "refined p50", "refined mean", "scratch p50", "scratch mean", "speedup")
	for _, c := range runs {
		for _, alg := range []string{"bfs", "pagerank"} {
			rs := series(alg, "refined", c.batch, c.refined[alg])
			ss := series(alg, "scratch", c.batch, c.scratch[alg])
			allSeries = append(allSeries, rs, ss)
			ratio := 0.0
			if rs.MeanMs > 0 {
				ratio = ss.MeanMs / rs.MeanMs
			}
			if c.batch == batches[len(batches)-1] {
				speedup[alg] = ratio
			}
			fmt.Fprintf(w, "%6d %-9s %10.3fms %10.3fms %10.3fms %10.3fms %8.1f×\n",
				c.batch, alg, rs.P50Ms, rs.MeanMs, ss.P50Ms, ss.MeanMs, ratio)
		}
		fs := series("bfs", "fresh", c.batch, c.fresh)
		allSeries = append(allSeries, fs)
		fmt.Fprintf(w, "%6d %-9s %10.3fms %10.3fms (first RefineBFS of a fresh view)\n",
			c.batch, "bfs fresh", fs.P50Ms, fs.MeanMs)
		fmt.Fprintf(w, "%6d paths: refined=%d scratch-seed=%d fallback=%d\n",
			c.batch, c.paths[vebo.RefineRefined], c.paths[vebo.RefineScratchSeed],
			c.paths[vebo.RefineScratchFallback])
	}

	small := batches[len(batches)-1]
	fmt.Fprintf(w, "refine speedup at batch %d: bfs %.1f× pagerank %.1f×\n",
		small, speedup["bfs"], speedup["pagerank"])
	return finish(cfg, Report{
		Experiment: "refine",
		Config:     ReportConfig{Scale: cfg.Scale, Seed: cfg.Seed, Ops: runs[len(runs)-1].totalOp, Batch: small, Quick: cfg.Quick},
		Series:     allSeries,
		Gates: []Gate{
			{Name: "refine_speedup_bfs", Value: speedup["bfs"], Threshold: 1, Pass: speedup["bfs"] > 1},
			{Name: "refine_speedup_pagerank", Value: speedup["pagerank"], Threshold: 1, Pass: speedup["pagerank"] > 1},
		},
	})
}
