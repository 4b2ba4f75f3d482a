// Command vebo reorders a graph with the VEBO heuristic, mirroring the
// paper's artifact CLI:
//
//	vebo -r 100 -p 384 original.adj reordered.adj
//
// where -r names a start vertex to track through the reordering, -p the
// number of partitions, and the positional arguments are the input and
// output graphs in (Weighted)AdjacencyGraph format. The output graph is
// isomorphic to the input; the tool prints the achieved vertex and edge
// balance and the new ID of the tracked vertex.
//
// The stream subcommand replays a synthetic edge-update stream against a
// workload recipe graph through the dynamic subsystem (internal/dynamic),
// reporting maintenance work and the final balance next to a full reorder:
//
//	vebo stream -recipe powerlaw -scale 0.2 -ops 100000 -batch 1024 -p 64
//
// The serve subcommand runs the same stream through the epoch-pinned View
// API with one ingest goroutine and N concurrent query goroutines, the
// serving topology the facade is built for:
//
//	vebo serve -recipe powerlaw -scale 0.2 -ops 50000 -batch 256 -queriers 4 -alg pagerank
//
// While serving it exposes the observability endpoints on -http (default: an
// ephemeral localhost port, printed at startup): /metrics (Prometheus text),
// /metrics.json, /spans (the causal span ring as Chrome Trace Event JSON)
// and /debug/pprof. A stats line prints every -stats interval, and
// SIGINT/SIGTERM stops the ingest gracefully, prints the summary and
// flushes the final metrics and span trace to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	vebo "repro"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

func runStream(args []string) error {
	fs := flag.NewFlagSet("vebo stream", flag.ExitOnError)
	recipe := fs.String("recipe", "powerlaw", "workload recipe to stream against")
	scale := fs.Float64("scale", 0.2, "graph scale factor (1.0 ≈ 10^5 vertices)")
	ops := fs.Int("ops", 100_000, "number of edge updates to replay")
	batch := fs.Int("batch", 1024, "updates per ingestion batch")
	parts := fs.Int("p", dynamic.DefaultPartitions, "number of graph partitions maintained live")
	threshold := fs.Int64("threshold", 0, "Δ(n) maintenance threshold (0: default)")
	compactEvery := fs.Int("compact", 0, "delta-log compaction bound (0: default)")
	grow := fs.Float64("grow", 0, "per-insertion vertex-arrival probability (new vertices are admitted on the fly)")
	seed := fs.Int64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("stream: unexpected positional argument %q (stream takes flags only)", fs.Arg(0))
	}
	if *batch < 1 {
		return fmt.Errorf("stream: -batch must be at least 1, got %d", *batch)
	}
	if *ops < 0 {
		return fmt.Errorf("stream: -ops must be non-negative, got %d", *ops)
	}
	if *parts < 1 {
		return fmt.Errorf("stream: -p must be at least 1, got %d", *parts)
	}

	g, updates, err := gen.StreamFromRecipeOpts(*recipe, *scale, *ops, *seed,
		gen.RecipeStreamOptions{GrowFrac: *grow})
	if err != nil {
		return err
	}
	fmt.Printf("generated %s: %d vertices, %d edges, %d-update stream\n",
		*recipe, g.NumVertices(), g.NumEdges(), len(updates))

	start := time.Now()
	d, err := dynamic.New(g, dynamic.Config{
		Partitions: *parts, RebuildThreshold: *threshold, CompactEvery: *compactEvery,
		AutoGrow: *grow > 0,
	})
	if err != nil {
		return err
	}
	fmt.Printf("initial ordering in %v: Δ(n)=%d δ(n)=%d over %d partitions\n",
		time.Since(start).Round(time.Millisecond), d.EdgeImbalance(), d.VertexImbalance(), *parts)

	start = time.Now()
	batches := 0
	for lo := 0; lo < len(updates); lo += *batch {
		hi := lo + *batch
		if hi > len(updates) {
			hi = len(updates)
		}
		if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
			return err
		}
		batches++
	}
	elapsed := time.Since(start)
	st := d.Stats()
	fmt.Printf("replayed %d updates (%d batches) in %v: %.0f updates/s\n",
		st.Updates, batches, elapsed.Round(time.Millisecond),
		float64(st.Updates)/elapsed.Seconds())
	fmt.Printf("maintenance: %d repairs (%d vertices), %d full rebuilds, %d compactions\n",
		st.Repairs, st.RepairedVertices, st.FullRebuilds, st.Compactions)
	if st.Admitted > 0 {
		free, capacity := d.Headroom()
		fmt.Printf("admitted %d vertices (n now %d); headroom %d/%d slots occupied, %d relabeling spills\n",
			st.Admitted, d.NumVertices(), capacity-free, capacity, st.HeadroomSpills)
	}
	fmt.Printf("final Δ(n)=%d δ(n)=%d, live edges %d\n",
		d.EdgeImbalance(), d.VertexImbalance(), d.NumEdges())

	// Compare against a from-scratch reorder of the post-stream graph.
	start = time.Now()
	snap := d.Snapshot()
	scratch, err := core.Reorder(snap, *parts, core.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("full reorder of final graph in %v: Δ(n)=%d δ(n)=%d\n",
		time.Since(start).Round(time.Millisecond), scratch.EdgeImbalance(), scratch.VertexImbalance())
	rebuildEvery := int64(batches) * int64(g.NumVertices())
	fmt.Printf("work: %d incremental placements vs %d for reorder-every-batch (%.1f× less)\n",
		st.Placements, rebuildEvery, float64(rebuildEvery)/float64(st.Placements))
	return nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("vebo serve", flag.ExitOnError)
	recipe := fs.String("recipe", "powerlaw", "workload recipe to stream against")
	scale := fs.Float64("scale", 0.2, "graph scale factor (1.0 ≈ 10^5 vertices)")
	ops := fs.Int("ops", 50_000, "number of edge updates to ingest")
	batch := fs.Int("batch", 256, "updates per ingestion batch (one view epoch each)")
	parts := fs.Int("p", dynamic.DefaultPartitions, "number of graph partitions maintained live")
	queriers := fs.Int("queriers", 4, "concurrent query goroutines")
	alg := fs.String("alg", "pagerank", "query workload: pagerank, bfs, cc or bc")
	system := fs.String("system", "graphgrind", "framework model serving queries: ligra, polymer or graphgrind")
	threshold := fs.Int64("threshold", 0, "Δ(n) maintenance threshold (0: default, scaled adaptively with the degree spread)")
	vthreshold := fs.Int64("vthreshold", 0, "δ(n) maintenance threshold (0: default)")
	grow := fs.Float64("grow", 0, "per-insertion vertex-arrival probability (new vertices are admitted on the fly)")
	noreuse := fs.Bool("noreuse", false, "rebuild engines from scratch every epoch instead of patching")
	pace := fs.Duration("pace", 0, "delay between ingestion batches (0: ingest at full speed)")
	seed := fs.Int64("seed", 42, "generator seed")
	httpAddr := fs.String("http", "127.0.0.1:0", "address serving /metrics, /metrics.json, /spans and /debug/pprof (empty: disabled)")
	statsEvery := fs.Duration("stats", 5*time.Second, "interval between periodic stats lines (0: disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected positional argument %q (serve takes flags only)", fs.Arg(0))
	}
	if *batch < 1 || *ops < 0 || *parts < 1 || *queriers < 1 {
		return fmt.Errorf("serve: -batch, -p and -queriers must be positive, -ops non-negative")
	}
	var sys vebo.System
	switch strings.ToLower(*system) {
	case "ligra":
		sys = vebo.Ligra
	case "polymer":
		sys = vebo.Polymer
	case "graphgrind":
		sys = vebo.GraphGrind
	default:
		return fmt.Errorf("serve: unknown system %q", *system)
	}
	switch *alg {
	case "pagerank", "bfs", "cc", "bc":
	default:
		return fmt.Errorf("serve: unknown query workload %q", *alg)
	}

	g, updates, err := gen.StreamFromRecipeOpts(*recipe, *scale, *ops, *seed,
		gen.RecipeStreamOptions{GrowFrac: *grow})
	if err != nil {
		return err
	}
	fmt.Printf("generated %s: %d vertices, %d edges, %d-update stream\n",
		*recipe, g.NumVertices(), g.NumEdges(), len(updates))

	d, err := vebo.NewDynamic(g, vebo.DynamicOptions{
		Partitions:             *parts,
		RebuildThreshold:       *threshold,
		VertexRebuildThreshold: *vthreshold,
		AutoGrow:               *grow > 0,
		DisableViewReuse:       *noreuse,
	})
	if err != nil {
		return err
	}

	// Observability endpoints: the dynamic graph's registry and span ring
	// plus the standard pprof handlers, on an ephemeral port by default.
	if *httpAddr != "" {
		ln, lerr := net.Listen("tcp", *httpAddr)
		if lerr != nil {
			return fmt.Errorf("serve: -http listen: %w", lerr)
		}
		mux := http.NewServeMux()
		obs.Register(mux, d.Metrics(), d.Spans())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics (and /metrics.json, /spans, /debug/pprof)\n", ln.Addr())
	}

	// Graceful shutdown: SIGINT/SIGTERM stops the ingest loop at the next
	// batch boundary; the summary and a final metrics+spans flush follow.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	n := g.NumVertices()
	var queries, queryNanos, staleSum atomic.Int64
	var queryErrOnce sync.Once
	var queryErr error
	done := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < *queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := q; ; i += 7 {
				select {
				case <-done:
					return
				default:
				}
				v := d.View()
				root := vebo.VertexID(i % n)
				qs := time.Now()
				var qerr error
				switch *alg {
				case "pagerank":
					_, qerr = v.PageRank(sys, 10)
				case "bfs":
					_, qerr = v.BFS(sys, root)
				case "cc":
					_, qerr = v.CC(sys)
				case "bc":
					_, qerr = v.BC(sys, root)
				}
				if qerr != nil {
					queryErrOnce.Do(func() { queryErr = fmt.Errorf("query (%s/%s): %w", *system, *alg, qerr) })
					return
				}
				queries.Add(1)
				queryNanos.Add(int64(time.Since(qs)))
				staleSum.Add(d.View().Epoch() - v.Epoch())
			}
		}(q)
	}

	// Periodic stats line, read entirely from the atomic registry handles so
	// it never races the ingest writer.
	if *statsEvery > 0 {
		reg := d.Metrics()
		qh := reg.Histogram("vebo_query_ns", "alg", *alg, "sys", sys.String())
		ageH := reg.Histogram("vebo_epoch_age_ns")
		lagH := reg.Histogram("vebo_publish_lag_ns")
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					var hrFree int64
					for p := 0; p < *parts; p++ {
						hrFree += reg.Gauge("vebo_headroom_slots", "partition", strconv.Itoa(p)).Value()
					}
					fmt.Printf("[stats] epoch=%d edges=%d Δ=%d pending=%d hr_free=%d spills=%d backlog=%d served=%d q_p50=%v q_p99=%v age_p99=%v lag_p99=%v\n",
						reg.Gauge("vebo_epoch").Value(),
						reg.Gauge("vebo_live_edges").Value(),
						reg.Gauge("vebo_edge_imbalance").Value(),
						reg.Gauge("vebo_pending_ops").Value(),
						hrFree,
						reg.Counter("vebo_headroom_spill_total").Value(),
						reg.Gauge("vebo_delta_backlog").Value(),
						queries.Load(),
						time.Duration(qh.Quantile(0.50)).Round(time.Microsecond),
						time.Duration(qh.Quantile(0.99)).Round(time.Microsecond),
						time.Duration(ageH.Quantile(0.99)).Round(time.Microsecond),
						time.Duration(lagH.Quantile(0.99)).Round(time.Microsecond))
				}
			}
		}()
	}

	start := time.Now()
	batches, ingested := 0, 0
	interrupted := false
	for lo := 0; lo < len(updates) && !interrupted; lo += *batch {
		select {
		case <-ctx.Done():
			interrupted = true
			continue
		default:
		}
		hi := lo + *batch
		if hi > len(updates) {
			hi = len(updates)
		}
		if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
			close(done)
			wg.Wait()
			return err
		}
		batches++
		ingested = hi
		if *pace > 0 {
			time.Sleep(*pace)
		}
	}
	ingestElapsed := time.Since(start)
	close(done)
	wg.Wait()
	wall := time.Since(start)
	if queryErr != nil {
		return queryErr
	}

	if interrupted {
		fmt.Printf("interrupted: stopped ingest after %d of %d updates\n", ingested, len(updates))
	}
	served := queries.Load()
	fmt.Printf("ingested %d updates (%d batches) in %v while serving: %.0f updates/s\n",
		ingested, batches, ingestElapsed.Round(time.Millisecond),
		float64(ingested)/ingestElapsed.Seconds())
	fmt.Printf("served %d %s/%s queries from %d goroutines: %.1f queries/s",
		served, *system, *alg, *queriers, float64(served)/wall.Seconds())
	if served > 0 {
		fmt.Printf(", mean latency %v, mean staleness %.0f updates",
			(time.Duration(queryNanos.Load()) / time.Duration(served)).Round(time.Microsecond),
			float64(staleSum.Load())/float64(served))
	}
	fmt.Println()
	work := d.ViewWork()
	fmt.Printf("views: %d epochs published; engine builds %d full / %d patched (%d partitions reused, %d relabeled, %d rebuilt)\n",
		work.Epochs, work.EngineBuilds, work.EnginePatches,
		work.PartitionsReused, work.PartitionsRelabeled, work.PartitionsRebuilt)
	fmt.Printf("construction edges: %d rebuilt, %d patched, %d relabeled, %d reused\n",
		work.RebuildEdges, work.PatchedEdges, work.RelabeledEdges, work.ReusedEdges)
	st := d.Stats()
	fmt.Printf("maintenance: %d repairs (%d swaps), %d full rebuilds\n",
		st.Repairs, st.Swaps, st.FullRebuilds)
	if st.Admitted > 0 {
		free, capacity := d.Headroom()
		fmt.Printf("admitted %d vertices (n now %d); headroom %d/%d slots occupied, %d relabeling spills\n",
			st.Admitted, d.NumVertices(), capacity-free, capacity, st.HeadroomSpills)
	}
	edge, vert := d.Imbalance()
	fmt.Printf("final Δ(n)=%d δ(n)=%d over %d partitions\n", edge, vert, *parts)
	reg := d.Metrics()
	fmt.Printf("staleness: epoch age p50=%v p99=%v, publish lag p99=%v, delta backlog=%d\n",
		time.Duration(reg.Histogram("vebo_epoch_age_ns").Quantile(0.50)).Round(time.Microsecond),
		time.Duration(reg.Histogram("vebo_epoch_age_ns").Quantile(0.99)).Round(time.Microsecond),
		time.Duration(reg.Histogram("vebo_publish_lag_ns").Quantile(0.99)).Round(time.Microsecond),
		reg.Gauge("vebo_delta_backlog").Value())

	// On interrupt, flush the complete final state so a scrape-free run still
	// leaves a machine-readable record of where the pipeline stopped.
	if interrupted {
		fmt.Println("--- final metrics (prometheus text) ---")
		if err := d.Metrics().WritePrometheus(os.Stdout); err != nil {
			return err
		}
		fmt.Println("--- final spans (chrome trace json) ---")
		if err := d.Spans().WriteChromeTrace(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func run() error {
	track := flag.Int("r", -1, "vertex to track through the reordering (-1: none)")
	parts := flag.Int("p", 384, "number of graph partitions")
	noBlocks := flag.Bool("noblocks", false, "disable the degree-block locality refinement")
	flag.Parse()
	if flag.NArg() != 2 {
		return fmt.Errorf("usage: vebo [-r vertex] [-p partitions] <input.adj> <output.adj>")
	}

	in, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	g, err := graph.ReadAdjacency(in)
	if err != nil {
		return fmt.Errorf("reading %s: %w", flag.Arg(0), err)
	}
	fmt.Printf("loaded %s: %d vertices, %d edges\n", flag.Arg(0), g.NumVertices(), g.NumEdges())

	start := time.Now()
	r, err := core.Reorder(g, *parts, core.Options{DisableLocalityBlocks: *noBlocks})
	if err != nil {
		return err
	}
	rg, err := core.Apply(g, r)
	if err != nil {
		return err
	}
	fmt.Printf("reordered in %v: δ(n)=%d Δ(n)=%d over %d partitions\n",
		time.Since(start).Round(time.Millisecond), r.VertexImbalance(), r.EdgeImbalance(), *parts)
	if *track >= 0 && *track < g.NumVertices() {
		fmt.Printf("vertex %d -> new ID %d (partition %d)\n",
			*track, r.Perm[*track], r.PartitionOf[*track])
	}

	out, err := os.Create(flag.Arg(1))
	if err != nil {
		return err
	}
	defer out.Close()
	if err := graph.WriteAdjacency(out, rg); err != nil {
		return fmt.Errorf("writing %s: %w", flag.Arg(1), err)
	}
	fmt.Printf("wrote %s\n", flag.Arg(1))
	return nil
}

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "stream":
		err = runStream(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "serve":
		err = runServe(os.Args[2:])
	default:
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vebo:", err)
		os.Exit(1)
	}
}
