// Command bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bench -exp table3 -scale 0.2 -seed 42 -partitions 384
//	bench -exp all
//	bench -exp view -quick -json out/
//
// -exp view and -exp grow measure how much engine construction epoch-pinned
// views save over rebuilding from scratch, on a churn stream without and
// with vertex arrivals; -exp refine measures refined-vs-scratch query
// latency across ingest batch sizes (View.Refine*, DESIGN.md §5d). In
// -quick mode each of the three fails on any of its gates that did not
// pass. Wall-clock
// serving numbers come from the separate benchmark module (see
// benchmark/README.md). See DESIGN.md §3 for the experiment index and §6 for
// the JSON report schema.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/numa"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(bench.Experiments(), ", ")+", or all")
	scale := flag.Float64("scale", 0.2, "graph scale factor (1.0 ≈ 10^5 vertices per graph)")
	seed := flag.Int64("seed", 42, "generator seed")
	partitions := flag.Int("partitions", 384, "GraphGrind partition count")
	sockets := flag.Int("sockets", 4, "modeled NUMA sockets")
	threads := flag.Int("threads", 12, "modeled threads per socket")
	quick := flag.Bool("quick", false, "CI smoke mode: small graphs, few streaming batches, and fail on any gate that did not pass (view, grow, refine)")
	jsonDir := flag.String("json", "", "directory receiving BENCH_<experiment>.json reports (empty: no JSON)")
	baseline := flag.String("baseline", "", "directory of recorded BENCH_*.json baselines (e.g. bench-records/): after the run, compare the -json reports against them (tolerances.json honored) and exit 1 on regressions; use -exp none to compare without re-running")
	flag.Parse()

	if *quick {
		scaleSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				scaleSet = true
			}
		})
		if !scaleSet {
			*scale = 0.05
		}
	}
	cfg := bench.Config{
		Scale:      *scale,
		Seed:       *seed,
		Partitions: *partitions,
		Topology:   numa.Topology{Sockets: *sockets, ThreadsPerSocket: *threads},
		Out:        os.Stdout,
		Quick:      *quick,
		JSONDir:    *jsonDir,
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	// -exp none skips the experiments: with -baseline it turns the
	// invocation into a pure comparison of already-emitted reports (the CI
	// bench-regression step, run after the quick experiments filled -json).
	if *exp != "none" {
		if err := bench.Run(*exp, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if *baseline != "" {
		if *jsonDir == "" {
			fmt.Fprintln(os.Stderr, "bench: -baseline requires -json (the directory holding the current reports)")
			os.Exit(1)
		}
		rep, err := bench.CompareBaseline(*jsonDir, *baseline, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if rep.Regressions > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d metric(s) regressed beyond tolerance against %s\n",
				rep.Regressions, *baseline)
			os.Exit(1)
		}
	}
}
