package vebo_test

// One benchmark per paper table/figure (regenerating it at reduced scale via
// the internal/bench harness), plus micro-benchmarks of the core pipeline
// stages and ablation benchmarks for the design choices DESIGN.md §4 calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks write their report to the benchmark log on -v.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	vebo "repro"
	"repro/internal/algorithms"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/engine/enginetest"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphgrind"
	"repro/internal/layout"
	"repro/internal/numa"
	"repro/internal/order"
	"repro/internal/partition"
)

// benchConfig is the reduced-scale configuration used by the per-experiment
// benchmarks; the full-scale runs are done by cmd/bench.
func benchConfig() bench.Config {
	return bench.Config{
		Scale:      0.05,
		Seed:       42,
		Partitions: 48,
		Topology:   numa.Topology{Sockets: 4, ThreadsPerSocket: 2},
		Out:        io.Discard,
	}
}

func benchmarkExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(name, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-table/figure experiment benchmarks (DESIGN.md §3 index).

func BenchmarkFig1PartitionTimes(b *testing.B)       { benchmarkExperiment(b, "fig1") }
func BenchmarkTable1Characterization(b *testing.B)   { benchmarkExperiment(b, "table1") }
func BenchmarkTable3Runtimes(b *testing.B)           { benchmarkExperiment(b, "table3") }
func BenchmarkTable4SparseFrontier(b *testing.B)     { benchmarkExperiment(b, "table4") }
func BenchmarkFig4Microarchitecture(b *testing.B)    { benchmarkExperiment(b, "fig4") }
func BenchmarkFig5RandomPermutation(b *testing.B)    { benchmarkExperiment(b, "fig5") }
func BenchmarkTable5VertexVsEdgeMap(b *testing.B)    { benchmarkExperiment(b, "table5") }
func BenchmarkFig6SpaceFillingCurves(b *testing.B)   { benchmarkExperiment(b, "fig6") }
func BenchmarkTable6ReorderingOverhead(b *testing.B) { benchmarkExperiment(b, "table6") }

// Micro-benchmarks of the pipeline stages.

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		N: 50_000, S: 1.0, MaxDegree: 1000, ZeroInFrac: 0.14,
		SourceSkew: 0.6, IDCorrelation: 0.5, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkVEBOReorder(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Reorder(g, 384, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumVertices()), "vertices")
}

func BenchmarkRCMReorder(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order.RCM(g)
	}
}

func BenchmarkGorderReorder(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order.Gorder(g, order.GorderConfig{MaxSiblingDegree: 64})
	}
}

func BenchmarkApplyPermutation(b *testing.B) {
	g := benchGraph(b)
	r, err := core.Reorder(g, 384, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Apply(g, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHilbertOrderBuild(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Build(g, layout.HilbertOrder); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSRCOOBuild(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Build(g, layout.CSROrder); err != nil {
			b.Fatal(err)
		}
	}
}

// Layer micro-benchmarks of the per-epoch path: one dirty-partition COO
// rebuild, a GraphGrind engine patch, the Ligra and Polymer scratch builds
// and a graph row patch, each at a fixed delta size, then epoch capture and
// publication at a fixed delta-log size.

// BenchmarkBuildRange builds one GraphGrind-sized partition's COO (the
// middle partition of an edge-balanced 384-way split).
func BenchmarkBuildRange(b *testing.B) {
	g := benchGraph(b)
	parts, err := partition.ByDestination(g, graphgrind.DefaultPartitions)
	if err != nil {
		b.Fatal(err)
	}
	pt := parts[len(parts)/2]
	for _, o := range []layout.Order{layout.CSROrder, layout.HilbertOrder} {
		b.Run(o.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := layout.BuildRange(g, pt.Lo, pt.Hi, o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.Edges), "edges")
		})
	}
}

// benchDelta draws half adds and half deletions of distinct live edge
// occurrences, with the deletions named through perm (nil = identity) as a
// patch expects.
func benchDelta(g *graph.Graph, updates int, perm []graph.VertexID, seed int64) (adds, dels []graph.Edge) {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	live := g.Edges()
	for i := 0; i < updates/2; i++ {
		j := rng.Intn(len(live))
		e := live[j]
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		if perm != nil {
			e.Src, e.Dst = perm[e.Src], perm[e.Dst]
		}
		dels = append(dels, e)
		adds = append(adds, graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: 1})
	}
	return adds, dels
}

// BenchmarkGraphGrindPatch patches a GraphGrind engine, at 64 partitions and
// at the paper's 384, after a 32-update delta: on the identity numbering,
// the partitions owning a touched destination are rebuilt and the rest are
// shared; under eight swapped vertex pairs (the shape a swap repair leaves),
// the partitions whose COOs name a moved source are remapped too; hub
// replaces 16 in-edges of the vertex of maximum in-degree, the largest set
// of runs one dirty destination cuts. new is the scratch build the patches
// replace.
func BenchmarkGraphGrindPatch(b *testing.B) {
	g := benchGraph(b)
	n := g.NumVertices()
	swaps := make([]graph.VertexID, n)
	for v := range swaps {
		swaps[v] = graph.VertexID(v)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		a, c := rng.Intn(n), rng.Intn(n)
		swaps[a], swaps[c] = swaps[c], swaps[a]
	}
	hub := graph.VertexID(0)
	for v := range graph.VertexID(n) {
		if g.InDegree(v) > g.InDegree(hub) {
			hub = v
		}
	}
	type patchCase struct {
		name       string
		perm       []graph.VertexID
		adds, dels []graph.Edge
	}
	var cases []patchCase
	for _, perm := range [][]graph.VertexID{nil, swaps} {
		adds, dels := benchDelta(g, 32, perm, 1)
		name := "identity"
		if perm != nil {
			name = "swaps"
		}
		cases = append(cases, patchCase{name, perm, adds, dels})
	}
	hubCase := patchCase{name: "hub"}
	for _, s := range g.InNeighbors(hub)[:16] {
		hubCase.dels = append(hubCase.dels, graph.Edge{Src: s, Dst: hub, Weight: 1})
		hubCase.adds = append(hubCase.adds, graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: hub, Weight: 1})
	}
	cases = append(cases, hubCase)
	for _, parts := range []int{64, 384} {
		cfg := graphgrind.Config{
			Topology:   numa.Default(),
			Partitions: parts,
			Order:      layout.CSROrder,
		}
		gg, err := graphgrind.New(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, tc := range cases {
			d := swapDelta(tc.adds, tc.dels, tc.perm)
			g2, _, err := g.Patch(n, d)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("p%d/%s", parts, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, _, err := gg.Patch(g2, d); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("p%d/new", parts), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := graphgrind.New(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewEngine builds the Ligra and Polymer engines a view derives
// from scratch on every epoch, over BenchmarkGraphGrindPatch's graph.
func BenchmarkNewEngine(b *testing.B) {
	g := benchGraph(b)
	for _, sys := range []vebo.System{vebo.Ligra, vebo.Polymer} {
		b.Run(sys.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := vebo.NewEngine(sys, g, vebo.EngineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// swapDelta is the within-lineage Delta of the change adds, dels under the
// slot map perm (nil: nothing moves), with perm's non-fixed slots as Moved.
func swapDelta(adds, dels []graph.Edge, perm []graph.VertexID) graph.Delta {
	d := graph.Delta{Adds: adds, Dels: dels, Seg: perm}
	for v, s := range perm {
		if s != graph.VertexID(v) {
			d.Moved = append(d.Moved, graph.VertexID(v))
		}
	}
	return d
}

// BenchmarkPatch derives a graph by a 128-update delta, on the identity
// numbering, under eight swapped vertex pairs (the shape a swap repair
// leaves), and into 32 appended headroom slots half its adds reach (growth);
// with a 16k-update delta, the write-heavy shape in which most rows merge;
// with that dense delta on a weighted copy of the graph; and across a
// lineage break (broken), a fresh numbering of every vertex with the
// 128-update delta in its slots, which renumbers. near-total applies the
// netted delta of one ingest_heavy queried epoch (ingestEpoch) to its
// 20k-vertex base, the write-heavy shape in which about 70% of rows merge.
// lineage derives 64 graphs in a chain, each from the last by a 128-update
// delta on the identity numbering, the shape of an ingest stream's epochs,
// so the cost of the folds a chain takes is amortised in.
func BenchmarkPatch(b *testing.B) {
	g := benchGraph(b)
	n := g.NumVertices()
	swaps := make([]graph.VertexID, n)
	for v := range swaps {
		swaps[v] = graph.VertexID(v)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		a, c := rng.Intn(n), rng.Intn(n)
		swaps[a], swaps[c] = swaps[c], swaps[a]
	}
	es := g.Edges()
	for i := range es {
		es[i].Weight = int32(1 + rng.Intn(100))
	}
	wg, err := graph.FromEdges(n, es, true)
	if err != nil {
		b.Fatal(err)
	}
	fresh := make([]graph.VertexID, n)
	for v, s := range rand.New(rand.NewSource(4)).Perm(n) {
		fresh[v] = graph.VertexID(s)
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		updates int
		perm    []graph.VertexID // the slot map; nil: the identity
		broken  bool
		grow    int // appended slots, each the source of one of the adds
	}{
		{"identity", g, 128, nil, false, 0},
		{"swaps", g, 128, swaps, false, 0},
		{"growth", g, 128, nil, false, 32},
		{"broken", g, 128, fresh, true, 0},
		{"dense", g, 16 << 10, nil, false, 0},
		{"weighted", wg, 16 << 10, nil, false, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			adds, dels := benchDelta(tc.g, tc.updates, tc.perm, 3)
			for i := range tc.grow {
				adds[i].Src = graph.VertexID(n + i)
			}
			d := swapDelta(adds, dels, tc.perm)
			if tc.broken {
				d = graph.Delta{Adds: adds, Dels: dels, Seg: tc.perm, Broken: true}
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := tc.g.Patch(n+tc.grow, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("near-total", func(b *testing.B) {
		base, before, after := ingestEpoch(b)
		adds, dels, _ := after.Since(before)
		d := graph.Delta{Adds: adds, Dels: dels}
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := base.Patch(base.NumVertices(), d); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(base.NumEdges()), "edges")
		b.ReportMetric(float64(len(adds)), "adds")
		b.ReportMetric(float64(len(dels)), "dels")
	})
	b.Run("lineage", func(b *testing.B) {
		const steps, updates = 64, 128
		adds, dels := make([][]graph.Edge, steps), make([][]graph.Edge, steps)
		live := g.Edges()
		for i := range steps {
			for range updates / 2 {
				j := rng.Intn(len(live))
				dels[i] = append(dels[i], live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				adds[i] = append(adds[i], graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: 1})
			}
			live = append(live, adds[i]...)
		}
		b.ReportAllocs()
		for b.Loop() {
			h := g
			for i := range steps {
				if h, _, err = h.Patch(n, graph.Delta{Adds: adds[i], Dels: dels[i]}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// benchInserts draws batches of random edge insertions over n vertices.
func benchInserts(n, batches, size int, seed int64) [][]graph.EdgeUpdate {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]graph.EdgeUpdate, batches)
	for i := range out {
		out[i] = make([]graph.EdgeUpdate, size)
		for j := range out[i] {
			out[i][j] = graph.EdgeUpdate{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n))}
		}
	}
	return out
}

// pendingLog64k is the delta-log size the epoch-publication benchmarks run
// at; their CompactEvery sits far above it, so no compaction resets the log
// while they measure.
const pendingLog64k = 64 << 10

var benchFrozen dynamic.Frozen

// BenchmarkFreeze captures a dynamic graph holding a 64k-entry pending
// delta log, and separately builds the capture's snapshot in original IDs
// (FromEdges over the base's edges and the netted log).
func BenchmarkFreeze(b *testing.B) {
	g := benchGraph(b)
	d, err := dynamic.New(g, dynamic.Config{Partitions: 64, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for _, ups := range benchInserts(g.NumVertices(), pendingLog64k/1024, 1024, 5) {
		if _, err := d.ApplyBatch(ups); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("freeze", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			benchFrozen = d.Freeze()
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		f := d.Freeze()
		b.ReportAllocs()
		for b.Loop() {
			f.Snapshot()
		}
		b.ReportMetric(float64(f.NumEdges()), "edges")
	})
}

// ingestEpoch returns a dynamic graph's base and its captures before and
// after 32 batches of 1024 updates, the delta of one of ingest_heavy's
// queried epochs. The updates are the tail of a powerlaw 0.2 stream —
// ingest_heavy's graph and batch size — and the base is that graph plus
// the insertions of the stream's first 500k updates, about 1M edges on 20k
// vertices: ingest_heavy's graph midway through a run.
func ingestEpoch(b *testing.B) (*graph.Graph, dynamic.Frozen, dynamic.Frozen) {
	b.Helper()
	const warm, batches, batch = 500_000, 32, 1024
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.2, warm+batches*batch, 1, gen.RecipeStreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	es := g.Edges()
	for _, u := range updates[:warm] {
		if !u.Del {
			es = append(es, graph.Edge{Src: u.Src, Dst: u.Dst, Weight: 1})
		}
	}
	// Every edge the stream ever inserted stays, so each deletion in the
	// tail still finds its edge.
	if g, err = graph.FromEdges(g.NumVertices(), es, false); err != nil {
		b.Fatal(err)
	}
	d, err := dynamic.New(g, dynamic.Config{Partitions: 64, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	before := d.Freeze()
	for lo := warm; lo < len(updates); lo += batch {
		if _, err := d.ApplyBatch(updates[lo : lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
	return g, before, d.Freeze()
}

// BenchmarkFrozenSince nets the 32 × 1024-update log of one ingest_heavy
// queried epoch (ingestEpoch) into its delta, as a view does before its
// first derivation.
func BenchmarkFrozenSince(b *testing.B) {
	_, before, after := ingestEpoch(b)
	var adds, dels []graph.Edge
	b.ReportAllocs()
	for b.Loop() {
		adds, dels, _ = after.Since(before)
	}
	b.ReportMetric(float64(len(adds)), "adds")
	b.ReportMetric(float64(len(dels)), "dels")
}

// BenchmarkChangeSince derives the slot-space delta a view's derivations
// read (dynamic.Frozen.ChangeSince) across one epoch from a compaction base
// in the live ordering's slot space: swaps, a 1024-insertion batch whose
// swap repair moved vertices; growth, a batch admitting 64 vertices into
// headroom with 1024 insertions among old and new vertices, no maintenance.
func BenchmarkChangeSince(b *testing.B) {
	g := benchGraph(b)
	n := g.NumVertices()
	// epoch compacts d, applies one batch and returns the capture after it
	// with the base before it.
	epoch := func(d *dynamic.Graph, admit int, ups []graph.EdgeUpdate) (dynamic.Frozen, dynamic.SlotGraph, dynamic.BatchResult) {
		d.Compact()
		basis := *d.Latest()
		res, err := d.AdmitBatch(admit, ups)
		if err != nil {
			b.Fatal(err)
		}
		return d.Freeze(), basis, res
	}
	run := func(name string, d *dynamic.Graph, f dynamic.Frozen, basis dynamic.SlotGraph) {
		b.Run(name, func(b *testing.B) {
			perm, renum := d.Ordering().Perm, d.RenumEpoch()
			delta, ok := f.ChangeSince(basis, perm, renum)
			if !ok || delta.Broken {
				b.Fatalf("the epoch broke its numbering lineage (ok=%v)", ok)
			}
			b.ReportAllocs()
			for b.Loop() {
				f.ChangeSince(basis, perm, renum)
			}
			b.ReportMetric(float64(len(delta.Moved)), "moved")
			b.ReportMetric(float64(len(delta.Grown)), "grown")
		})
	}

	swaps, err := dynamic.New(g, dynamic.Config{Partitions: 64, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	batches := benchInserts(n, 64, 1024, 8)
	for i := 0; ; i++ {
		if i == len(batches) {
			b.Fatal("no batch was repaired by swaps alone")
		}
		f, basis, res := epoch(swaps, 0, batches[i])
		if res.Repaired && !res.Rebuilt {
			run("swaps", swaps, f, basis)
			break
		}
	}

	grow, err := dynamic.New(g, dynamic.Config{Partitions: 64, CompactEvery: 1 << 30, RebuildThreshold: 1 << 40, VertexRebuildThreshold: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	grow.Grow(1) // the first admission makes the ordering slotted, a renumbering
	f, basis, _ := epoch(grow, 64, benchInserts(n+65, 1, 1024, 9)[0])
	run("growth", grow, f, basis)
}

// BenchmarkPublish times one facade ApplyBatch of 1024 insertions — delta
// apply, maintenance and view publication — on a Dynamic whose pending log
// holds 64k entries and which no reader queries.
func BenchmarkPublish(b *testing.B) {
	g := benchGraph(b)
	d, err := vebo.NewDynamic(g, vebo.DynamicOptions{Partitions: 64, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for _, ups := range benchInserts(g.NumVertices(), pendingLog64k/1024, 1024, 6) {
		if _, err := d.ApplyBatch(ups); err != nil {
			b.Fatal(err)
		}
	}
	ring := benchInserts(g.NumVertices(), 16, 1024, 7)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := d.ApplyBatch(ring[i%len(ring)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

func BenchmarkPageRankIteration(b *testing.B) {
	g := benchGraph(b)
	for _, sys := range []vebo.System{vebo.Ligra, vebo.Polymer, vebo.GraphGrind} {
		b.Run(sys.String(), func(b *testing.B) {
			eng, err := vebo.NewEngine(sys, g, vebo.EngineOptions{Partitions: 384})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vebo.PageRank(eng, 1)
			}
			b.ReportMetric(float64(g.NumEdges())/float64(b.Elapsed().Seconds())*float64(b.N)/1e6, "Medges/s")
		})
	}
}

// benchmarkPerSystem runs query once per iteration on each framework model
// over g.
func benchmarkPerSystem(b *testing.B, g *graph.Graph, query func(eng vebo.Engine)) {
	for _, sys := range []vebo.System{vebo.Ligra, vebo.Polymer, vebo.GraphGrind} {
		b.Run(sys.String(), func(b *testing.B) {
			eng, err := vebo.NewEngine(sys, g, vebo.EngineOptions{Partitions: 384})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(eng)
			}
		})
	}
}

func BenchmarkBFS(b *testing.B) {
	g := benchGraph(b)
	root := pickHighDegree(g)
	benchmarkPerSystem(b, g, func(eng vebo.Engine) { vebo.BFS(eng, root) })
}

func BenchmarkCC(b *testing.B) {
	benchmarkPerSystem(b, benchGraph(b), func(eng vebo.Engine) { vebo.CC(eng) })
}

func BenchmarkBellmanFord(b *testing.B) {
	g := benchGraph(b)
	root := pickHighDegree(g)
	benchmarkPerSystem(b, g, func(eng vebo.Engine) { vebo.BellmanFord(eng, root) })
}

// BenchmarkSparseEdgeMap times one sparse BFS-kernel EdgeMap per op from a
// fixed frontier of every 100th vertex (1% of benchGraph's) on each
// framework model, GraphGrind at 384 partitions. GraphGrind's step bins its
// per-partition costs inside the push loop. The parent array and the step
// log are reset untimed before each op, so every op activates the same
// destinations.
func BenchmarkSparseEdgeMap(b *testing.B) {
	g := benchGraph(b)
	var srcs []graph.VertexID
	for v := 0; v < g.NumVertices(); v += 100 {
		srcs = append(srcs, graph.VertexID(v))
	}
	f := frontier.FromVertices(g, srcs)
	if f.ShouldBeDense(g.NumEdges()) {
		b.Fatalf("frontier of %d vertices and %d out-edges is dense", f.Count(), f.OutEdges())
	}
	parent := make([]int32, g.NumVertices())
	kernel := algorithms.BFSKernel(parent)
	for _, sys := range []vebo.System{vebo.Ligra, vebo.Polymer, vebo.GraphGrind} {
		b.Run(sys.String(), func(b *testing.B) {
			eng, err := vebo.NewEngine(sys, g, vebo.EngineOptions{Partitions: 384})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				b.StopTimer()
				for i := range parent {
					parent[i] = -1
				}
				eng.Metrics().Reset()
				b.StartTimer()
				eng.EdgeMap(f, kernel)
			}
		})
	}
}

// BenchmarkRefine times one refined query per op as the grow_refine
// workload answers them: powerlaw 0.1 at P=64 with 5% vertex arrivals, a
// 128-update IngestBatch publishing a fresh view before each query, which
// refines the previous view's capture on Ligra. The ingest and the view's
// Ligra engine derivation (BenchmarkPatch, BenchmarkNewEngine)
// are untimed and their allocations excluded, so an op is the refine
// driver alone. refined/op is the share of queries the refine path
// answered rather than a scratch fallback.
func BenchmarkRefine(b *testing.B) {
	queries := []struct {
		name string
		run  func(v *vebo.View) (vebo.RefineStats, error)
	}{
		{"bfs", func(v *vebo.View) (vebo.RefineStats, error) {
			_, st, err := v.RefineBFS(vebo.Ligra, 0)
			return st, err
		}},
		{"cc", func(v *vebo.View) (vebo.RefineStats, error) {
			_, st, err := v.RefineCC(vebo.Ligra)
			return st, err
		}},
		{"sssp", func(v *vebo.View) (vebo.RefineStats, error) {
			_, st, err := v.RefineSSSP(vebo.Ligra, 0)
			return st, err
		}},
	}
	const batch = 128
	for _, q := range queries {
		b.Run(q.name, func(b *testing.B) {
			g, ups, err := vebo.GenerateStreamOpts("powerlaw", 0.1, batch*(b.N+1), 1, vebo.StreamOptions{GrowFrac: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			ext := make([]vebo.ExternalEdgeUpdate, len(ups))
			for i, u := range ups {
				ext[i] = vebo.ExternalEdgeUpdate{Time: u.Time, Src: uint64(u.Src), Dst: uint64(u.Dst), Weight: u.Weight, Del: u.Del}
			}
			d, err := vebo.NewDynamic(g, vebo.DynamicOptions{Partitions: 64})
			if err != nil {
				b.Fatal(err)
			}
			// query ingests batch i, then answers on the view it published.
			query := func(i int) vebo.RefineStats {
				b.StopTimer()
				if _, err := d.IngestBatch(ext[i*batch : (i+1)*batch]); err != nil {
					b.Fatal(err)
				}
				v := d.View()
				if _, err := v.Engine(vebo.Ligra); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				st, err := q.run(v)
				if err != nil {
					b.Fatal(err)
				}
				return st
			}
			query(0) // seeds the capture chain
			refined := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if query(i).Path == vebo.RefineRefined {
					refined++
				}
			}
			b.ReportMetric(float64(refined)/float64(b.N), "refined/op")
		})
	}
}

// BenchmarkRefineFreshEpoch times the first refined query of a fresh
// view, as the grow_refine workload asks it: the stream and graph of
// BenchmarkRefine, a 128-update IngestBatch before each op (untimed), then
// one RefineBFS on Ligra with nothing built for the view. overlay answers
// it through the view's row overlay, deriving only when the overlay bound
// or a dense step asks; derived builds the view's engine, deriving its
// graph, inside the timed op first. The difference is the derivation an
// overlay read skips.
func BenchmarkRefineFreshEpoch(b *testing.B) {
	const batch = 128
	for _, derive := range []bool{false, true} {
		name := "overlay"
		if derive {
			name = "derived"
		}
		b.Run(name, func(b *testing.B) {
			g, ups, err := vebo.GenerateStreamOpts("powerlaw", 0.1, batch*(b.N+1), 1, vebo.StreamOptions{GrowFrac: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			ext := make([]vebo.ExternalEdgeUpdate, len(ups))
			for i, u := range ups {
				ext[i] = vebo.ExternalEdgeUpdate{Time: u.Time, Src: uint64(u.Src), Dst: uint64(u.Dst), Weight: u.Weight, Del: u.Del}
			}
			d, err := vebo.NewDynamic(g, vebo.DynamicOptions{Partitions: 64})
			if err != nil {
				b.Fatal(err)
			}
			query := func(i int) {
				b.StopTimer()
				if _, err := d.IngestBatch(ext[i*batch : (i+1)*batch]); err != nil {
					b.Fatal(err)
				}
				v := d.View()
				b.StartTimer()
				if derive {
					if _, err := v.Engine(vebo.Ligra); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := v.RefineBFS(vebo.Ligra, 0); err != nil {
					b.Fatal(err)
				}
			}
			query(0) // seeds the capture chain
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				query(i)
			}
		})
	}
}

func pickHighDegree(g *graph.Graph) graph.VertexID {
	var best graph.VertexID
	var bd int64 = -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.VertexID(v)); d > bd {
			bd = d
			best = graph.VertexID(v)
		}
	}
	return best
}

// Ablation benchmarks (DESIGN.md §4).

// Ablation 1: min-heap vs linear arg-min in VEBO's greedy phases.
func BenchmarkAblationArgMin(b *testing.B) {
	g := benchGraph(b)
	degrees := g.InDegrees()
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"heap", core.Options{}},
		{"linear", core.Options{LinearArgMin: true}},
	} {
		for _, p := range []int{48, 384, 3072} {
			b.Run(fmt.Sprintf("%s/P=%d", tc.name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.ReorderDegrees(degrees, p, tc.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Ablation 2: degree-block locality refinement on/off (cost of the extra
// pass; balance is identical by construction).
func BenchmarkAblationLocalityBlocks(b *testing.B) {
	g := benchGraph(b)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"blocks", core.Options{}},
		{"plain", core.Options{DisableLocalityBlocks: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Reorder(g, 384, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation 3: GraphGrind partition count sweep (the GraphGrind paper
// recommends 384; the crossover between scheduling overhead and balance).
func BenchmarkAblationPartitionCount(b *testing.B) {
	g := benchGraph(b)
	for _, p := range []int{48, 96, 192, 384, 768} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			eng, err := graphgrind.New(g, graphgrind.Config{
				Topology:   numa.Default(),
				Partitions: p,
				Order:      layout.CSROrder,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var makespan int64
			for i := 0; i < b.N; i++ {
				eng.Metrics().Reset()
				vebo.PageRank(eng, 1)
				makespan = eng.Metrics().ModelTime
			}
			b.ReportMetric(float64(makespan), "model-units")
		})
	}
}

// Ablation 4: Hilbert vs CSR COO order under the GraphGrind dense traversal.
func BenchmarkAblationCOOOrder(b *testing.B) {
	g := benchGraph(b)
	for _, o := range []layout.Order{layout.CSROrder, layout.HilbertOrder} {
		b.Run(o.String(), func(b *testing.B) {
			eng, err := graphgrind.New(g, graphgrind.Config{
				Topology:   numa.Default(),
				Partitions: 384,
				Order:      o,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vebo.PageRank(eng, 1)
			}
		})
	}
}

// Ablation 5: direction-optimization sensitivity — force all-sparse vs
// adaptive by exercising EdgeMap at different frontier densities.
func BenchmarkAblationFrontierDensity(b *testing.B) {
	g := benchGraph(b)
	eng, err := vebo.NewEngine(vebo.Ligra, g, vebo.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	kernel := enginetest.Const(false)
	for _, frac := range []int{1000, 100, 10, 1} {
		b.Run(fmt.Sprintf("active=1/%d", frac), func(b *testing.B) {
			var vs []graph.VertexID
			for v := 0; v < g.NumVertices(); v += frac {
				vs = append(vs, graph.VertexID(v))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := frontier.FromVertices(g, vs)
				eng.EdgeMap(f, kernel)
			}
		})
	}
}
