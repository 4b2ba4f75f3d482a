package algorithms

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graphgrind"
	"repro/internal/layout"
	"repro/internal/ligra"
	"repro/internal/numa"
	"repro/internal/polymer"
)

// stepsHash folds every step's Kind, TotalCost, Makespan and UnitCosts, the
// engine's ModelTime and the optional result bits into one FNV-64a digest.
func stepsHash(m *engine.Metrics, result []uint64) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(len(m.Steps)))
	for _, s := range m.Steps {
		put(int64(s.Kind))
		put(s.TotalCost)
		put(s.Makespan)
		put(int64(len(s.UnitCosts)))
		for _, c := range s.UnitCosts {
			put(c)
		}
	}
	put(m.ModelTime)
	put(int64(len(result)))
	for _, b := range result {
		put(int64(b))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func f64Bits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// pinnedEngines builds the three framework models over g and its transpose
// gt (the BC backward sweep's graph) on topology top.
func pinnedEngines(t *testing.T, g, gt *graph.Graph, top numa.Topology) [][2]engine.Engine {
	t.Helper()
	var out [][2]engine.Engine
	for _, build := range []func(*graph.Graph) (engine.Engine, error){
		func(g *graph.Graph) (engine.Engine, error) { return ligra.New(g, top), nil },
		func(g *graph.Graph) (engine.Engine, error) { return polymer.New(g, polymer.Config{Topology: top}) },
		func(g *graph.Graph) (engine.Engine, error) {
			return graphgrind.New(g, graphgrind.Config{Topology: top, Partitions: 48, Order: layout.CSROrder})
		},
	} {
		e, err := build(g)
		if err != nil {
			t.Fatal(err)
		}
		eT, err := build(gt)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]engine.Engine{e, eT})
	}
	return out
}

// TestModeledStepsPinned pins the modeled plane: for every algorithm on
// every engine, a digest of each step's cost accounting and the total
// modeled time. Kernel rewrites that keep the modeled plane bit for bit must
// leave these digests unchanged.
//
// BFS, PageRank, SPMV, BP and BC run on the paper's 4×12 topology: their
// step costs depend only on the frontiers and on per-destination state one
// worker owns, so they are deterministic under any goroutine interleaving.
// The dense-only float kernels (PageRank, SPMV, BP) also pin their result
// bits. CC, BellmanFord, PageRankDelta and the relaxation and resume
// kernels read source values other units lower (or accumulate in push
// order) within a step, so their frontiers, and with them their costs,
// depend on goroutine order; they run on a 1×1 topology, one worker.
func TestModeledStepsPinned(t *testing.T) {
	g := testGraph(t)
	gt := g.Transpose()
	n := g.NumVertices()
	root := graph.VertexID(3)
	x := make([]float64, n)
	prior := make([]float64, n)
	labels := make([]uint32, n)
	for i := range x {
		x[i] = float64(i%17) * 0.25
		prior[i] = math.Sin(float64(i)) * 0.1
		labels[i] = uint32(i)
	}
	// A resume delta over g itself: three edges with distinct sources
	// treated as inserted since the basis.
	var adds []graph.Edge
	seen := map[graph.VertexID]bool{}
	for _, e := range g.Edges() {
		if !seen[e.Src] && len(adds) < 3 {
			adds = append(adds, e)
			seen[e.Src] = true
		}
	}

	type algo struct {
		name string
		run  func(e, eT engine.Engine) []uint64
	}
	wide := []algo{
		{"bfs", func(e, _ engine.Engine) []uint64 { BFS(e, root); return nil }},
		{"pagerank", func(e, _ engine.Engine) []uint64 { return f64Bits(PageRank(e, 5)) }},
		{"spmv", func(e, _ engine.Engine) []uint64 { return f64Bits(SPMV(e, x)) }},
		{"bp", func(e, _ engine.Engine) []uint64 { return f64Bits(BP(e, 3, prior)) }},
		{"bc", func(e, eT engine.Engine) []uint64 { BC(e, eT, root); return nil }},
	}
	narrow := []algo{
		{"cc", func(e, _ engine.Engine) []uint64 { CC(e); return nil }},
		{"bellmanford", func(e, _ engine.Engine) []uint64 { BellmanFord(e, root); return nil }},
		{"pagerankdelta", func(e, _ engine.Engine) []uint64 { PageRankDelta(e, 20, 1e-2); return nil }},
		{"bfsdepths", func(e, _ engine.Engine) []uint64 { BFSDepths(e, root); return nil }},
		{"ccseeded", func(e, _ engine.Engine) []uint64 { CCSeeded(e, labels); return nil }},
		{"pagerankresume", func(e, _ engine.Engine) []uint64 {
			rank := PageRankDelta(e, 30, 1e-6)
			e.Metrics().Reset()
			PageRankResume(e, rank, graph.Delta{Adds: adds}, n, 30, 1e-6)
			return nil
		}},
	}
	want := map[string]string{
		"graphgrind/bc":             "64004eef75d4700d+4aef4abdcbc7193e",
		"graphgrind/bellmanford":    "af39dc89ddc09ee9",
		"graphgrind/bfs":            "669329f9bdb930fd",
		"graphgrind/bfsdepths":      "540101585238b0ed",
		"graphgrind/bp":             "fb49f365149988b3",
		"graphgrind/cc":             "d703d1b6ed0fdb8f",
		"graphgrind/ccseeded":       "3fdd1923e4be56e8",
		"graphgrind/pagerank":       "8e88bac75f677808",
		"graphgrind/pagerankdelta":  "52fc8099549ed57e",
		"graphgrind/pagerankresume": "9b915db67f192020",
		"graphgrind/spmv":           "d9815601d1ff23a4",
		"ligra/bc":                  "ad60c669ab5deffb+de84746f1f1ae835",
		"ligra/bellmanford":         "44828821280e3161",
		"ligra/bfs":                 "88b61bbe5dc0463f",
		"ligra/bfsdepths":           "4e646f46973e2b39",
		"ligra/bp":                  "67533770a7ddd87c",
		"ligra/cc":                  "268d1a9aa67cfd92",
		"ligra/ccseeded":            "2590d71fa2d774ad",
		"ligra/pagerank":            "1e5ba209399b71d4",
		"ligra/pagerankdelta":       "b13fdfd5ab90ef0e",
		"ligra/pagerankresume":      "a45b5c954cf998a4",
		"ligra/spmv":                "e45708c36b8a07ef",
		"polymer/bc":                "0f6d183503a1148d+217dd3ea38a8ffb4",
		"polymer/bellmanford":       "6bb1f934836eecec",
		"polymer/bfs":               "c889c50d0644f69d",
		"polymer/bfsdepths":         "677db155a3668c4c",
		"polymer/bp":                "83e98cdb54abcc8b",
		"polymer/cc":                "e5a9b32f279ce38b",
		"polymer/ccseeded":          "3f2e33e1005ec2c5",
		"polymer/pagerank":          "cf60db9fb5b5171c",
		"polymer/pagerankdelta":     "a387b781f21ad6de",
		"polymer/pagerankresume":    "c12bb00aadf88258",
		"polymer/spmv":              "9d8325de7bb59b53",
	}

	got := map[string]string{}
	for _, set := range []struct {
		top   numa.Topology
		algos []algo
	}{
		{numa.Default(), wide},
		{numa.Topology{Sockets: 1, ThreadsPerSocket: 1}, narrow},
	} {
		for _, a := range set.algos {
			for _, pair := range pinnedEngines(t, g, gt, set.top) {
				e, eT := pair[0], pair[1]
				res := a.run(e, eT)
				key := e.Name() + "/" + a.name
				got[key] = stepsHash(e.Metrics(), res)
				if a.name == "bc" {
					got[key] += "+" + stepsHash(eT.Metrics(), nil)
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(want))
	}
	for key, h := range got {
		if want[key] != h {
			t.Errorf("%s: modeled steps digest %s, want %s", key, h, want[key])
		}
	}
}

// TestOrderDependentStepsRepeatOnOneP runs the kernels whose step costs
// depend on goroutine order (TestModeledStepsPinned's narrow set) twice on
// the paper's 4×12 topology under GOMAXPROCS=1, with fresh engines each
// time. There every parallel loop runs on one goroutine, which takes its
// units in order, so the two runs must hash alike. Under more than one P
// they need not.
func TestOrderDependentStepsRepeatOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := testGraph(t)
	gt := g.Transpose()
	n := g.NumVertices()
	root := graph.VertexID(3)
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	adds := g.Edges()[:3]
	kernels := []struct {
		name string
		run  func(e engine.Engine)
	}{
		{"cc", func(e engine.Engine) { CC(e) }},
		{"bellmanford", func(e engine.Engine) { BellmanFord(e, root) }},
		{"pagerankdelta", func(e engine.Engine) { PageRankDelta(e, 20, 1e-2) }},
		{"bfsdepths", func(e engine.Engine) { BFSDepths(e, root) }},
		{"ccseeded", func(e engine.Engine) { CCSeeded(e, labels) }},
		{"pagerankresume", func(e engine.Engine) {
			rank := PageRankDelta(e, 30, 1e-6)
			e.Metrics().Reset()
			PageRankResume(e, rank, graph.Delta{Adds: adds}, n, 30, 1e-6)
		}},
	}
	hashes := func() map[string]string {
		out := map[string]string{}
		for _, k := range kernels {
			for _, pair := range pinnedEngines(t, g, gt, numa.Default()) {
				k.run(pair[0])
				out[pair[0].Name()+"/"+k.name] = stepsHash(pair[0].Metrics(), nil)
			}
		}
		return out
	}
	first, second := hashes(), hashes()
	for key, h := range first {
		if second[key] != h {
			t.Errorf("%s: modeled steps digest %s, then %s", key, h, second[key])
		}
	}
}
