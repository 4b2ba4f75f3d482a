// Frameworks runs the same BFS and connected-components computation on all
// three framework models (Ligra-, Polymer- and GraphGrind-style) with and
// without VEBO, and compares the modeled execution times — a miniature of
// the paper's Table III demonstrating that statically scheduled systems
// benefit most from load balancing.
//
//	go run ./examples/frameworks
package main

import (
	"fmt"
	"log"

	vebo "repro"
)

func main() {
	g, err := vebo.Generate("livejournal", 0.1, 11)
	if err != nil {
		log.Fatal(err)
	}
	const partitions = 192
	res, err := vebo.Reorder(g, partitions)
	if err != nil {
		log.Fatal(err)
	}
	rg, err := res.Apply(g)
	if err != nil {
		log.Fatal(err)
	}

	// Pick the highest-out-degree vertex as BFS root; map it through the
	// permutation for the reordered run.
	var root vebo.VertexID
	var best int64 = -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(vebo.VertexID(v)); d > best {
			best = d
			root = vebo.VertexID(v)
		}
	}

	fmt.Printf("%-12s %-6s %14s %14s %9s\n", "system", "algo", "original", "vebo", "speedup")
	for _, sys := range []vebo.System{vebo.Ligra, vebo.Polymer, vebo.GraphGrind} {
		origEng, err := vebo.NewEngine(sys, g, vebo.EngineOptions{Partitions: partitions})
		if err != nil {
			log.Fatal(err)
		}
		veboEng, err := vebo.NewEngine(sys, rg, vebo.EngineOptions{
			Partitions: partitions, Bounds: res.Boundaries(),
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, algo := range []string{"BFS", "CC"} {
			origEng.Metrics().Reset()
			veboEng.Metrics().Reset()
			switch algo {
			case "BFS":
				vebo.BFS(origEng, root)
				vebo.BFS(veboEng, res.Perm()[root])
			case "CC":
				vebo.CC(origEng)
				vebo.CC(veboEng)
			}
			to := origEng.Metrics().ModelTime
			tv := veboEng.Metrics().ModelTime
			fmt.Printf("%-12s %-6s %14d %14d %8.2fx\n",
				sys, algo, to, tv, float64(to)/float64(tv))
		}
	}
	fmt.Println("\n(times are modeled cost units; see DESIGN.md on the timing substitution)")
}
