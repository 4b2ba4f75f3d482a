package partition

// Streaming partitioners from the paper's related-work section (Section VI):
// LDG (Stanton & Kliot, KDD'12) and Fennel (Tsourakakis et al., WSDM'14).
// Both assign vertices to partitions in a single pass using a limited view
// of the graph, optimizing edge cut under a balance constraint — the
// computationally cheaper end of the partitioning spectrum the paper
// contrasts VEBO against. They are provided as comparison baselines for the
// "partitioners" extension experiment; VEBO deliberately ignores edge cut
// (Section VI: "VEBO is different. It explicitly avoids minimizing
// replication factor and edge cut").

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Assignment maps every vertex to a partition in [0, P).
type Assignment struct {
	P      int
	PartOf []uint32
}

// Validate checks that the assignment covers exactly [0, P).
func (a *Assignment) Validate() error {
	for v, p := range a.PartOf {
		if int(p) >= a.P {
			return fmt.Errorf("partition: vertex %d assigned to %d ≥ P=%d", v, p, a.P)
		}
	}
	return nil
}

// Sizes returns the number of vertices per partition.
func (a *Assignment) Sizes() []int64 {
	sizes := make([]int64, a.P)
	for _, p := range a.PartOf {
		sizes[p]++
	}
	return sizes
}

// EdgeCounts returns the number of in-edges per partition (edges are owned
// by their destination's partition, as in Algorithm 1).
func (a *Assignment) EdgeCounts(g *graph.Graph) []int64 {
	counts := make([]int64, a.P)
	for v := 0; v < g.NumVertices(); v++ {
		counts[a.PartOf[v]] += g.InDegree(graph.VertexID(v))
	}
	return counts
}

// EdgeCut returns the number of edges whose endpoints lie in different
// partitions — the objective streaming partitioners minimize and VEBO
// ignores.
func (a *Assignment) EdgeCut(g *graph.Graph) int64 {
	var cut int64
	for v := 0; v < g.NumVertices(); v++ {
		pv := a.PartOf[v]
		for _, w := range g.OutNeighbors(graph.VertexID(v)) {
			if a.PartOf[w] != pv {
				cut++
			}
		}
	}
	return cut
}

// Relabel converts the assignment into a vertex permutation that makes each
// partition a contiguous ID range (grouped in partition order, original
// order within a partition), so that assignment-based partitioners can feed
// the same engines as VEBO. It returns the permutation and the partition
// boundaries.
func (a *Assignment) Relabel() (perm []graph.VertexID, bounds []int64) {
	n := len(a.PartOf)
	sizes := a.Sizes()
	bounds = make([]int64, a.P+1)
	for p := 0; p < a.P; p++ {
		bounds[p+1] = bounds[p] + sizes[p]
	}
	next := make([]int64, a.P)
	copy(next, bounds[:a.P])
	perm = make([]graph.VertexID, n)
	for v := 0; v < n; v++ {
		p := a.PartOf[v]
		perm[v] = graph.VertexID(next[p])
		next[p]++
	}
	return perm, bounds
}

// neighborCounts tallies how many already-placed neighbours (either
// direction) of v sit in each partition.
func neighborCounts(g *graph.Graph, v graph.VertexID, placed []bool, partOf []uint32, counts []int64) {
	for i := range counts {
		counts[i] = 0
	}
	for _, w := range g.OutNeighbors(v) {
		if placed[w] {
			counts[partOf[w]]++
		}
	}
	for _, w := range g.InNeighbors(v) {
		if placed[w] {
			counts[partOf[w]]++
		}
	}
}

// LDG runs the Linear Deterministic Greedy streaming partitioner: vertices
// arrive in ID order and are placed on the partition maximizing
// |N(v) ∩ P_i| · (1 − |P_i|/C), where C is the per-partition capacity.
func LDG(g *graph.Graph, p int) (*Assignment, error) {
	if p <= 0 {
		return nil, fmt.Errorf("partition: LDG partition count must be positive, got %d", p)
	}
	n := g.NumVertices()
	capacity := float64(n)/float64(p) + 1
	a := &Assignment{P: p, PartOf: make([]uint32, n)}
	placed := make([]bool, n)
	sizes := make([]int64, p)
	counts := make([]int64, p)
	for v := 0; v < n; v++ {
		neighborCounts(g, graph.VertexID(v), placed, a.PartOf, counts)
		best, bestScore := 0, math.Inf(-1)
		for i := 0; i < p; i++ {
			if float64(sizes[i]) >= capacity {
				continue
			}
			score := float64(counts[i]) * (1 - float64(sizes[i])/capacity)
			if score > bestScore || (score == bestScore && sizes[i] < sizes[best]) {
				best, bestScore = i, score
			}
		}
		a.PartOf[v] = uint32(best)
		sizes[best]++
		placed[v] = true
	}
	return a, nil
}

// Fennel runs the Fennel streaming partitioner: vertex v goes to the
// partition maximizing |N(v) ∩ P_i| − α·γ·|P_i|^(γ−1), interpolating between
// edge-cut minimization and balance, with the paper-recommended γ = 1.5 and
// α = m·p^(γ−1)/n^γ (1 on an edgeless graph).
func Fennel(g *graph.Graph, p int) (*Assignment, error) {
	if p <= 0 {
		return nil, fmt.Errorf("partition: Fennel partition count must be positive, got %d", p)
	}
	const gamma = 1.5
	n := g.NumVertices()
	m := float64(g.NumEdges())
	alpha := 1.0
	if m > 0 {
		alpha = m * math.Pow(float64(p), gamma-1) / math.Pow(float64(n), gamma)
	}
	// hard cap to prevent degenerate all-in-one assignments on empty graphs
	capacity := 2*float64(n)/float64(p) + 1
	a := &Assignment{P: p, PartOf: make([]uint32, n)}
	placed := make([]bool, n)
	sizes := make([]int64, p)
	counts := make([]int64, p)
	for v := 0; v < n; v++ {
		neighborCounts(g, graph.VertexID(v), placed, a.PartOf, counts)
		best, bestScore := 0, math.Inf(-1)
		for i := 0; i < p; i++ {
			if float64(sizes[i]) >= capacity {
				continue
			}
			score := float64(counts[i]) - alpha*gamma*math.Pow(float64(sizes[i]), gamma-1)
			if score > bestScore || (score == bestScore && sizes[i] < sizes[best]) {
				best, bestScore = i, score
			}
		}
		a.PartOf[v] = uint32(best)
		sizes[best]++
		placed[v] = true
	}
	return a, nil
}

// FromRanges converts contiguous range partitions into an Assignment, so
// Algorithm 1 and VEBO boundaries can be compared with streaming
// partitioners under the same metrics.
func FromRanges(parts []Partition, n int) *Assignment {
	a := &Assignment{P: len(parts), PartOf: make([]uint32, n)}
	for i, pt := range parts {
		for v := pt.Lo; v < pt.Hi; v++ {
			a.PartOf[v] = uint32(i)
		}
	}
	return a
}
