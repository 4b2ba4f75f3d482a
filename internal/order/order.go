// Package order implements the vertex-reordering baselines the paper
// compares VEBO against: the original (identity) order, a uniformly random
// permutation, plain degree sorting, Reverse Cuthill-McKee (RCM) and Gorder.
// Every algorithm returns a permutation perm with perm[old] = new, the same
// convention as internal/core.
package order

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Identity returns the identity permutation (the paper's "Orig." column).
func Identity(g *graph.Graph) []graph.VertexID {
	perm := make([]graph.VertexID, g.NumVertices())
	for i := range perm {
		perm[i] = graph.VertexID(i)
	}
	return perm
}

// Random returns a uniformly random permutation (Section V-C).
func Random(g *graph.Graph, seed int64) []graph.VertexID {
	rng := rand.New(rand.NewSource(seed))
	perm := make([]graph.VertexID, g.NumVertices())
	for i, p := range rng.Perm(g.NumVertices()) {
		perm[i] = graph.VertexID(p)
	}
	return perm
}

// DegreeSort orders vertices by decreasing in-degree (ties by ascending
// original ID). This is the "high-to-low" order of Section V-G.
func DegreeSort(g *graph.Graph) []graph.VertexID {
	n := g.NumVertices()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	deg := g.InDegrees()
	sort.SliceStable(idx, func(a, b int) bool { return deg[idx[a]] > deg[idx[b]] })
	perm := make([]graph.VertexID, n)
	for newID, old := range idx {
		perm[old] = graph.VertexID(newID)
	}
	return perm
}

// RCM computes the Reverse Cuthill-McKee ordering: a BFS from a low-degree
// peripheral vertex, visiting neighbours in increasing-degree order, with
// the final level order reversed. RCM minimizes matrix bandwidth; the paper
// uses it as a locality-oriented baseline. Directions are ignored (the
// union of in- and out-neighbours is traversed) and disconnected components
// are each seeded from their lowest-degree unvisited vertex.
func RCM(g *graph.Graph) []graph.VertexID {
	n := g.NumVertices()
	// total degree per vertex for seed and neighbour ordering
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		deg[v] = g.InDegree(graph.VertexID(v)) + g.OutDegree(graph.VertexID(v))
	}
	// vertices sorted by degree: candidate seeds
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = i
	}
	sort.SliceStable(seeds, func(a, b int) bool { return deg[seeds[a]] < deg[seeds[b]] })

	visited := make([]bool, n)
	cm := make([]graph.VertexID, 0, n) // Cuthill-McKee visit order
	queue := make([]graph.VertexID, 0, 1024)
	var nbrBuf []graph.VertexID
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], graph.VertexID(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			cm = append(cm, v)
			nbrBuf = nbrBuf[:0]
			nbrBuf = append(nbrBuf, g.OutNeighbors(v)...)
			nbrBuf = append(nbrBuf, g.InNeighbors(v)...)
			sort.Slice(nbrBuf, func(a, b int) bool {
				if deg[nbrBuf[a]] != deg[nbrBuf[b]] {
					return deg[nbrBuf[a]] < deg[nbrBuf[b]]
				}
				return nbrBuf[a] < nbrBuf[b]
			})
			for _, w := range nbrBuf {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	// reverse
	perm := make([]graph.VertexID, n)
	for i, v := range cm {
		perm[v] = graph.VertexID(n - 1 - i)
	}
	return perm
}

// GorderConfig parameterizes Gorder. The zero value uses the paper's
// defaults (window 5, unbounded sibling enumeration).
type GorderConfig struct {
	Window int // sliding window size w; 0 means the Gorder default of 5
	// MaxSiblingDegree caps the sibling pass: in-neighbours with more than
	// this many out-edges are skipped when propagating shared-parent scores
	// (0 = unlimited). Gorder is O(Σ deg_in·deg_out), which explodes on
	// graphs with prolific sources; the cap bounds it at the cost of
	// slightly weaker hub placement. The benchmarks use a cap so that the
	// Table III/VI sweeps finish; the comparison remains conservative since
	// capping only makes Gorder faster.
	MaxSiblingDegree int
}

// Gorder computes the Gorder ordering (Wei et al., SIGMOD'16): a greedy
// sequence that repeatedly appends the vertex with the largest number of
// relations — direct edges or shared in-neighbours (siblings) — to the last
// w placed vertices. Priorities are kept in a lazy max-heap; when a vertex
// enters or leaves the window, the scores of its out-neighbours and of its
// in-neighbours' out-neighbours are adjusted. The sibling pass makes the
// algorithm O(Σ_v deg_in(v)·deg_out(v)) — far more expensive than VEBO,
// which is part of the paper's Table VI comparison.
func Gorder(g *graph.Graph, cfg GorderConfig) []graph.VertexID {
	w := cfg.Window
	if w <= 0 {
		w = 5
	}
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	score := make([]int64, n)
	placed := make([]bool, n)
	// lazy max-heap of (score, vertex)
	h := &lazyMaxHeap{}
	// start from the highest in-degree vertex (Gorder's convention: start
	// from the vertex with max degree).
	start := graph.VertexID(0)
	var bestDeg int64 = -1
	for v := 0; v < n; v++ {
		if d := g.InDegree(graph.VertexID(v)); d > bestDeg {
			bestDeg = d
			start = graph.VertexID(v)
		}
	}
	maxSib := int64(cfg.MaxSiblingDegree)
	adjustFrom := func(u graph.VertexID, delta int64, bump func(graph.VertexID, int64)) {
		for _, v := range g.OutNeighbors(u) {
			bump(v, delta)
		}
		for _, p := range g.InNeighbors(u) {
			if maxSib > 0 && g.OutDegree(p) > maxSib {
				continue
			}
			for _, v := range g.OutNeighbors(p) {
				bump(v, delta)
			}
		}
	}
	bump := func(v graph.VertexID, delta int64) {
		if placed[v] {
			return
		}
		score[v] += delta
		if delta > 0 {
			h.push(heapItem{score[v], v})
		}
		// negative deltas are handled lazily: stale heap entries are
		// discarded on pop.
	}

	seq := make([]graph.VertexID, 0, n)
	window := make([]graph.VertexID, 0, w)
	place := func(v graph.VertexID) {
		placed[v] = true
		seq = append(seq, v)
		window = append(window, v)
		adjustFrom(v, 1, bump)
		if len(window) > w {
			old := window[0]
			window = window[1:]
			adjustFrom(old, -1, bump)
		}
	}
	place(start)
	for len(seq) < n {
		var next graph.VertexID
		found := false
		for h.len() > 0 {
			it := h.pop()
			if !placed[it.v] && score[it.v] == it.score {
				next = it.v
				found = true
				break
			}
		}
		if !found {
			// disconnected remainder: take the unplaced vertex with the
			// highest in-degree for determinism.
			bestDeg = -1
			for v := 0; v < n; v++ {
				if !placed[v] {
					if d := g.InDegree(graph.VertexID(v)); d > bestDeg {
						bestDeg = d
						next = graph.VertexID(v)
					}
				}
			}
		}
		place(next)
	}
	perm := make([]graph.VertexID, n)
	for newID, v := range seq {
		perm[v] = graph.VertexID(newID)
	}
	return perm
}

type heapItem struct {
	score int64
	v     graph.VertexID
}

// lazyMaxHeap is a binary max-heap of (score, vertex) pairs that tolerates
// stale entries; consumers must validate popped items against the current
// score table.
type lazyMaxHeap struct{ items []heapItem }

func (h *lazyMaxHeap) len() int { return len(h.items) }

func (h *lazyMaxHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.greater(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *lazyMaxHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h.items) && h.greater(l, largest) {
			largest = l
		}
		if r < len(h.items) && h.greater(r, largest) {
			largest = r
		}
		if largest == i {
			break
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
	return top
}

func (h *lazyMaxHeap) greater(a, b int) bool {
	if h.items[a].score != h.items[b].score {
		return h.items[a].score > h.items[b].score
	}
	return h.items[a].v < h.items[b].v
}

// Compose returns the permutation equivalent to applying first then second:
// out[v] = second[first[v]].
func Compose(first, second []graph.VertexID) ([]graph.VertexID, error) {
	if len(first) != len(second) {
		return nil, fmt.Errorf("order: length mismatch %d vs %d", len(first), len(second))
	}
	out := make([]graph.VertexID, len(first))
	for v := range first {
		out[v] = second[first[v]]
	}
	return out, nil
}

// IsPermutation reports whether perm is a bijection on [0, len(perm)).
func IsPermutation(perm []graph.VertexID) bool {
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if int(p) >= len(perm) || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}
