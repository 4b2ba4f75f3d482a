// Package gen generates the synthetic graphs that stand in for the paper's
// data sets. The real evaluation graphs (Twitter, Friendster, Orkut,
// LiveJournal, Yahoo_mem, USAroad) are multi-gigabyte downloads; the VEBO
// results depend only on the shape of the degree distribution (power-law
// skew, abundance of low-degree and zero-in-degree vertices, directedness),
// so each paper graph is replaced by a recipe that reproduces those shape
// parameters at laptop scale. See DESIGN.md §1.
//
// All generators are deterministic for a given seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// RMAT generates a recursive-matrix graph (Chakrabarti et al.) with 2^scale
// vertices and edgeFactor*2^scale directed edges. The probabilities a, b, c
// address the four quadrants (d = 1-a-b-c). RMAT graphs have power-law in-
// and out-degree distributions and a large fraction of isolated vertices,
// matching the paper's RMAT27 workload.
func RMAT(scale uint, edgeFactor int, a, b, c float64, seed int64) (*graph.Graph, error) {
	if a < 0 || b < 0 || c < 0 || a+b+c > 1 {
		return nil, fmt.Errorf("gen: invalid RMAT probabilities a=%v b=%v c=%v", a, b, c)
	}
	if scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d too large", scale)
	}
	n := 1 << scale
	m := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := 0; i < m; i++ {
		var src, dst uint32
		for level := uint(0); level < scale; level++ {
			// Add ±10% noise per level, as is conventional, to avoid
			// exactly self-similar structure.
			an := clampProb(a * (0.9 + 0.2*rng.Float64()))
			bn := clampProb(b * (0.9 + 0.2*rng.Float64()))
			cn := clampProb(c * (0.9 + 0.2*rng.Float64()))
			r := rng.Float64() * (an + bn + cn + clampProb((1-a-b-c)*(0.9+0.2*rng.Float64())))
			switch {
			case r < an:
				// top-left: neither bit set
			case r < an+bn:
				dst |= 1 << level
			case r < an+bn+cn:
				src |= 1 << level
			default:
				src |= 1 << level
				dst |= 1 << level
			}
		}
		edges[i] = graph.Edge{Src: src, Dst: dst, Weight: 1}
	}
	return graph.FromEdges(n, edges, false)
}

// zipfDegrees samples in-degrees from the paper's truncated Zipf law:
// P(deg = k-1) = k^-s / H_{N,s}, k = 1..N where N = maxDegree+1.
type zipfDegrees struct {
	cdf []float64 // cdf[i] = P(deg <= i-1); len = N
}

func newZipfDegrees(s float64, maxDegree int) *zipfDegrees {
	n := maxDegree + 1
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfDegrees{cdf: cdf}
}

// sample returns a degree in [0, maxDegree].
func (z *zipfDegrees) sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// PowerLawConfig parameterizes a configuration-model graph whose in-degree
// distribution follows the truncated Zipf law of the paper's Section III-A:
// P(deg = k-1) ∝ k^-s for k = 1..N.
type PowerLawConfig struct {
	N          int     // number of vertices
	S          float64 // Zipf exponent s (> 0); paper's α = 1 + 1/s
	MaxDegree  int     // highest permitted in-degree (paper's N-1)
	ZeroInFrac float64 // additional fraction of vertices forced to in-degree 0
	Weighted   bool    // attach uniform random weights in [1,100]
	// SourceSkew, when positive, draws edge sources from a Zipf-rank
	// distribution with this exponent instead of uniformly, giving the
	// heavy-tailed out-degree distribution of real social graphs (a few
	// prolific sources supply many edges). Zero selects uniform sources
	// (approximately Poisson out-degrees).
	SourceSkew float64
	// IDCorrelation in [0,1] controls how strongly vertex degree correlates
	// with vertex ID: 0 shuffles identities uniformly; 1 numbers vertices in
	// strictly decreasing degree order. Real crawled graphs sit in between
	// (popular vertices are discovered early), which is what makes the
	// paper's Algorithm 1 chunks vertex-imbalanced in the first place.
	IDCorrelation float64
	Seed          int64
}

// correlatedPerm returns a permutation assigning new IDs so that
// higher-degree vertices tend toward lower IDs with strength c in [0,1].
func correlatedPerm(degrees []int, c float64, rng *rand.Rand) []graph.VertexID {
	n := len(degrees)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if c <= 0 {
		perm := make([]graph.VertexID, n)
		for i, p := range rng.Perm(n) {
			perm[i] = graph.VertexID(p)
		}
		return perm
	}
	// rank vertices by decreasing degree (stable), then blend rank with
	// uniform noise
	sort.SliceStable(idx, func(a, b int) bool { return degrees[idx[a]] > degrees[idx[b]] })
	rankOf := make([]float64, n)
	for r, v := range idx {
		rankOf[v] = float64(r) / float64(n)
	}
	key := make([]float64, n)
	for v := 0; v < n; v++ {
		key[v] = c*rankOf[v] + (1-c)*rng.Float64()
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	perm := make([]graph.VertexID, n)
	for newID, v := range order {
		perm[v] = graph.VertexID(newID)
	}
	return perm
}

// PowerLaw generates a directed graph by sampling each vertex's in-degree
// from a Zipf distribution and then drawing that many sources uniformly at
// random. Out-degrees are consequently approximately Poisson on top of the
// skewed in-degrees, giving a natural population of zero-out-degree vertices
// as in the paper's Table I.
func PowerLaw(cfg PowerLawConfig) (*graph.Graph, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("gen: power-law N must be positive, got %d", cfg.N)
	}
	if cfg.S <= 0 {
		return nil, fmt.Errorf("gen: Zipf exponent must be positive, got %v", cfg.S)
	}
	if cfg.MaxDegree < 1 {
		return nil, fmt.Errorf("gen: MaxDegree must be >= 1, got %d", cfg.MaxDegree)
	}
	if cfg.ZeroInFrac < 0 || cfg.ZeroInFrac >= 1 {
		return nil, fmt.Errorf("gen: ZeroInFrac out of range: %v", cfg.ZeroInFrac)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The paper models in-degree as P(deg = k-1) = k^-s / H_{N,s} for
	// k = 1..N (Section III-A): the most frequent in-degree is 0 and the
	// least frequent is N-1. Sample it exactly by inverse CDF.
	zipf := newZipfDegrees(cfg.S, cfg.MaxDegree)
	n := cfg.N
	forcedZero := int(cfg.ZeroInFrac * float64(n))
	degrees := make([]int, n)
	var m int64
	for v := 0; v < n; v++ {
		if v < forcedZero {
			continue // forced zero in-degree
		}
		d := zipf.sample(rng)
		degrees[v] = d
		m += int64(d)
	}
	var srcSampler *zipfDegrees
	if cfg.SourceSkew > 0 {
		srcSampler = newZipfDegrees(cfg.SourceSkew, n-1)
	}
	pickSrc := func() graph.VertexID {
		if srcSampler == nil {
			return graph.VertexID(rng.Intn(n))
		}
		return graph.VertexID(srcSampler.sample(rng))
	}
	edges := make([]graph.Edge, 0, m)
	for v := 0; v < n; v++ {
		for i := 0; i < degrees[v]; i++ {
			w := int32(1)
			if cfg.Weighted {
				w = int32(rng.Intn(100) + 1)
			}
			edges = append(edges, graph.Edge{
				Src:    pickSrc(),
				Dst:    graph.VertexID(v),
				Weight: w,
			})
		}
	}
	// Renumber vertices: either a uniform shuffle (IDCorrelation 0) or a
	// crawl-like numbering where popular vertices receive early IDs.
	perm := correlatedPerm(degrees, cfg.IDCorrelation, rng)
	for i := range edges {
		edges[i].Src = perm[edges[i].Src]
		edges[i].Dst = perm[edges[i].Dst]
	}
	return graph.FromEdges(n, edges, cfg.Weighted)
}

// UndirectedPowerLaw generates a symmetric graph whose degree sequence
// follows the truncated Zipf law exactly, using a configuration model:
// each vertex receives deg(v) half-edges, the half-edges are shuffled and
// matched pairwise, and every matched pair becomes two directed edges (one
// per direction). Unlike symmetrizing a directed configuration model, this
// preserves the abundance of degree-1 vertices that VEBO's Theorem 1 relies
// on. Self-pairs are dropped.
func UndirectedPowerLaw(cfg PowerLawConfig) (*graph.Graph, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("gen: power-law N must be positive, got %d", cfg.N)
	}
	if cfg.S <= 0 {
		return nil, fmt.Errorf("gen: Zipf exponent must be positive, got %v", cfg.S)
	}
	if cfg.MaxDegree < 1 {
		return nil, fmt.Errorf("gen: MaxDegree must be >= 1, got %d", cfg.MaxDegree)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := newZipfDegrees(cfg.S, cfg.MaxDegree)
	n := cfg.N
	forcedZero := int(cfg.ZeroInFrac * float64(n))
	degrees := make([]int, n)
	var stubs []graph.VertexID
	for v := 0; v < n; v++ {
		if v < forcedZero {
			continue
		}
		d := zipf.sample(rng)
		degrees[v] = d
		for i := 0; i < d; i++ {
			stubs = append(stubs, graph.VertexID(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	edges := make([]graph.Edge, 0, len(stubs))
	for i := 0; i+1 < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		if a == b {
			continue // drop self-pairs
		}
		w := int32(1)
		if cfg.Weighted {
			w = int32(rng.Intn(100) + 1)
		}
		edges = append(edges, graph.Edge{Src: a, Dst: b, Weight: w},
			graph.Edge{Src: b, Dst: a, Weight: w})
	}
	// renumber vertices with the configured degree-ID correlation
	perm := correlatedPerm(degrees, cfg.IDCorrelation, rng)
	for i := range edges {
		edges[i].Src = perm[edges[i].Src]
		edges[i].Dst = perm[edges[i].Dst]
	}
	return graph.FromEdges(n, edges, cfg.Weighted)
}

// ErdosRenyi generates a directed G(n, m) graph with m edges drawn uniformly
// with replacement.
func ErdosRenyi(n int, m int64, seed int64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: n must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.VertexID(rng.Intn(n)),
			Dst:    graph.VertexID(rng.Intn(n)),
			Weight: 1,
		}
	}
	return graph.FromEdges(n, edges, false)
}

// ErdosRenyiWeighted is ErdosRenyi with uniform random weights in [1,10];
// the narrow weight range makes parallel edges with distinct weights common,
// exercising weight-aware deletion semantics.
func ErdosRenyiWeighted(n int, m int64, seed int64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: n must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.VertexID(rng.Intn(n)),
			Dst:    graph.VertexID(rng.Intn(n)),
			Weight: int32(rng.Intn(10) + 1),
		}
	}
	return graph.FromEdges(n, edges, true)
}

// RoadNetwork generates a road-network-like graph: a width×height grid in
// row-major vertex order where each cell connects to its 4 axial neighbours,
// plus a sprinkling of short diagonal "shortcut" roads. Edges are symmetric
// (both directions present). The maximum degree is small and near-constant
// (≤ 9, like the paper's USAroad) and consecutive vertex IDs are spatially
// adjacent, giving the strong locality that VEBO is expected to destroy
// (Section V-B).
func RoadNetwork(width, height int, seed int64) (*graph.Graph, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("gen: invalid grid %dx%d", width, height)
	}
	n := width * height
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	id := func(x, y int) graph.VertexID { return graph.VertexID(y*width + x) }
	addBoth := func(a, b graph.VertexID, w int32) {
		edges = append(edges, graph.Edge{Src: a, Dst: b, Weight: w}, graph.Edge{Src: b, Dst: a, Weight: w})
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			w := int32(rng.Intn(20) + 1) // road length
			if x+1 < width {
				addBoth(id(x, y), id(x+1, y), w)
			}
			if y+1 < height {
				addBoth(id(x, y), id(x, y+1), w)
			}
			// ~12% of cells get one diagonal shortcut, pushing max degree
			// toward (but not past) the USAroad-like cap.
			if x+1 < width && y+1 < height && rng.Float64() < 0.12 {
				addBoth(id(x, y), id(x+1, y+1), w+1)
			}
		}
	}
	return graph.FromEdges(n, edges, true)
}

// PadIsolated embeds g into a vertex set factor times larger and shuffles
// vertex identities; the added vertices are isolated. RMAT graphs owe their
// large isolated-vertex fraction (69% for the paper's RMAT27) to a sparse
// ID space, which this reproduces at small scale.
func PadIsolated(g *graph.Graph, factor float64, seed int64) (*graph.Graph, error) {
	if factor < 1 {
		return nil, fmt.Errorf("gen: pad factor must be >= 1, got %v", factor)
	}
	n := int(float64(g.NumVertices()) * factor)
	rng := rand.New(rand.NewSource(seed))
	perm := make([]graph.VertexID, n)
	for i, p := range rng.Perm(n) {
		perm[i] = graph.VertexID(p)
	}
	edges := g.Edges()
	for i := range edges {
		edges[i].Src = perm[edges[i].Src]
		edges[i].Dst = perm[edges[i].Dst]
	}
	return graph.FromEdges(n, edges, g.Weighted())
}
