package gen

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Recipe describes a scaled-down analogue of one of the paper's Table I
// graphs. Scale multiplies the default vertex count; Scale = 1 yields sizes
// small enough for CI while preserving the graph's shape parameters (degree
// skew, zero-degree fractions, directedness).
type Recipe struct {
	Name       string
	PaperName  string // the data set the recipe stands in for
	Directed   bool
	Build      func(scale float64, seed int64) (*graph.Graph, error)
	PaperStats string // the Table I row being mimicked, for documentation

	// The churn profile of the recipe's real-world counterpart, which
	// StreamFromRecipe streams with (see StreamConfig).
	deleteFrac, preferentialFrac float64
}

// scaled returns max(floor(base*scale), min).
func scaled(base int, scale float64, min int) int {
	v := int(float64(base) * scale)
	if v < min {
		return min
	}
	return v
}

// Recipes lists the eight workload graphs in the order of the paper's
// Table I.
func Recipes() []Recipe {
	return []Recipe{
		{
			Name:      "twitter",
			PaperName: "Twitter (41.7M v, 1.467B e)",
			Directed:  true,
			Build: func(scale float64, seed int64) (*graph.Graph, error) {
				n := scaled(100_000, scale, 2_000)
				return PowerLaw(PowerLawConfig{
					N: n, S: 1.0, MaxDegree: n / 50,
					ZeroInFrac: 0.14, Weighted: true, SourceSkew: 0.6, IDCorrelation: 0.5, Seed: seed,
				})
			},
			PaperStats: "max in-degree 770155, 14% zero in-degree, directed",
			deleteFrac: 0.30, preferentialFrac: 0.7, // follow/unfollow churn, strong rich-get-richer
		},
		{
			Name:      "friendster",
			PaperName: "Friendster (125M v, 1.81B e)",
			Directed:  true,
			Build: func(scale float64, seed int64) (*graph.Graph, error) {
				n := scaled(120_000, scale, 2_000)
				// Friendster's degree cap is comparatively low (4223 on
				// 125M vertices); keep the max degree small relative to n.
				return PowerLaw(PowerLawConfig{
					N: n, S: 0.8, MaxDegree: n / 400,
					ZeroInFrac: 0.48, Weighted: true, SourceSkew: 0.4, IDCorrelation: 0.4, Seed: seed,
				})
			},
			PaperStats: "max degree 4223, 48% zero in-degree, directed",
			deleteFrac: 0.35, preferentialFrac: 0.5, // decaying social network: heavy deletion
		},
		{
			Name:      "orkut",
			PaperName: "Orkut (3.07M v, 234M e)",
			Directed:  false,
			Build: func(scale float64, seed int64) (*graph.Graph, error) {
				n := scaled(40_000, scale, 1_000)
				return UndirectedPowerLaw(PowerLawConfig{
					N: n, S: 1.0, MaxDegree: n / 90,
					ZeroInFrac: 0, Weighted: true, IDCorrelation: 0.4, Seed: seed,
				})
			},
			PaperStats: "undirected, ~0% zero-degree vertices",
			deleteFrac: 0.30, preferentialFrac: 0.5,
		},
		{
			Name:      "livejournal",
			PaperName: "LiveJournal (4.85M v, 69M e)",
			Directed:  true,
			Build: func(scale float64, seed int64) (*graph.Graph, error) {
				n := scaled(60_000, scale, 1_000)
				return PowerLaw(PowerLawConfig{
					N: n, S: 1.1, MaxDegree: n / 60,
					ZeroInFrac: 0.07, Weighted: true, SourceSkew: 0.5, IDCorrelation: 0.5, Seed: seed,
				})
			},
			PaperStats: "max degree 13906, 7% zero in-degree, directed",
			deleteFrac: 0.25, preferentialFrac: 0.6,
		},
		{
			Name:      "yahoo",
			PaperName: "Yahoo_mem (1.64M v, 30.4M e)",
			Directed:  false,
			Build: func(scale float64, seed int64) (*graph.Graph, error) {
				n := scaled(25_000, scale, 1_000)
				return UndirectedPowerLaw(PowerLawConfig{
					N: n, S: 0.85, MaxDegree: n / 8,
					ZeroInFrac: 0, Weighted: true, IDCorrelation: 0.4, Seed: seed,
				})
			},
			PaperStats: "undirected, 0% zero-degree, high skew (the paper's worst balance row: δ=9, Δ=3)",
			deleteFrac: 0.20, preferentialFrac: 0.7,
		},
		{
			Name:      "usaroad",
			PaperName: "USAroad (23.9M v, 58M e)",
			Directed:  false,
			Build: func(scale float64, seed int64) (*graph.Graph, error) {
				side := scaled(260, scale, 40) // side^2 vertices
				return RoadNetwork(side, side, seed)
			},
			PaperStats: "max degree 9, near-uniform degree, undirected, strong spatial locality",
			deleteFrac: 0.10, preferentialFrac: 0.1, // road openings/closures: rare, spatially uniform
		},
		{
			Name:      "powerlaw",
			PaperName: "Powerlaw α=2 (100M v, 294M e, SNAP generator)",
			Directed:  false,
			Build: func(scale float64, seed int64) (*graph.Graph, error) {
				n := scaled(100_000, scale, 2_000)
				// α = 2 corresponds to s = 1/(α-1) = 1.
				return UndirectedPowerLaw(PowerLawConfig{
					N: n, S: 1.0, MaxDegree: n / 100,
					ZeroInFrac: 0, Weighted: false, IDCorrelation: 0.3, Seed: seed,
				})
			},
			PaperStats: "synthetic power-law with α=2, undirected",
			deleteFrac: 0.30, preferentialFrac: 0.6,
		},
		{
			Name:      "rmat",
			PaperName: "RMAT27 (134M v, 1.342B e)",
			Directed:  true,
			Build: func(scale float64, seed int64) (*graph.Graph, error) {
				sc := uint(16)
				switch {
				case scale < 0.3:
					sc = 13
				case scale < 1:
					sc = 14
				case scale >= 4:
					sc = 18
				}
				// Milder skew than RMAT27's canonical (0.57, 0.19, 0.19):
				// the Theorem 1 precondition |E| ≥ N(P-1) requires
				// (a+c)^-scale ≥ P, which the canonical parameters violate
				// at reproduction scale (they hold only at scale 27). The
				// paper's 69% isolated vertices come from RMAT's sparse ID
				// space; PadIsolated reproduces that. See DESIGN.md §1.
				g, err := RMAT(sc, 10, 0.42, 0.21, 0.21, seed)
				if err != nil {
					return nil, err
				}
				return PadIsolated(g, 2.5, seed+1)
			},
			PaperStats: "max degree 812983, 69% zero in- and out-degree, directed",
			deleteFrac: 0.25, preferentialFrac: 0.6,
		},
	}
}

// RecipeByName returns the recipe with the given Name.
func RecipeByName(name string) (Recipe, error) {
	for _, r := range Recipes() {
		if r.Name == name {
			return r, nil
		}
	}
	names := make([]string, 0, 8)
	for _, r := range Recipes() {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return Recipe{}, fmt.Errorf("gen: unknown recipe %q (have %v)", name, names)
}
