package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// StreamConfig parameterizes a synthetic edge-update stream over an existing
// graph. Streams model the churn a live serving system sees: a mixture of
// edge insertions (new follows, new roads) and deletions (unfollows, road
// closures), with insertion endpoints drawn preferentially toward already
// popular vertices so the degree distribution keeps its shape.
type StreamConfig struct {
	// Ops is the number of updates to generate.
	Ops int
	// DeleteFrac is the probability that an update deletes an existing live
	// edge instead of inserting a new one (skipped when no live edge
	// remains). In [0,1).
	DeleteFrac float64
	// PreferentialFrac is the probability that an inserted edge's endpoints
	// are copied from a uniformly random live edge (source from its source,
	// destination from its destination — i.e. degree-proportional sampling)
	// rather than drawn uniformly. In [0,1].
	PreferentialFrac float64
	// Weighted attaches uniform random weights in [1,100] to insertions and
	// emits deletions carrying the weight of the edge they target, so a
	// weight-aware consumer can cancel the exact parallel edge.
	Weighted bool
	// GrowFrac is the probability that an insertion attaches a
	// never-before-seen vertex: new vertices take the next dense IDs beyond
	// the base graph (n, n+1, …), arrive as one endpoint of their first
	// edge (source or destination with equal probability, the other
	// endpoint drawn as usual), and participate in later churn like any
	// other vertex. Consumers must admit out-of-range endpoints: the
	// facade's Dynamic.IngestBatch admits each under its stream ID. In
	// [0,1).
	GrowFrac float64
	Seed     int64
}

// EdgeStream generates a deterministic, timestamped update stream against g.
// Every deletion targets an edge that is live at its point in the stream
// (counting earlier stream insertions and deletions), so replaying the
// stream in order against g is always valid.
func EdgeStream(g *graph.Graph, cfg StreamConfig) ([]graph.EdgeUpdate, error) {
	if cfg.Ops < 0 {
		return nil, fmt.Errorf("gen: stream op count must be non-negative, got %d", cfg.Ops)
	}
	if cfg.DeleteFrac < 0 || cfg.DeleteFrac >= 1 {
		return nil, fmt.Errorf("gen: DeleteFrac out of range: %v", cfg.DeleteFrac)
	}
	if cfg.PreferentialFrac < 0 || cfg.PreferentialFrac > 1 {
		return nil, fmt.Errorf("gen: PreferentialFrac out of range: %v", cfg.PreferentialFrac)
	}
	if cfg.GrowFrac < 0 || cfg.GrowFrac >= 1 {
		return nil, fmt.Errorf("gen: GrowFrac out of range: %v", cfg.GrowFrac)
	}
	n := g.NumVertices()
	if n == 0 && cfg.Ops > 0 {
		return nil, fmt.Errorf("gen: cannot stream over an empty graph")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// live mirrors the evolving edge multiset; index order is irrelevant
	// (deletions swap-remove), only membership matters. next is the next
	// unseen dense vertex ID a growth insertion will mint.
	live := g.Edges()
	next := graph.VertexID(n)
	updates := make([]graph.EdgeUpdate, 0, cfg.Ops)
	pickExisting := func() graph.VertexID {
		if len(live) > 0 && rng.Float64() < cfg.PreferentialFrac {
			e := live[rng.Intn(len(live))]
			if rng.Intn(2) == 0 {
				return e.Src
			}
			return e.Dst
		}
		return graph.VertexID(rng.Intn(int(next)))
	}
	for t := 0; t < cfg.Ops; t++ {
		if len(live) > 0 && rng.Float64() < cfg.DeleteFrac {
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			del := graph.EdgeUpdate{Time: int64(t), Src: e.Src, Dst: e.Dst, Del: true}
			if cfg.Weighted {
				del.Weight = e.Weight
			}
			updates = append(updates, del)
			continue
		}
		var src, dst graph.VertexID
		if cfg.GrowFrac > 0 && rng.Float64() < cfg.GrowFrac {
			// A vertex arrival: the newcomer's first edge connects it to
			// the existing graph (either direction — a new account follows
			// someone, or is discovered and followed). The partner is drawn
			// before next is minted, so it is always an existing vertex.
			other := pickExisting()
			nv := next
			next++
			if rng.Intn(2) == 0 {
				src, dst = nv, other
			} else {
				src, dst = other, nv
			}
		} else if len(live) > 0 && rng.Float64() < cfg.PreferentialFrac {
			// Sampling a uniform live edge and copying its endpoints draws
			// src ∝ out-degree and dst ∝ in-degree: preferential attachment
			// without any auxiliary weight structure.
			src = live[rng.Intn(len(live))].Src
			dst = live[rng.Intn(len(live))].Dst
		} else {
			src = graph.VertexID(rng.Intn(int(next)))
			dst = graph.VertexID(rng.Intn(int(next)))
		}
		w := int32(1)
		if cfg.Weighted {
			w = int32(rng.Intn(100) + 1)
		}
		live = append(live, graph.Edge{Src: src, Dst: dst, Weight: w})
		updates = append(updates, graph.EdgeUpdate{Time: int64(t), Src: src, Dst: dst, Weight: w})
	}
	return updates, nil
}

// RecipeStreamOptions tunes StreamFromRecipe beyond the churn profile.
type RecipeStreamOptions struct {
	// GrowFrac interleaves vertex arrivals with the edge churn: each
	// insertion mints a never-before-seen vertex with this probability
	// (see StreamConfig.GrowFrac).
	GrowFrac float64
}

// StreamFromRecipe builds the named workload graph (as Recipe.Build does)
// and derives a matching update stream: the churn profile (deletion rate,
// attachment skew) follows the recipe's real-world counterpart, and the
// stream is weighted exactly when the recipe graph is. Both the graph and
// the stream are deterministic in (scale, seed).
func StreamFromRecipe(name string, scale float64, ops int, seed int64, opts RecipeStreamOptions) (*graph.Graph, []graph.EdgeUpdate, error) {
	r, err := RecipeByName(name)
	if err != nil {
		return nil, nil, err
	}
	g, err := r.Build(scale, seed)
	if err != nil {
		return nil, nil, err
	}
	updates, err := EdgeStream(g, StreamConfig{
		Ops:              ops,
		DeleteFrac:       r.deleteFrac,
		PreferentialFrac: r.preferentialFrac,
		Weighted:         g.Weighted(),
		GrowFrac:         opts.GrowFrac,
		Seed:             seed + 1,
	})
	if err != nil {
		return nil, nil, err
	}
	return g, updates, nil
}
