package vebo

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/dynamic"
	"repro/internal/frontier"
	"repro/internal/graph"
)

// This file implements result patching across epochs (DESIGN.md §5d): a
// query on epoch E seeds from the basis view's converged result — cached in
// a lineage-keyed Refined capture — extends the array for vertices admitted
// since, and refines only the region the ViewDelta can have affected. The
// monotone algorithms (BFS depths, canonical CC labels, Bellman-Ford
// distances) take the KickStarter-style route: conservatively reset the
// delta-reachable dependence cone, then re-relax it from its intact rim plus
// the inserted-edge sources. PageRank takes the GraphBolt-style route: the
// recurrence is linear, so the exact correction is the initial residual of
// the graph delta propagated with dirty-vertex frontiers until it falls
// under ε everywhere. Both routes fall back to a cold start when the delta
// touches more than a gated fraction of the graph, where refinement would
// cost more than it saves.
//
// Soundness rests on two invariants the rest of the module maintains:
// internal (original) vertex IDs are append-only — so a basis result array
// indexed by original IDs is prefix-valid at any later epoch, even across
// full renumberings — and View.deltaOver(b) exactly covers the span from
// the basis b to the view (Frozen.Since nets the log entries between the
// two captures, so the edge multiset is exact).

// RefineStats paths. A query reports which route produced its result.
const (
	// RefineCached: the capture for this exact view already existed.
	RefineCached = "cached"
	// RefineScratchSeed: no usable basis capture; computed cold and cached.
	RefineScratchSeed = "scratch-seed"
	// RefineRefined: seeded from the basis capture and refined by the delta.
	RefineRefined = "refined"
	// RefineScratchFallback: a basis capture existed but the delta tripped
	// the fallback gate; computed cold and cached.
	RefineScratchFallback = "scratch-fallback"
)

// RefineStats reports how a Refine* query was answered.
type RefineStats struct {
	// Path is one of the Refine* path constants above.
	Path string
	// SeedEpoch is the epoch of the basis capture the query seeded from
	// (-1 on scratch paths).
	SeedEpoch int64
	// ResetVertices counts the vertices invalidated by the dependence-cone
	// analysis (monotone algorithms only).
	ResetVertices int
	// FrontierVertices is the size of the initial refinement frontier (for
	// PageRank: the number of endpoints the edge delta touches).
	FrontierVertices int
}

// refineKey identifies one cached result: the algorithm plus its source
// vertex (zero for the rootless algorithms). The framework model is *not*
// part of the key — all three models compute the same canonical values, so
// a capture computed on one seeds refinement on another.
type refineKey struct {
	alg  string
	root VertexID
}

// Refined is one converged result capture, pinned to the epoch of the view
// that computed it and stored in original-ID space (length n), which is the
// representation that survives repair, growth and renumbering epochs.
// Captures are immutable after construction; their slices are shared, never
// written.
//
//vebo:frozen
type Refined struct {
	alg   string
	root  VertexID
	epoch int64
	n     int
	vals  []int64   // BFS depths / packed CC states / SSSP distances
	ranks []float64 // PageRank
	eps   float64   // the convergence threshold the ranks satisfy
}

// refineCache holds a view's captures. It hangs off the frozen View behind a
// pointer so the mutating accessors below stay outside the frozen type; all
// access goes through them.
type refineCache struct {
	mu sync.Mutex
	//vebo:guardedby mu
	m map[refineKey]*Refined
}

func newRefineCache() *refineCache {
	return &refineCache{m: make(map[refineKey]*Refined)}
}

func (c *refineCache) get(k refineKey) *Refined {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

func (c *refineCache) put(k refineKey, r *Refined) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = r
}

// keep stores a capture on v, then drops v's basis if that capture was the
// last thing the basis could seed.
func (v *View) keep(key refineKey, r *Refined) {
	v.ref.put(key, r)
	v.dropSpentBasis()
}

// covers reports whether c holds a capture for every key o holds. It never
// holds both locks at once.
func (c *refineCache) covers(o *refineCache) bool {
	o.mu.Lock()
	keys := make([]refineKey, 0, len(o.m))
	for k := range o.m {
		keys = append(keys, k)
	}
	o.mu.Unlock()
	for _, k := range keys {
		if c.get(k) == nil {
			return false
		}
	}
	return true
}

// basisCapture returns the basis view b and its capture for key, or nil
// when there is no basis (scratch epochs, reuse disabled, basis more than
// one compaction back) or the capture cannot seed this view. The epoch and
// length guards make staleness structurally impossible: a capture seeds
// refinement only when it is pinned to the exact view v.deltaOver(b)
// measures from — any rebuild-cause epoch in between published a fresh
// view whose delta still spans basis→view, so the refinement replays it
// rather than serving the old values.
func (v *View) basisCapture(key refineKey) (*Refined, *View) {
	b := v.basis.Load()
	if b == nil {
		return nil, nil
	}
	r := b.ref.get(key)
	if r == nil || r.epoch != b.epoch || r.n != b.nverts {
		return nil, nil
	}
	return r, b
}

// Fallback gating: refinement resets at most n/refineConeDenom vertices
// (and PageRank perturbs at most that many endpoints) before a cold start
// is declared cheaper; the cone walk additionally carries an edge-scan
// budget of max(refineBudgetMin, m/4).
const (
	refineConeDenom = 5
	refineBudgetMin = 4096
)

// prScratchIters caps the propagation rounds of both the cold-start
// (PageRankDelta) and resumed PageRank runs; with the default ε the frontier
// empties far earlier.
const prScratchIters = 400

// DefaultRefineEps is the PageRank convergence threshold Refine uses when
// the caller passes eps <= 0. It is deliberately tight: capture residuals
// compound across refinement chains, and a tight ε keeps chains of any
// practical length well inside test tolerances.
const DefaultRefineEps = 1e-9

// extendVals copies a basis result array into this view's (longer or equal)
// original-ID space; fill supplies the value of each admitted vertex.
func extendVals(vals []int64, n int, fill func(orig int) int64) []int64 {
	out := make([]int64, n)
	copy(out, vals)
	for o := len(vals); o < n; o++ {
		out[o] = fill(o)
	}
	return out
}

// coneHeap is a binary min-heap of (value, vertex) candidates; processing
// candidates in value order is what makes the alternate-supporter pruning in
// invalidationCone sound (see DESIGN.md §5d).
type coneItem struct {
	key int64
	v   VertexID
}

type coneHeap []coneItem

func (h *coneHeap) push(key int64, v VertexID) {
	*h = append(*h, coneItem{key, v})
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].key <= s[i].key {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *coneHeap) pop() coneItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && s[l].key < s[min].key {
			min = l
		}
		if r < len(s) && s[r].key < s[min].key {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}

// invalidationCone computes the set of vertices whose seeded value may be
// unachievable after the deletions — KickStarter's tag-the-dependency
// approximation, without stored dependency trees. A deleted edge (a,b)
// seeds b only if it supported b's value (val[b] == val[a]+w); a candidate u
// joins the cone only if no surviving in-edge (q,u) from a non-cone q still
// supports val[u]; and a cone member u recruits exactly the out-neighbors
// its value supports (val[t] == val[u]+w). Candidates are processed in
// ascending value order, so a strictly smaller-valued supporter q is already
// settled when u is examined — sound for non-negative weights (every stored
// weight here is ≥ 1; zero-weight in-edges are simply never counted as
// supporters, which can only enlarge the cone). Aborts (ok=false) when the
// cone outgrows limit vertices or the walk exceeds budget edge scans.
func invalidationCone(rg *Graph, val []int64, dels []graph.Edge, weighted bool, limit int, budget int64) ([]VertexID, bool) {
	step := func(w int32) int64 {
		if weighted {
			return int64(w)
		}
		return 1
	}
	var h coneHeap
	for _, d := range dels {
		if va := val[d.Src]; va < algorithms.RelaxInf && val[d.Dst] == va+step(d.Weight) {
			h.push(val[d.Dst], d.Dst)
		}
	}
	if len(h) == 0 {
		return nil, true
	}
	done := make(map[VertexID]bool, len(h))
	inCone := make(map[VertexID]bool, len(h))
	var cone []VertexID
	for len(h) > 0 {
		u := h.pop().v
		if done[u] {
			continue
		}
		done[u] = true
		ins := rg.InNeighbors(u)
		ws := rg.InWeights(u)
		budget -= int64(len(ins))
		supported := false
		for i, q := range ins {
			w := step(ws[i])
			if w > 0 && !inCone[q] && val[q] < algorithms.RelaxInf && val[q]+w == val[u] {
				supported = true
				break
			}
		}
		if supported {
			continue
		}
		inCone[u] = true
		cone = append(cone, u)
		if len(cone) > limit {
			return nil, false
		}
		outs := rg.OutNeighbors(u)
		ows := rg.OutWeights(u)
		budget -= int64(len(outs))
		for i, t := range outs {
			if val[t] < algorithms.RelaxInf && val[t] == val[u]+step(ows[i]) {
				h.push(val[t], t)
			}
		}
		if budget < 0 {
			return nil, false
		}
	}
	return cone, true
}

// refineSpec parameterizes refineRelax per monotone algorithm.
type refineSpec struct {
	weighted bool
	// resetVal is the value a cone member falls back to: "unknown" for the
	// rooted traversals, the vertex's own injection for CC.
	resetVal func(eng VertexID) int64
	// resetJoins/grownJoins: whether reset members / admitted vertices carry
	// their own injection into the initial frontier (CC does; the rooted
	// traversals reach them from the rim instead).
	resetJoins, grownJoins bool
}

// refineRelax is the shared monotone-refinement route: invalidate the
// deletion cone, reset it, assemble the repair frontier (the cone's intact
// rim, the inserted-edge sources, the moved vertices, plus the per-spec
// injections) and relax to fixpoint. seed is engine-space and mutated in
// place. ok=false means the fallback gate tripped and the caller should
// compute cold.
func (v *View) refineRelax(e Engine, seed []int64, plan dynamic.RefinePlan, spec refineSpec) (RefineStats, bool) {
	rg := e.Graph()
	perm := v.ord.Perm
	mapEndpoints(plan.Adds, perm)
	mapEndpoints(plan.Dels, perm)
	budget := int64(refineBudgetMin)
	if m := rg.NumEdges() / 4; m > budget {
		budget = m
	}
	cone, ok := invalidationCone(rg, seed, plan.Dels, spec.weighted, v.nverts/refineConeDenom+1, budget)
	if !ok {
		return RefineStats{}, false
	}
	for _, u := range cone {
		seed[u] = spec.resetVal(u)
	}
	fr := make([]bool, len(seed))
	var list []VertexID
	mark := func(u VertexID) {
		if !fr[u] {
			fr[u] = true
			list = append(list, u)
		}
	}
	for _, u := range cone {
		if spec.resetJoins {
			mark(u)
		}
		for _, q := range rg.InNeighbors(u) {
			if seed[q] < algorithms.RelaxInf {
				mark(q)
			}
		}
	}
	for _, ed := range plan.Adds {
		if seed[ed.Src] < algorithms.RelaxInf {
			mark(ed.Src)
		}
	}
	for _, w := range plan.Moved {
		if u := perm[w]; seed[u] < algorithms.RelaxInf {
			mark(u)
		}
	}
	if spec.grownJoins {
		for o := v.nverts - int(plan.Grown); o < v.nverts; o++ {
			mark(perm[o])
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	algorithms.RelaxResume(e, seed, spec.weighted, frontier.FromVertices(rg, list))
	return RefineStats{Path: RefineRefined, ResetVertices: len(cone), FrontierVertices: len(list)}, true
}

// refineMonotone drives one monotone Refine* query end to end: cache hit,
// scratch seed, delta refinement or gated fallback. scratch computes the
// engine-space result cold; extendFill supplies admitted vertices' seeds.
// Returns the original-ID result (shared with the stored capture — callers
// convert, never mutate).
func (v *View) refineMonotone(sys System, alg string, root VertexID, spec refineSpec,
	scratch func(e Engine) []int64, extendFill func(orig int) int64) ([]int64, RefineStats, error) {
	start := time.Now()
	key := refineKey{alg: alg, root: root}
	if r := v.ref.get(key); r != nil {
		st := RefineStats{Path: RefineCached, SeedEpoch: r.epoch}
		v.work.observeRefine(v, alg, sys, start, st)
		return r.vals, st, nil
	}
	e, err := v.Engine(sys)
	if err != nil {
		return nil, RefineStats{}, err
	}
	cold := func(path string) ([]int64, RefineStats, error) {
		vals := unpermute(v.ord.Perm, scratch(e))
		v.keep(key, &Refined{alg: alg, root: root, epoch: v.epoch, n: v.nverts, vals: vals})
		st := RefineStats{Path: path, SeedEpoch: -1}
		v.work.observeRefine(v, alg, sys, start, st)
		return vals, st, nil
	}
	cap_, b := v.basisCapture(key)
	if cap_ == nil {
		return cold(RefineScratchSeed)
	}
	plan := dynamic.DeriveRefinePlan(v.deltaOver(b))
	if plan.Empty() {
		r := &Refined{alg: alg, root: root, epoch: v.epoch, n: v.nverts, vals: cap_.vals}
		v.keep(key, r)
		st := RefineStats{Path: RefineRefined, SeedEpoch: cap_.epoch}
		v.work.observeRefine(v, alg, sys, start, st)
		return r.vals, st, nil
	}
	if plan.Touched() > v.nverts/refineConeDenom {
		return cold(RefineScratchFallback)
	}
	seed := permuteIn(v.ord.Perm, extendVals(cap_.vals, v.nverts, extendFill), v.slots())
	st, ok := v.refineRelax(e, seed, plan, spec)
	if !ok {
		return cold(RefineScratchFallback)
	}
	vals := unpermute(v.ord.Perm, seed)
	v.keep(key, &Refined{alg: alg, root: root, epoch: v.epoch, n: v.nverts, vals: vals})
	st.SeedEpoch = cap_.epoch
	v.work.observeRefine(v, alg, sys, start, st)
	return vals, st, nil
}

// RefineBFS answers a BFS-depth query (depth from root, -1 unreached,
// indexed by original vertex ID) by refining the basis view's converged
// result when the lineage allows, recomputing from scratch otherwise. The
// first query per (view, root) seeds the cache; subsequent epochs refine.
// Depths, not parents, are the refinable form: they are a canonical function
// of the graph, while parent choices are traversal-order artifacts.
func (v *View) RefineBFS(sys System, root VertexID) ([]int32, RefineStats, error) {
	if err := v.checkRoot(root); err != nil {
		return nil, RefineStats{}, err
	}
	inf := func(int) int64 { return algorithms.RelaxInf }
	spec := refineSpec{resetVal: func(VertexID) int64 { return algorithms.RelaxInf }}
	vals, st, err := v.refineMonotone(sys, "bfs", root, spec,
		func(e Engine) []int64 { return algorithms.BFSDepths(e, v.ord.Perm[root]) }, inf)
	if err != nil {
		return nil, st, err
	}
	out := make([]int32, len(vals))
	for i, d := range vals {
		if d >= algorithms.RelaxInf {
			out[i] = -1
		} else {
			out[i] = int32(d)
		}
	}
	return out, st, nil
}

// RefineCC answers a connected-components query with canonical labels (the
// smallest original vertex ID reaching each vertex — stable across epochs,
// unlike CC's opaque labels) by refining the basis view's converged result
// when the lineage allows. Internally each vertex's state carries the label
// plus its propagation hop count, giving deletions the same supporting-edge
// structure BFS has.
func (v *View) RefineCC(sys System) ([]uint32, RefineStats, error) {
	inv := v.invPerm()
	spec := refineSpec{
		resetVal:   func(u VertexID) int64 { return algorithms.PackCC(uint32(inv[u]), 0) },
		resetJoins: true,
		grownJoins: true,
	}
	vals, st, err := v.refineMonotone(sys, "cc", 0, spec,
		func(e Engine) []int64 {
			// init spans the engine's slot space; reserved headroom slots
			// seed with inv's zero entry, which is inert — they have no
			// edges, so their label never propagates, and unpermute drops
			// their state.
			init := make([]uint32, v.slots())
			for eng := range init {
				init[eng] = uint32(inv[eng])
			}
			return algorithms.CCSeeded(e, init)
		},
		func(orig int) int64 { return algorithms.PackCC(uint32(orig), 0) })
	if err != nil {
		return nil, st, err
	}
	out := make([]uint32, len(vals))
	for i, s := range vals {
		out[i] = algorithms.UnpackCCLabel(s)
	}
	return out, st, nil
}

// RefineSSSP answers a single-source shortest-path query (distances from
// root, Unreached for unreachable vertices, indexed by original vertex ID —
// BellmanFord's exact semantics) by refining the basis view's converged
// result when the lineage allows.
func (v *View) RefineSSSP(sys System, root VertexID) ([]int64, RefineStats, error) {
	if err := v.checkRoot(root); err != nil {
		return nil, RefineStats{}, err
	}
	inf := func(int) int64 { return algorithms.RelaxInf }
	spec := refineSpec{weighted: true, resetVal: func(VertexID) int64 { return algorithms.RelaxInf }}
	vals, st, err := v.refineMonotone(sys, "sssp", root, spec,
		func(e Engine) []int64 {
			rg := e.Graph()
			dist := make([]int64, v.slots())
			for i := range dist {
				dist[i] = algorithms.RelaxInf
			}
			dist[v.ord.Perm[root]] = 0
			return algorithms.BellmanFordResume(e, dist, frontier.FromVertex(rg, v.ord.Perm[root]))
		}, inf)
	if err != nil {
		return nil, st, err
	}
	out := make([]int64, len(vals))
	for i, d := range vals {
		if d >= algorithms.RelaxInf {
			out[i] = math.MaxInt64
		} else {
			out[i] = d
		}
	}
	return out, st, nil
}

// RefinePageRank answers a PageRank query converged to within eps (eps <= 0
// selects DefaultRefineEps; ranks indexed by original vertex ID) by resuming
// the iteration from the basis view's converged vector with dirty-vertex
// frontiers. Cold starts use the delta-update formulation with the same
// convergence threshold, so both paths approximate the same fixpoint — the
// honest comparison baseline, unlike the fixed-iteration PageRank. The
// returned slice is shared with the cache; callers must not mutate it.
func (v *View) RefinePageRank(sys System, eps float64) ([]float64, RefineStats, error) {
	if eps <= 0 {
		eps = DefaultRefineEps
	}
	start := time.Now()
	key := refineKey{alg: "pagerank"}
	if r := v.ref.get(key); r != nil && r.eps <= eps {
		st := RefineStats{Path: RefineCached, SeedEpoch: r.epoch}
		v.work.observeRefine(v, "pagerank", sys, start, st)
		return r.ranks, st, nil
	}
	e, err := v.Engine(sys)
	if err != nil {
		return nil, RefineStats{}, err
	}
	cold := func(path string) ([]float64, RefineStats, error) {
		ranks := unpermute(v.ord.Perm, algorithms.PageRankDeltaN(e, prScratchIters, eps, v.nverts))
		v.keep(key, &Refined{alg: "pagerank", epoch: v.epoch, n: v.nverts, ranks: ranks, eps: eps})
		st := RefineStats{Path: path, SeedEpoch: -1}
		v.work.observeRefine(v, "pagerank", sys, start, st)
		return ranks, st, nil
	}
	cap_, b := v.basisCapture(key)
	if cap_ == nil || cap_.eps > eps {
		return cold(RefineScratchSeed)
	}
	plan := dynamic.DeriveRefinePlan(v.deltaOver(b))
	if plan.Empty() {
		r := &Refined{alg: "pagerank", epoch: v.epoch, n: v.nverts, ranks: cap_.ranks, eps: cap_.eps}
		v.keep(key, r)
		st := RefineStats{Path: RefineRefined, SeedEpoch: cap_.epoch}
		v.work.observeRefine(v, "pagerank", sys, start, st)
		return r.ranks, st, nil
	}
	touched := plan.Touched()
	if touched > v.nverts/refineConeDenom {
		return cold(RefineScratchFallback)
	}
	perm := v.ord.Perm
	rg := e.Graph()
	mapEndpoints(plan.Adds, perm)
	mapEndpoints(plan.Dels, perm)
	odOld := make(map[VertexID]int64, len(plan.OutDegDelta))
	for s, dd := range plan.OutDegDelta {
		odOld[perm[s]] = rg.OutDegree(perm[s]) - dd
	}
	seed := make([]float64, v.nverts)
	copy(seed, cap_.ranks)
	var grown []VertexID
	for o := cap_.n; o < v.nverts; o++ {
		grown = append(grown, perm[o])
	}
	ranks := algorithms.PageRankResume(e, permuteIn(perm, seed, v.slots()),
		algorithms.RankDelta{Adds: plan.Adds, Dels: plan.Dels, OldOutDeg: odOld,
			NOld: cap_.n, NNew: v.nverts, Grown: grown},
		prScratchIters, eps)
	out := unpermute(perm, ranks)
	v.keep(key, &Refined{alg: "pagerank", epoch: v.epoch, n: v.nverts, ranks: out, eps: eps})
	st := RefineStats{Path: RefineRefined, SeedEpoch: cap_.epoch, FrontierVertices: touched}
	v.work.observeRefine(v, "pagerank", sys, start, st)
	return out, st, nil
}
