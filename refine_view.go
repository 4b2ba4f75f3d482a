package vebo

import (
	"errors"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/frontier"
	"repro/internal/graph"
)

// This file implements result patching across epochs (DESIGN.md §5d): a
// query on epoch E seeds from the basis view's converged result — cached in
// a lineage-keyed Refined capture — and refines only the region the
// view's delta can have affected. Every Refine* query runs through one driver,
// refine, which owns the shared decisions — cache hit, scratch seed,
// unchanged delta, the touched-endpoint fallback gate, storing the capture
// and observing the query — and reads the view's own delta as is. Each
// query supplies only a cold run and a warm step. The monotone algorithms
// (BFS depths, canonical CC labels, Bellman-Ford distances) share
// refineRelax, the KickStarter-style route: conservatively reset the
// delta-reachable dependence cone, then re-relax it from its intact rim plus
// the inserted-edge sources. PageRank's warm step is the GraphBolt-style
// algorithms.PageRankResume: the recurrence is linear, so the exact
// correction is the initial residual of the graph delta propagated with
// dirty-vertex frontiers until it falls under ε everywhere. Both fall back
// to a cold start when the delta touches more than a gated fraction of the
// graph, where refinement would cost more than it saves.
//
// Soundness rests on invariants the rest of the module maintains: a
// numbering lineage fixes the slot space — swaps permute closed position
// sets and admissions fill headroom — so a slot-order basis capture is the
// view's seed up to its moved and admitted slots (seedFrom); View.deltaOver
// exactly covers the span from the basis b to the view (Frozen.Since nets
// the log entries between the two captures); and every stored weight is at
// least 1 (the dynamic graph rejects negative ones). Every consumer of the
// view reads its one graph.Delta as is and never rewrites it (frozenwrite).

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
// that computed it and stored in that view's slot order (View.slots());
// values at headroom holes are inert. Captures are immutable after
// construction; queries gather their answers out of them, never write them.
//
//vebo:frozen
type Refined struct {
	epoch int64
	// vals holds []int64 BFS depths / packed CC states / SSSP distances, or
	// []float64 PageRank ranks, indexed by slot.
	vals any
	// eps is the convergence threshold vals satisfy: 0 for the exact
	// monotone algorithms, so every threshold check passes for them.
	eps float64
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
// when there is no basis view (scratch epochs, reuse disabled, the first
// view of a log generation) or the capture cannot seed this view. The epoch
// guard makes staleness structurally impossible: a capture seeds
// refinement only when it is pinned to the exact view v.deltaOver
// measures from — any rebuild-cause epoch in between published a fresh
// view whose delta still spans basis→view, so the refinement replays it
// rather than serving the old values.
func (v *View) basisCapture(key refineKey) (*Refined, *View) {
	b := v.basis.Load()
	if b == nil {
		return nil, nil
	}
	r := b.ref.get(key)
	if r == nil || r.epoch != b.epoch {
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
func invalidationCone(rg graph.Rows, val []int64, dels []graph.Edge, weighted bool, limit int, budget int64) ([]VertexID, bool) {
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
		ins, ws := rg.InRow(u)
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
		outs, ows := rg.OutRow(u)
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

// warmStep refines an engine-space seed — the basis capture carried into
// the view's slots, zero at admitted vertices (seedFrom) — in place by the
// view's delta. ok=false means the step's own fallback gate tripped.
type warmStep[T any] func(e Engine, seed []T, vd *graph.Delta) (st RefineStats, ok bool)

// refine drives every Refine* query end to end: cache hit, scratch seed,
// unchanged delta, gated fallback or refinement. cold computes the
// engine-space result from scratch; warm refines a seed by the delta. A
// capture serves or seeds the query only if it is converged at least as
// tightly as eps. answer gathers the query's result out of the slot-order
// values on every path, so a capture never escapes to a caller. The scratch
// paths derive the view's graph (cause cold); the refined path runs on the
// engine warmEngine returns for what warm reads: refineEngine's, which on
// Ligra reads rows through the view's overlay, or the derived graph's.
func refine[T int64 | float64, R any](v *View, sys System, key refineKey, eps float64,
	cold func(e Engine) []T, warmEngine func(System) (Engine, error), warm warmStep[T], answer func(vals []T) R) (R, RefineStats, error) {
	start := time.Now()
	var e Engine
	done := func(vals []T, st RefineStats) (R, RefineStats, error) {
		var ov *graph.Overlay
		if e != nil {
			ov, _ = e.Rows().(*graph.Overlay)
		}
		v.work.observeRefine(v, key.alg, sys, start, st, ov)
		return answer(vals), st, nil
	}
	store := func(vals []T, valsEps float64, st RefineStats) (R, RefineStats, error) {
		v.keep(key, &Refined{epoch: v.epoch, vals: vals, eps: valsEps})
		return done(vals, st)
	}
	if r := v.ref.get(key); r != nil && r.eps <= eps {
		return done(r.vals.([]T), RefineStats{Path: RefineCached, SeedEpoch: r.epoch})
	}
	cap_, b := v.basisCapture(key)
	path := RefineScratchSeed
	var vd *graph.Delta
	if cap_ != nil && cap_.eps <= eps {
		vd, path = v.deltaOver(), RefineRefined
		// touched never exceeds the endpoint count, so a small delta skips its sort.
		if gate := v.nverts / refineConeDenom; 2*(len(vd.Adds)+len(vd.Dels)) > gate && touched(vd) > gate {
			path = RefineScratchFallback
		}
	}
	scratch := func(path string) (R, RefineStats, error) {
		var err error
		if e, err = v.engineFor(sys, deriveCold); err != nil {
			var none R
			return none, RefineStats{}, err
		}
		return store(cold(e), eps, RefineStats{Path: path, SeedEpoch: -1})
	}
	if path != RefineRefined {
		return scratch(path)
	}
	var err error
	if e, err = warmEngine(sys); err != nil {
		var none R
		return none, RefineStats{}, err
	}
	seed := seedFrom(v, b, cap_.vals.([]T), vd)
	if unchanged(vd) {
		return store(seed, cap_.eps, RefineStats{Path: RefineRefined, SeedEpoch: cap_.epoch})
	}
	st, ok := warm(e, seed, vd)
	if !ok {
		return scratch(RefineScratchFallback)
	}
	st.Path, st.SeedEpoch = RefineRefined, cap_.epoch
	return store(seed, eps, st)
}

// seedFrom returns the basis b's capture bs carried into v's slots, zero at
// the vertices admitted since. Within a lineage that is a copy of bs fixed
// at the moved slots (read from bs: a mover's new slot may be another's old
// one) and the admitted ones, which also covers a vertex a swap moved out of
// the hole it filled; a slot that stays a hole keeps its inert value.
// Across a placement change every vertex is gathered through both
// permutations.
func seedFrom[T int64 | float64](v, b *View, bs []T, vd *graph.Delta) []T {
	perm, bperm := v.ord.Perm, b.ord.Perm
	if vd.Broken || len(bs) != v.slots() {
		seed := make([]T, v.slots())
		for w, s := range bperm {
			seed[perm[w]] = bs[s]
		}
		return seed
	}
	seed := slices.Clone(bs)
	for _, s := range vd.Moved {
		seed[vd.Seg[s]] = bs[s]
	}
	for _, s := range vd.Grown {
		seed[s] = 0
	}
	return seed
}

// refineSpec parameterizes refineRelax per monotone algorithm.
type refineSpec struct {
	weighted bool
	// resetVal is the value a cone member falls back to and an admitted
	// vertex starts from: "unknown" for the rooted traversals, the vertex's
	// own injection for CC.
	resetVal func(eng VertexID) int64
	// resetJoins/grownJoins: whether reset members / admitted vertices carry
	// their own injection into the initial frontier (CC does; the rooted
	// traversals reach them from the rim instead).
	resetJoins, grownJoins bool
}

// refineRelax returns the monotone algorithms' warm step: start the
// admitted vertices from their reset value, invalidate the deletion cone,
// reset it, assemble the repair frontier (the cone's intact rim, the
// inserted-edge sources, the moved vertices, plus the per-spec injections)
// and relax to fixpoint. ok=false means the fallback gate tripped and the
// driver computes cold.
func (v *View) refineRelax(spec refineSpec) warmStep[int64] {
	return func(e Engine, seed []int64, vd *graph.Delta) (RefineStats, bool) {
		rg := e.Rows()
		for _, u := range vd.Grown {
			seed[u] = spec.resetVal(u)
		}
		budget := int64(refineBudgetMin)
		if m := rg.NumEdges() / 4; m > budget {
			budget = m
		}
		cone, ok := invalidationCone(rg, seed, vd.Dels, spec.weighted, v.nverts/refineConeDenom+1, budget)
		if !ok {
			return RefineStats{}, false
		}
		for _, u := range cone {
			seed[u] = spec.resetVal(u)
		}
		var list []VertexID
		for _, u := range cone {
			if spec.resetJoins {
				list = append(list, u)
			}
			ins, _ := rg.InRow(u)
			for _, q := range ins {
				if seed[q] < algorithms.RelaxInf {
					list = append(list, q)
				}
			}
		}
		for _, ed := range vd.Adds {
			if seed[ed.Src] < algorithms.RelaxInf {
				list = append(list, ed.Src)
			}
		}
		for _, s := range vd.Moved {
			if u := vd.Seg[s]; seed[u] < algorithms.RelaxInf {
				list = append(list, u)
			}
		}
		if spec.grownJoins {
			list = append(list, vd.Grown...)
		}
		slices.Sort(list)
		list = slices.Compact(list)
		algorithms.RelaxResume(e, seed, spec.weighted, frontier.FromVertices(rg, list))
		return RefineStats{ResetVertices: len(cone), FrontierVertices: len(list)}, true
	}
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
	return refine(v, sys, refineKey{alg: "bfs", root: root}, 0,
		func(e Engine) []int64 { return algorithms.BFSDepths(e, v.ord.Perm[root]) },
		v.refineEngine, v.refineRelax(refineSpec{resetVal: func(VertexID) int64 { return algorithms.RelaxInf }}),
		func(vals []int64) []int32 {
			out := make([]int32, v.nverts)
			for w, s := range v.ord.Perm {
				out[w] = -1
				if d := vals[s]; d < algorithms.RelaxInf {
					out[w] = int32(d)
				}
			}
			return out
		})
}

// RefineCC answers a connected-components query with canonical labels (the
// smallest original vertex ID reaching each vertex — stable across epochs,
// unlike CC's opaque labels) by refining the basis view's converged result
// when the lineage allows. Internally each vertex's state carries the label
// plus its propagation hop count, giving deletions the same supporting-edge
// structure BFS has.
func (v *View) RefineCC(sys System) ([]uint32, RefineStats, error) {
	inv := v.invPerm()
	return refine(v, sys, refineKey{alg: "cc"}, 0,
		func(e Engine) []int64 {
			// Headroom slots seed with inv's zero entry, inert: no edges.
			init := make([]uint32, v.slots())
			for eng := range init {
				init[eng] = uint32(inv[eng])
			}
			return algorithms.CCSeeded(e, init)
		},
		v.refineEngine, v.refineRelax(refineSpec{
			resetVal:   func(u VertexID) int64 { return algorithms.PackCC(uint32(inv[u]), 0) },
			resetJoins: true,
			grownJoins: true,
		}),
		func(vals []int64) []uint32 {
			out := make([]uint32, v.nverts)
			for w, s := range v.ord.Perm {
				out[w] = algorithms.UnpackCCLabel(vals[s])
			}
			return out
		})
}

// RefineSSSP answers a single-source shortest-path query (distances from
// root, Unreached for unreachable vertices, indexed by original vertex ID —
// BellmanFord's exact semantics) by refining the basis view's converged
// result when the lineage allows.
func (v *View) RefineSSSP(sys System, root VertexID) ([]int64, RefineStats, error) {
	if err := v.checkRoot(root); err != nil {
		return nil, RefineStats{}, err
	}
	return refine(v, sys, refineKey{alg: "sssp", root: root}, 0,
		func(e Engine) []int64 {
			dist := make([]int64, v.slots())
			for i := range dist {
				dist[i] = algorithms.RelaxInf
			}
			dist[v.ord.Perm[root]] = 0
			return algorithms.RelaxResume(e, dist, true, frontier.FromVertex(e.Graph(), v.ord.Perm[root]))
		},
		v.refineEngine, v.refineRelax(refineSpec{weighted: true, resetVal: func(VertexID) int64 { return algorithms.RelaxInf }}),
		func(vals []int64) []int64 {
			out := make([]int64, v.nverts)
			for w, s := range v.ord.Perm {
				out[w] = vals[s]
				if out[w] >= algorithms.RelaxInf {
					out[w] = math.MaxInt64
				}
			}
			return out
		})
}

// RefinePageRank answers a PageRank query converged to within eps (eps <= 0
// selects DefaultRefineEps; NaN is an error; ranks indexed by original
// vertex ID) by resuming the iteration from the basis view's converged
// vector with dirty-vertex frontiers. Cold starts use the delta-update
// formulation with the same convergence threshold, so both paths
// approximate the same fixpoint — the honest comparison baseline, unlike
// the fixed-iteration PageRank. The returned slice is the caller's own,
// gathered fresh from the capture on every call.
func (v *View) RefinePageRank(sys System, eps float64) ([]float64, RefineStats, error) {
	if math.IsNaN(eps) {
		return nil, RefineStats{}, errors.New("vebo: RefinePageRank eps is NaN")
	}
	if eps <= 0 {
		eps = DefaultRefineEps
	}
	perm := v.ord.Perm
	return refine(v, sys, refineKey{alg: "pagerank"}, eps,
		func(e Engine) []float64 { return algorithms.PageRankDeltaN(e, prScratchIters, eps, v.nverts) },
		// The resume reads the whole graph, so it runs on the derived one.
		func(sys System) (Engine, error) { return v.engineFor(sys, deriveQuery) },
		func(e Engine, seed []float64, vd *graph.Delta) (RefineStats, bool) {
			algorithms.PageRankResume(e, seed, *vd, v.nverts, prScratchIters, eps)
			return RefineStats{FrontierVertices: touched(vd)}, true
		},
		func(vals []float64) []float64 { return unpermute(perm, vals) })
}
