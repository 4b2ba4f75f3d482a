package memsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/numa"
	"repro/internal/partition"
)

func TestSetAssocCacheBasics(t *testing.T) {
	c := newSetAssocCache(1024, 2, 64) // 16 lines, 8 sets x 2 ways
	if c.access(0) {
		t.Fatal("cold access hit")
	}
	if !c.access(0) {
		t.Fatal("warm access missed")
	}
	if !c.access(32) {
		t.Fatal("same-line access missed")
	}
	if c.access(64) {
		t.Fatal("different line hit")
	}
}

func TestSetAssocCacheLRUEviction(t *testing.T) {
	c := newSetAssocCache(128, 1, 64) // direct-mapped, 2 sets
	// two addresses mapping to the same set evict each other
	a := uint64(0)
	b := uint64(2 * 64) // same set (set count 2 → line 0 and line 2 collide)
	c.access(a)
	c.access(b)
	if c.access(a) {
		t.Fatal("direct-mapped conflict should have evicted a")
	}
}

func TestSetAssocCacheAssociativityHoldsBoth(t *testing.T) {
	c := newSetAssocCache(256, 2, 64) // 4 lines, 2 sets x 2 ways
	a := uint64(0)
	b := uint64(2 * 64) // same set, second way
	c.access(a)
	c.access(b)
	if !c.access(a) || !c.access(b) {
		t.Fatal("2-way set should hold both lines")
	}
}

func TestLoopPredictor(t *testing.T) {
	var p loopPredictor
	if p.observe(5) != 1 {
		t.Fatal("first observation should mispredict")
	}
	if p.observe(5) != 0 {
		t.Fatal("repeated trip count should predict")
	}
	if p.observe(7) != 1 {
		t.Fatal("changed trip count should mispredict")
	}
}

func TestCountersMPKI(t *testing.T) {
	c := Counters{Instructions: 2000, LocalMisses: 4, RemoteMisses: 2, TLBMisses: 1, BranchMiss: 8}
	if c.LocalMPKI() != 2 || c.RemoteMPKI() != 1 || c.TLBMKI() != 0.5 || c.BranchMPKI() != 4 {
		t.Fatalf("MPKI wrong: %v %v %v %v", c.LocalMPKI(), c.RemoteMPKI(), c.TLBMKI(), c.BranchMPKI())
	}
	if (Counters{}).LocalMPKI() != 0 {
		t.Fatal("zero-instruction MPKI should be 0")
	}
}

func testSetup(t *testing.T) (*graph.Graph, numa.Topology) {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 12000, S: 1.0, MaxDegree: 300, ZeroInFrac: 0.14, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	return g, numa.Topology{Sockets: 4, ThreadsPerSocket: 2}
}

func TestEdgeMapPullRuns(t *testing.T) {
	g, top := testSetup(t)
	parts, err := partition.ByDestination(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{}, top)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.EdgeMapPull(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != top.Threads() {
		t.Fatalf("threads = %d", len(res.Threads))
	}
	var instr int64
	for _, c := range res.Threads {
		instr += c.Instructions
	}
	if instr == 0 {
		t.Fatal("no instructions simulated")
	}
	// total partition instructions must equal thread instructions
	var pinstr int64
	for _, pi := range res.Partitions {
		pinstr += pi.Instructions
	}
	if pinstr != instr {
		t.Fatalf("partition instr %d != thread instr %d", pinstr, instr)
	}
	// per-partition cycle model must be positive where there is work
	for p, pi := range res.Partitions {
		if pi.Instructions > 0 && pi.Cycles() <= pi.Instructions {
			t.Fatalf("partition %d cycles %d not above instructions %d",
				p, pi.Cycles(), pi.Instructions)
		}
	}
}

func TestEdgeMapPullRejectsTooFewPartitions(t *testing.T) {
	g, top := testSetup(t)
	parts, err := partition.ByDestination(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{}, top)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EdgeMapPull(g, parts); err == nil {
		t.Fatal("expected error: fewer partitions than threads")
	}
}

// The paper's Figure 4e: VEBO's degree-sorted order makes the inner-loop
// exit branch predictable, cutting branch MPKI versus the original order.
func TestVEBOReducesBranchMispredictions(t *testing.T) {
	g, top := testSetup(t)
	const P = 64

	run := func(g *graph.Graph, parts []partition.Partition) Summary {
		m, err := New(Config{}, top)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.EdgeMapPull(g, parts)
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(res.Threads)
	}

	origParts, err := partition.ByDestination(g, P)
	if err != nil {
		t.Fatal(err)
	}
	so := run(g, origParts)

	r, err := core.Reorder(g, P, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := core.Apply(g, r)
	if err != nil {
		t.Fatal(err)
	}
	vparts, err := partition.ByVertexRanges(rg, r.Boundaries())
	if err != nil {
		t.Fatal(err)
	}
	sv := run(rg, vparts)

	if sv.BranchMPKI >= so.BranchMPKI {
		t.Errorf("VEBO branch MPKI %.3f not below original %.3f", sv.BranchMPKI, so.BranchMPKI)
	}
	if sv.BranchMPKI > so.BranchMPKI/2 {
		t.Errorf("VEBO branch MPKI %.3f should be well below original %.3f (paper: 0.04 vs 0.11)",
			sv.BranchMPKI, so.BranchMPKI)
	}
}

// The paper's Table V: with the original order, Algorithm 1's vertex-count
// imbalance makes static vertexmap blocks misalign with NUMA homes, raising
// remote misses; VEBO's vertex balance aligns them.
func TestVEBOReducesVertexMapRemoteMisses(t *testing.T) {
	g, top := testSetup(t)
	const P = 64

	run := func(g *graph.Graph, parts []partition.Partition) Summary {
		m, err := New(Config{}, top)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.VertexMap(g, parts)
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(res.Threads)
	}

	origParts, err := partition.ByDestination(g, P)
	if err != nil {
		t.Fatal(err)
	}
	so := run(g, origParts)

	r, err := core.Reorder(g, P, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := core.Apply(g, r)
	if err != nil {
		t.Fatal(err)
	}
	vparts, err := partition.ByVertexRanges(rg, r.Boundaries())
	if err != nil {
		t.Fatal(err)
	}
	sv := run(rg, vparts)

	if sv.RemoteMPKI >= so.RemoteMPKI {
		t.Errorf("VEBO vertexmap remote MPKI %.3f not below original %.3f",
			sv.RemoteMPKI, so.RemoteMPKI)
	}
}

func TestMachineReset(t *testing.T) {
	g, top := testSetup(t)
	parts, err := partition.ByDestination(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{}, top)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EdgeMapPull(g, parts); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	for _, c := range m.Counters() {
		if c.Instructions != 0 || c.LocalMisses != 0 {
			t.Fatal("Reset left counters")
		}
	}
}

func TestSummarizeSkipsIdleThreads(t *testing.T) {
	s := Summarize([]Counters{
		{Instructions: 1000, LocalMisses: 10},
		{}, // idle
	})
	if s.LocalMPKI != 10 {
		t.Fatalf("LocalMPKI = %v, want 10 (idle thread excluded)", s.LocalMPKI)
	}
}

func buildCOOs(t *testing.T, g *graph.Graph, parts []partition.Partition, o layout.Order) []*layout.COO {
	t.Helper()
	ranges := make([]layout.Range, len(parts))
	for i, pt := range parts {
		ranges[i] = layout.Range{Lo: pt.Lo, Hi: pt.Hi}
	}
	coos, _, err := layout.BuildRanges(g, ranges, o, 1)
	if err != nil {
		t.Fatal(err)
	}
	return coos
}

func TestEdgeMapCOOOrdersDifferOnlyInMisses(t *testing.T) {
	g, top := testSetup(t)
	parts, err := partition.ByDestination(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	run := func(o layout.Order) []Counters {
		m, err := New(Config{}, top)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.EdgeMapCOO(g, parts, buildCOOs(t, g, parts, o))
		if err != nil {
			t.Fatal(err)
		}
		return res.Threads
	}
	csr := run(layout.CSROrder)
	hil := run(layout.HilbertOrder)
	var iCSR, iHil, mCSR, mHil int64
	for i := range csr {
		iCSR += csr[i].Instructions
		iHil += hil[i].Instructions
		mCSR += csr[i].LocalMisses + csr[i].RemoteMisses
		mHil += hil[i].LocalMisses + hil[i].RemoteMisses
	}
	// Destination-change accounting differs between orders, so instruction
	// counts are close but not identical; miss counts must differ.
	if iCSR == 0 || iHil == 0 {
		t.Fatal("no instructions")
	}
	if mCSR == mHil {
		t.Error("CSR and Hilbert orders produced identical miss counts; ordering has no effect")
	}
}

func TestEdgeMapCOOValidation(t *testing.T) {
	g, top := testSetup(t)
	parts, err := partition.ByDestination(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{}, top)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EdgeMapCOO(g, parts, nil); err == nil {
		t.Fatal("expected COO count mismatch error")
	}
	few, err := partition.ByDestination(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EdgeMapCOO(g, few, buildCOOs(t, g, few, layout.CSROrder)); err == nil {
		t.Fatal("expected too-few-partitions error")
	}
}
