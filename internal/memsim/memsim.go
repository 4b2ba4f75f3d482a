// Package memsim is a software model of the micro-architectural statistics
// the paper reports from hardware performance counters (Figure 4 and Table
// V): last-level cache misses split into locally and remotely serviced,
// TLB misses, and branch mispredictions, all normalized per thousand
// instructions (MPKI).
//
// The reproduction cannot read real counters (and the effects the paper
// measures come from a 4-socket NUMA machine), so the engines' memory-access
// patterns are replayed against an explicit machine model: one set-
// associative LLC per socket, one small TLB per thread, and a trip-count
// loop predictor per thread. A cache miss is "local" when the missing
// data's home socket (determined by which partition owns the vertex) equals
// the accessing thread's socket, "remote" otherwise — the same
// classification the paper's counters make.
package memsim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/numa"
	"repro/internal/partition"
)

// Config sets the machine's cache geometry. The defaults scale the paper's
// Xeon E7-4860 v2 (30 MB LLC per socket for graphs of 40M+ vertices) down to
// the reproduction's ~10^5-vertex graphs; the rest of the geometry is fixed
// (see llcWays, lineBytes and pageBytes).
type Config struct {
	LLCBytes   int // per-socket LLC capacity (default 256 KiB)
	TLBEntries int // per-thread TLB entries (default 64)
}

func (c Config) withDefaults() Config {
	if c.LLCBytes == 0 {
		c.LLCBytes = 256 << 10
	}
	if c.TLBEntries == 0 {
		c.TLBEntries = 64
	}
	return c
}

// Counters accumulates simulated events for one thread.
type Counters struct {
	Instructions int64
	Hits         int64
	LocalMisses  int64 // LLC misses serviced by the thread's own socket
	RemoteMisses int64 // LLC misses serviced by another socket
	TLBMisses    int64
	BranchMiss   int64
}

// MPKI returns misses-per-kilo-instruction for the given event count.
func (c Counters) MPKI(events int64) float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(events) / float64(c.Instructions)
}

// LocalMPKI, RemoteMPKI, TLBMKI and BranchMPKI mirror the paper's reported
// metrics.
func (c Counters) LocalMPKI() float64  { return c.MPKI(c.LocalMisses) }
func (c Counters) RemoteMPKI() float64 { return c.MPKI(c.RemoteMisses) }
func (c Counters) TLBMKI() float64     { return c.MPKI(c.TLBMisses) }
func (c Counters) BranchMPKI() float64 { return c.MPKI(c.BranchMiss) }

// Fixed machine geometry: LLC associativity, cache line and page size.
const (
	llcWays   = 16
	lineBytes = 64
	pageBytes = 4096
)

// Instruction cost model, the MPKI denominator: per edge, per edgemap
// destination vertex and per vertexmap vertex.
const (
	instrPerEdge      = 8
	instrPerVertex    = 12
	instrPerMapVertex = 6
)

// Latency model (in cycles) used by Cycles. Remote misses cost roughly 3x a
// local miss on the paper's 4-socket machine.
const (
	cyclesLocalMiss  = 30
	cyclesRemoteMiss = 90
	cyclesTLBMiss    = 15
	cyclesBranchMiss = 12
)

// Cycles converts the counters into a modeled execution time in cycles:
// one cycle per instruction plus the latency model above. This is the
// per-partition "processing time" proxy used to regenerate Figures 1, 4a
// and 6.
func (c Counters) Cycles() int64 {
	return c.Instructions +
		cyclesLocalMiss*c.LocalMisses +
		cyclesRemoteMiss*c.RemoteMisses +
		cyclesTLBMiss*c.TLBMisses +
		cyclesBranchMiss*c.BranchMiss
}

// Machine is the simulated NUMA machine.
type Machine struct {
	top  numa.Topology
	llcs []*setAssocCache // one per socket
	tlbs []*setAssocCache // one per thread
	lps  []loopPredictor  // one per thread
	cnt  []Counters       // one per thread
}

// New builds a machine for the given topology.
func New(cfg Config, top numa.Topology) (*Machine, error) {
	if err := top.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := &Machine{top: top}
	for s := 0; s < top.Sockets; s++ {
		m.llcs = append(m.llcs, newSetAssocCache(cfg.LLCBytes, llcWays, lineBytes))
	}
	for t := 0; t < top.Threads(); t++ {
		m.tlbs = append(m.tlbs, newSetAssocCache(cfg.TLBEntries*pageBytes, 4, pageBytes))
		m.lps = append(m.lps, loopPredictor{})
		m.cnt = append(m.cnt, Counters{})
	}
	return m, nil
}

// Counters returns a copy of the per-thread counters.
func (m *Machine) Counters() []Counters {
	out := make([]Counters, len(m.cnt))
	copy(out, m.cnt)
	return out
}

// Reset clears counters (cache contents persist; call Cold to flush).
func (m *Machine) Reset() {
	for i := range m.cnt {
		m.cnt[i] = Counters{}
	}
}

// Array identifiers place each logical array in a disjoint address region.
type arrayID uint64

const (
	arrDstValues arrayID = iota + 1 // destination-indexed values (e.g. rank)
	arrSrcValues                    // source-indexed values (e.g. contributions)
	arrIndex                        // per-partition edge index structures
)

func address(a arrayID, index int64, elem int64) uint64 {
	return uint64(a)<<40 + uint64(index*elem)
}

// access simulates one data access by thread t to the element at the given
// home socket.
func (m *Machine) access(t int, a arrayID, index int64, elem int64, home int) {
	addr := address(a, index, elem)
	if !m.tlbs[t].access(addr) {
		m.cnt[t].TLBMisses++
	}
	socket := m.top.SocketOfThread(t)
	if m.llcs[socket].access(addr) {
		m.cnt[t].Hits++
		return
	}
	if home == socket {
		m.cnt[t].LocalMisses++
	} else {
		m.cnt[t].RemoteMisses++
	}
}

// EdgeMapResult carries per-thread and per-partition counters of a replay.
type EdgeMapResult struct {
	Threads    []Counters
	Partitions []Counters
}

// homeOf returns the home socket of vertex v under the partition layout.
func homeOf(top numa.Topology, parts []partition.Partition, v graph.VertexID) int {
	return top.SocketOfPartition(partition.Of(parts, v), len(parts))
}

// EdgeMapPull replays the memory behaviour of one pull-direction dense
// edgemap (e.g. one PageRank iteration) over the given partitioning.
// Partitions are assigned to threads blockwise, as the paper states:
// "thread t executes partitions 8t to 8t+7". Destination values are homed
// with their partition; source values are homed with the partition owning
// the source vertex; per-partition index structures are local.
func (m *Machine) EdgeMapPull(g *graph.Graph, parts []partition.Partition) (*EdgeMapResult, error) {
	return m.EdgeMapPullRows(g, parts, nil)
}

// EdgeMapPullRows replays EdgeMapPull with every in-row read at its storage
// address: entry k of destination d's in-row is element rowAt(d)+k of the
// edge index, 4 bytes per entry, so rows stored apart cost what their
// distance costs. A nil rowAt streams each partition's in-edges through an
// index array of its own, as EdgeMapPull does.
func (m *Machine) EdgeMapPullRows(g *graph.Graph, parts []partition.Partition, rowAt func(graph.VertexID) int64) (*EdgeMapResult, error) {
	threads := m.top.Threads()
	if len(parts) < threads {
		return nil, fmt.Errorf("memsim: %d partitions for %d threads", len(parts), threads)
	}
	res := &EdgeMapResult{
		Threads:    make([]Counters, threads),
		Partitions: make([]Counters, len(parts)),
	}
	perThread := (len(parts) + threads - 1) / threads
	const elem = 8
	for t := 0; t < threads; t++ {
		lo := t * perThread
		hi := lo + perThread
		if hi > len(parts) {
			hi = len(parts)
		}
		socket := m.top.SocketOfThread(t)
		for p := lo; p < hi; p++ {
			pt := parts[p]
			before := m.cnt[t]
			var idx int64 // streaming position in the partition's index array
			for d := pt.Lo; d < pt.Hi; d++ {
				m.cnt[t].Instructions += instrPerVertex
				// destination value access: home is this partition's socket
				m.access(t, arrDstValues, int64(d), elem, m.top.SocketOfPartition(p, len(parts)))
				deg := g.InDegree(d)
				m.cnt[t].BranchMiss += m.lps[t].observe(deg)
				at := int64(p)<<24 + idx
				if rowAt != nil {
					at = rowAt(d)
				}
				for k, s := range g.InNeighbors(d) {
					m.cnt[t].Instructions += instrPerEdge
					// the index structure: local to the partition
					m.access(t, arrIndex, at+int64(k), 4, socket)
					idx++
					// source value: homed with the source's partition
					m.access(t, arrSrcValues, int64(s), elem, homeOf(m.top, parts, s))
				}
			}
			res.Partitions[p] = diff(m.cnt[t], before)
		}
	}
	copy(res.Threads, m.cnt)
	return res, nil
}

// diff returns after - before, field-wise.
func diff(after, before Counters) Counters {
	return Counters{
		Instructions: after.Instructions - before.Instructions,
		Hits:         after.Hits - before.Hits,
		LocalMisses:  after.LocalMisses - before.LocalMisses,
		RemoteMisses: after.RemoteMisses - before.RemoteMisses,
		TLBMisses:    after.TLBMisses - before.TLBMisses,
		BranchMiss:   after.BranchMiss - before.BranchMiss,
	}
}

// EdgeMapCOO replays a dense edgemap that traverses each partition's edges
// in the order stored in its COO (CSR or Hilbert order), as GraphGrind's
// dense traversal does. Per-edge accesses touch the source and destination
// value arrays in COO order, which is exactly where edge ordering changes
// cache behaviour (the paper's Section V-G / Figure 6).
func (m *Machine) EdgeMapCOO(g *graph.Graph, parts []partition.Partition, coos []*layout.COO) (*EdgeMapResult, error) {
	threads := m.top.Threads()
	if len(parts) < threads {
		return nil, fmt.Errorf("memsim: %d partitions for %d threads", len(parts), threads)
	}
	if len(coos) != len(parts) {
		return nil, fmt.Errorf("memsim: %d COOs for %d partitions", len(coos), len(parts))
	}
	res := &EdgeMapResult{
		Threads:    make([]Counters, threads),
		Partitions: make([]Counters, len(parts)),
	}
	perThread := (len(parts) + threads - 1) / threads
	const elem = 8
	for t := 0; t < threads; t++ {
		lo := t * perThread
		hi := lo + perThread
		if hi > len(parts) {
			hi = len(parts)
		}
		socket := m.top.SocketOfThread(t)
		for p := lo; p < hi; p++ {
			before := m.cnt[t]
			c := coos[p]
			home := m.top.SocketOfPartition(p, len(parts))
			var lastSrc, lastDst graph.VertexID
			first := true
			for i := 0; i < c.Len(); i++ {
				m.cnt[t].Instructions += instrPerEdge
				// streaming COO arrays: local to the partition
				m.access(t, arrIndex, int64(p)<<24+int64(i), 8, socket)
				// Value accesses benefit from register reuse while the
				// coordinate repeats: CSR order groups sources, Hilbert
				// order alternates both coordinates in a window. Charge an
				// access (plus reload instructions) only on change.
				if first || c.Src[i] != lastSrc {
					m.cnt[t].Instructions += 2
					m.access(t, arrSrcValues, int64(c.Src[i]), elem, homeOf(m.top, parts, c.Src[i]))
					lastSrc = c.Src[i]
				}
				if first || c.Dst[i] != lastDst {
					m.cnt[t].Instructions += 2
					m.access(t, arrDstValues, int64(c.Dst[i]), elem, home)
					lastDst = c.Dst[i]
				}
				first = false
			}
			res.Partitions[p] = diff(m.cnt[t], before)
		}
	}
	copy(res.Threads, m.cnt)
	return res, nil
}

// VertexMap replays the memory behaviour of one vertexmap: the vertex range
// [0, n) is statically divided over all threads (as Polymer and GraphGrind
// do), while the vertex values remain homed with their partitions. When the
// partitioning has unbalanced vertex counts, thread blocks misalign with
// partition homes and remote misses rise — the effect in the paper's
// Table V.
func (m *Machine) VertexMap(g *graph.Graph, parts []partition.Partition) (*EdgeMapResult, error) {
	threads := m.top.Threads()
	n := g.NumVertices()
	res := &EdgeMapResult{
		Threads:    make([]Counters, threads),
		Partitions: make([]Counters, len(parts)),
	}
	per := (n + threads - 1) / threads
	const elem = 8
	for t := 0; t < threads; t++ {
		lo := t * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		for v := lo; v < hi; v++ {
			m.cnt[t].Instructions += instrPerMapVertex
			m.access(t, arrDstValues, int64(v), elem, homeOf(m.top, parts, graph.VertexID(v)))
		}
	}
	copy(res.Threads, m.cnt)
	return res, nil
}

// Summary averages per-thread MPKI values, mirroring the "Average Values"
// annotations in the paper's Figure 4.
type Summary struct {
	LocalMPKI, RemoteMPKI, TLBMKI, BranchMPKI float64
}

// Summarize averages the counters.
func Summarize(cs []Counters) Summary {
	var s Summary
	n := 0
	for _, c := range cs {
		if c.Instructions == 0 {
			continue
		}
		s.LocalMPKI += c.LocalMPKI()
		s.RemoteMPKI += c.RemoteMPKI()
		s.TLBMKI += c.TLBMKI()
		s.BranchMPKI += c.BranchMPKI()
		n++
	}
	if n > 0 {
		s.LocalMPKI /= float64(n)
		s.RemoteMPKI /= float64(n)
		s.TLBMKI /= float64(n)
		s.BranchMPKI /= float64(n)
	}
	return s
}
