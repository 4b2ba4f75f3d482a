package dynamic

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// numberOracle is the comparator numbering core.Number replaced: sort the
// vertices by (partition, degree descending, ID ascending) and hand each
// partition's vertices consecutive new IDs from its slot base, the sum of
// the earlier partitions' capacities.
func numberOracle(degrees []int64, partOf []uint32, counts []int64) []graph.VertexID {
	order := make([]int, len(degrees))
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if partOf[a] != partOf[b] {
			return partOf[a] < partOf[b]
		}
		if degrees[a] != degrees[b] {
			return degrees[a] > degrees[b]
		}
		return a < b
	})
	next := make([]int64, len(counts))
	for q := 1; q < len(counts); q++ {
		next[q] = next[q-1] + counts[q-1]
	}
	perm := make([]graph.VertexID, len(degrees))
	for _, v := range order {
		q := partOf[v]
		perm[v] = graph.VertexID(next[q])
		next[q]++
	}
	return perm
}

// FuzzNumber holds core.Number to numberOracle, element for element. The
// bytes decode into P ∈ [1,8], up to 63 vertices with degrees in [0,3]
// (zeros and ties) plus one hub, a partition per vertex (so some partitions
// may be empty), and per-partition capacities of occupancy plus up to two
// free slots, or exactly occupancy (a compact ordering).
func FuzzNumber(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		p := 1 + next()%8
		n := next() % 64
		compact := next()%2 == 0
		degrees, partOf := make([]int64, n), make([]uint32, n)
		occ := make([]int64, p)
		for v := range degrees {
			degrees[v] = int64(next() % 4)
			partOf[v] = uint32(next() % p)
			occ[partOf[v]]++
		}
		if n > 0 {
			degrees[next()%n] = int64(1000 + next())
		}
		counts := make([]int64, p)
		for q := range counts {
			counts[q] = occ[q]
			if !compact {
				counts[q] += int64(next() % 3)
			}
		}
		got, want := core.Number(degrees, partOf, counts), numberOracle(degrees, partOf, counts)
		if !slices.Equal(got, want) {
			t.Fatalf("Number(%v, %v, %v) = %v, oracle %v", degrees, partOf, counts, got, want)
		}
	})
}

// checkNumbered holds the ordering against numberOracle over the live
// state. It is valid right after a renumbering event (a rebuild or a
// relabeling spill): swaps since would have moved vertices off the rule.
func checkNumbered(t *testing.T, d *Graph) {
	t.Helper()
	ord := d.Ordering()
	counts := ord.SlotCounts
	if counts == nil {
		counts = ord.VertexCounts
	}
	if want := numberOracle(d.degIn, ord.PartitionOf, counts); !slices.Equal(ord.Perm, want) {
		t.Fatalf("ordering after renumbering epoch %d = %v, oracle %v", d.RenumEpoch(), ord.Perm, want)
	}
}
