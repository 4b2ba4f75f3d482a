package dynamic

import "repro/internal/graph"

// MovedBetween returns, sorted, the vertices w < len(base) whose position
// differs between the permutations base and cur of one numbering lineage.
// Orderings sharing their backing array are equal on that prefix — repairs
// copy the permutation on write and admissions only append — so that check
// answers in O(1); otherwise the prefixes are compared in O(n).
func MovedBetween(base, cur []graph.VertexID) []graph.VertexID {
	if len(base) == 0 || &base[0] == &cur[0] {
		return nil
	}
	var moved []graph.VertexID
	for w, s := range base {
		if cur[w] != s {
			moved = append(moved, graph.VertexID(w))
		}
	}
	return moved
}
