package graph

// Chunks reports how many edge chunks g's in-rows reference.
func Chunks(g *Graph) int { return len(g.in.ids) }

// InRowAt returns where each of g's in-rows is stored, as an element index
// into one address space in which chunk c starts at element c<<30.
func InRowAt(g *Graph) func(VertexID) int64 {
	return func(v VertexID) int64 {
		e := g.in.ext[v]
		return e>>extShift<<30 | e&extMask
	}
}
