package graph

// Delta is the edit from a basis slot graph to a later graph of its log
// generation, every field in slot space. dynamic.Frozen.ChangeSince builds
// it once, and every derivation reads it as is: Patch derives the graph
// from it (renumbering by Seg when Broken, else relocating the Moved rows
// and merging Adds and Dels), NewOverlay reads that graph's rows without
// deriving it, the GraphGrind engine patch works out its dirty
// destinations from it, and result refinement seeds and resumes from it.
//
//vebo:frozen
type Delta struct {
	// Adds and Dels are the net edge change, in the target's slots.
	Adds, Dels []Edge
	// Seg maps each basis slot to its target slot, NoVertex at a basis hole
	// left without an image; nil when nothing moved.
	Seg []VertexID
	// Broken reports a lineage break (full rebuild or relabeling spill):
	// the renumbering epochs differ, and Seg is the full map.
	Broken bool
	// Moved holds, sorted, the basis slots of the vertices whose slot
	// changed within one numbering lineage, each one's image at Seg[s].
	// Swap repairs move vertices within a closed set of positions and leave
	// the segment boundaries alone. Nil when Broken.
	Moved []VertexID
	// Grown holds the slots of the vertices admitted since the basis, in
	// admission order.
	Grown []VertexID
}
