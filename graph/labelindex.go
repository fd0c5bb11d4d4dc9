package graph

import (
	"errors"
	"slices"
)

var (
	errMissingLabelIndex = errors.New("graph: label index missing (constructor skipped buildLabelIndex)")
	errLabelIndexShape   = errors.New("graph: label index inconsistent with CSR adjacency")
)

// labelIndex is a secondary copy of the adjacency in which every vertex's
// neighbours are ordered by (label, id): each label's neighbours form one
// contiguous run, ids ascending. It makes NeighborsWithLabel a zero-copy
// subslice and DegreeWithLabel two binary searches — the probes the CST
// construction passes (label filtering, NLF, per-label intersection)
// perform once per candidate, on the host's critical path while the
// (modelled) FPGA idles.
//
// nbrs has the same per-vertex extents as Graph.neighbors, and a run's
// bounds are found by binary search on labels, the neighbours' labels laid
// out alongside nbrs, so the index stores no per-run metadata: two bytes per
// half-edge beyond its copy of the adjacency (plus the aligned half-edge
// labels on edge-labeled graphs).
type labelIndex struct {
	nbrs   []VertexID // len(neighbors); per-vertex, ordered by (label, id)
	labels []Label    // labels[p] is the label of nbrs[p]
	// elabels is aligned with nbrs when the graph is edge-labeled, so the
	// label-restricted view carries half-edge labels too; nil otherwise.
	elabels []EdgeLabel
}

func newLabelIndex(halfEdges int) *labelIndex {
	return &labelIndex{nbrs: make([]VertexID, halfEdges), labels: make([]Label, halfEdges)}
}

// buildLabelIndex constructs the index; every Graph constructor calls it
// once the primary CSR and labels are final. Cost is O(|E|) via a per-label
// counting pass per vertex (scratch is generation-free: only touched labels
// are reset).
func (g *Graph) buildLabelIndex() {
	n := g.NumVertices()
	idx := newLabelIndex(len(g.neighbors))
	if g.edgeLabels != nil {
		idx.elabels = make([]EdgeLabel, len(g.neighbors))
	}
	cnt := make([]int64, g.numLabels) // per-label cursor/count for one vertex
	var touched []Label
	for v := 0; v < n; v++ {
		touched = idx.groupVertex(g, v, cnt, touched)
	}
	g.lidx = idx
}

// groupVertex writes v's adjacency in g into nbrs (and the half-edge labels
// into elabels) at v's primary CSR extent, ordered by (label, id). cnt is
// zeroed numLabels-sized scratch, left zeroed on return; touched is reusable
// scratch, returned for the next call. Shared by the full build above and
// the incremental per-delta maintenance below.
func (idx *labelIndex) groupVertex(g *Graph, v int, cnt []int64, touched []Label) []Label {
	adj := g.Neighbors(VertexID(v))
	touched = touched[:0]
	for _, w := range adj {
		l := g.labels[w]
		if cnt[l] == 0 {
			touched = append(touched, l)
		}
		cnt[l]++
	}
	// Turn the counts into each label's write cursor, labels ascending.
	slices.Sort(touched)
	base := g.offsets[v]
	for _, l := range touched {
		base, cnt[l] = base+cnt[l], base
	}
	// Second pass walks adj in ascending-id order, so ids stay sorted
	// within each label run.
	for i, w := range adj {
		l := g.labels[w]
		p := cnt[l]
		idx.nbrs[p], idx.labels[p] = w, l
		if idx.elabels != nil {
			idx.elabels[p] = g.edgeLabels[g.offsets[v]+int64(i)]
		}
		cnt[l] = p + 1
	}
	for _, l := range touched {
		cnt[l] = 0
	}
	return touched
}

// updateLabelIndexFrom maintains g2's label index incrementally from the
// pre-delta graph g: a clean vertex (adjacency untouched by the batch) has
// its grouped span copied verbatim; only dirty vertices are re-grouped. The
// index is never rebuilt from scratch — per-batch cost is O(|E| copied)
// plus the counting pass over dirty adjacency only. Vertex labels are
// immutable and an edge delete dirties both endpoints, so a clean vertex's
// grouping is valid in the new epoch by construction.
func (g2 *Graph) updateLabelIndexFrom(g *Graph, dirty map[VertexID]bool) {
	n := g2.NumVertices()
	old := g.lidx
	idx := newLabelIndex(len(g2.neighbors))
	if g2.edgeLabels != nil {
		idx.elabels = make([]EdgeLabel, len(g2.neighbors))
	}
	cnt := make([]int64, g2.numLabels)
	var touched []Label
	for v := 0; v < n; v++ {
		if dirty[VertexID(v)] {
			touched = idx.groupVertex(g2, v, cnt, touched)
			continue
		}
		copy(idx.nbrs[g2.offsets[v]:g2.offsets[v+1]], old.nbrs[g.offsets[v]:g.offsets[v+1]])
		copy(idx.labels[g2.offsets[v]:g2.offsets[v+1]], old.labels[g.offsets[v]:g.offsets[v+1]])
		if idx.elabels != nil {
			copy(idx.elabels[g2.offsets[v]:g2.offsets[v+1]], old.elabels[g.offsets[v]:g.offsets[v+1]])
		}
	}
	g2.lidx = idx
}

// labelRun returns the [lo, hi) extent in lidx.nbrs holding v's neighbours
// labelled l; lo == hi when v has none: two binary searches over the labels
// of v's grouped span.
func (g *Graph) labelRun(v VertexID, l Label) (int64, int64) {
	labels := g.lidx.labels
	lo, end := g.offsets[v], g.offsets[v+1]
	for n := end - lo; n > 0; {
		half := n >> 1
		if labels[lo+half] < l {
			lo += half + 1
			n -= half + 1
		} else {
			n = half
		}
	}
	hi := lo
	for n := end - hi; n > 0; {
		half := n >> 1
		if labels[hi+half] <= l {
			hi += half + 1
			n -= half + 1
		} else {
			n = half
		}
	}
	return lo, hi
}

// NeighborsWithLabelAndEdgeLabels returns v's neighbours labelled l together
// with the matching half-edge labels (nil for edge-unlabeled graphs), both
// aliasing the label index's storage. Ids are ascending.
func (g *Graph) NeighborsWithLabelAndEdgeLabels(v VertexID, l Label) ([]VertexID, []EdgeLabel) {
	lo, hi := g.labelRun(v, l)
	if lo == hi {
		return nil, nil
	}
	if g.lidx.elabels == nil {
		return g.lidx.nbrs[lo:hi:hi], nil
	}
	return g.lidx.nbrs[lo:hi:hi], g.lidx.elabels[lo:hi:hi]
}

// validateLabelIndex checks the label index against the primary CSR: each
// vertex's grouped span is strictly ascending by (label, id) and holds only
// its neighbours, as many as its degree — so the same set as its primary
// adjacency — with their labels alongside. Graph.Validate calls it.
func (g *Graph) validateLabelIndex() error {
	idx := g.lidx
	if idx == nil {
		return errMissingLabelIndex
	}
	n := g.NumVertices()
	if len(idx.nbrs) != len(g.neighbors) || len(idx.labels) != len(g.neighbors) {
		return errLabelIndexShape
	}
	for v := 0; v < n; v++ {
		for p := g.offsets[v]; p < g.offsets[v+1]; p++ {
			w := idx.nbrs[p]
			if int(w) >= n || !g.HasEdge(VertexID(v), w) || idx.labels[p] != g.labels[w] {
				return errLabelIndexShape
			}
			if p > g.offsets[v] {
				prev := idx.nbrs[p-1]
				if g.labels[prev] > g.labels[w] || (g.labels[prev] == g.labels[w] && prev >= w) {
					return errLabelIndexShape
				}
			}
		}
	}
	return nil
}
