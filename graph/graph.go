// Package graph provides labelled, undirected, simple graphs stored in
// compressed sparse row (CSR) form, together with builders, loaders and
// synthetic generators. It is the substrate every other package in this
// module (CST construction, the FAST kernel, the baselines and the LDBC-like
// benchmark generator) operates on.
//
// Vertices are dense uint32 identifiers in [0, NumVertices). Every vertex
// carries exactly one label. Adjacency lists are sorted, which makes edge
// lookups O(log d) and set intersections linear.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex of a data graph.
type VertexID = uint32

// Label identifies a vertex label.
type Label = uint16

// Graph is an immutable labelled undirected simple graph in CSR form.
// Construct one with a Builder, a loader from the io files, or a generator.
type Graph struct {
	offsets   []int64    // len = n+1; adjacency of v is neighbors[offsets[v]:offsets[v+1]]
	neighbors []VertexID // sorted within each vertex's range
	labels    []Label    // len = n
	byLabel   [][]VertexID
	numLabels int
	maxDegree int
	// edgeLabels, when non-nil, is aligned with neighbors: the label of
	// half-edge v→neighbors[i] is edgeLabels[i] (see edgelabel.go).
	edgeLabels []EdgeLabel
	// lidx groups every vertex's adjacency by label (labelindex.go)
	// so per-label neighbourhood probes are subslice reads, not filter
	// scans. Built once by every constructor.
	lidx *labelIndex
	// deleted marks tombstoned vertices (delta.go); nil until the first
	// vertex delete, so static graphs pay nothing. A tombstone keeps its id
	// (embeddings stay comparable across epochs) but has no adjacency and
	// is absent from byLabel, so it can never become a matching candidate.
	deleted    []bool
	numDeleted int
	// epoch counts ApplyDelta batches since construction; see Epoch.
	epoch uint64
}

// NumVertices returns |V(G)|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns |E(G)| counting each undirected edge once.
func (g *Graph) NumEdges() int { return len(g.neighbors) / 2 }

// NumLabels returns the size of the label alphabet Σ (the number of distinct
// labels the graph was built with, not necessarily all used).
func (g *Graph) NumLabels() int { return g.numLabels }

// Label returns the label of v.
func (g *Graph) Label(v VertexID) Label { return g.labels[v] }

// Degree returns d_G(v).
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns D_G, the maximum degree over all vertices.
func (g *Graph) MaxDegree() int { return g.maxDegree }

// AvgDegree returns the average degree 2|E|/|V|.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(len(g.neighbors)) / float64(g.NumVertices())
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether (u, v) ∈ E(G). It binary-searches the shorter
// adjacency list of the two endpoints.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// VerticesWithLabel returns all vertices carrying label l, in ascending
// order. The returned slice aliases internal storage.
func (g *Graph) VerticesWithLabel(l Label) []VertexID {
	if int(l) >= len(g.byLabel) {
		return nil
	}
	return g.byLabel[l]
}

// LabelFrequency returns the number of vertices with label l.
func (g *Graph) LabelFrequency(l Label) int { return len(g.VerticesWithLabel(l)) }

// NeighborsWithLabel returns the neighbours of v whose label is l, sorted
// ascending. With a nil dst the result is a zero-copy subslice of the label
// index and must not be modified; a non-nil dst gets the run appended, as
// before the index existed.
func (g *Graph) NeighborsWithLabel(v VertexID, l Label, dst []VertexID) []VertexID {
	lo, hi := g.labelRun(v, l)
	if dst == nil {
		if lo == hi {
			return nil
		}
		// Full-slice expression: an append by the caller copies instead of
		// writing into the shared index.
		return g.lidx.nbrs[lo:hi:hi]
	}
	return append(dst, g.lidx.nbrs[lo:hi]...)
}

// DegreeWithLabel counts neighbours of v labelled l — the length of its run
// in the label index. Used by the neighbourhood-label-frequency (NLF)
// candidate filter.
func (g *Graph) DegreeWithLabel(v VertexID, l Label) int {
	lo, hi := g.labelRun(v, l)
	return int(hi - lo)
}

// SizeBytes returns an estimate of the in-memory footprint of the CSR arrays
// (offsets, neighbours, labels), used when reporting S_G in Fig. 9.
func (g *Graph) SizeBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.neighbors))*4 + int64(len(g.labels))*2
}

// Validate checks structural invariants of the CSR representation: sorted
// adjacency, no self loops, no parallel edges, symmetric edges, offsets
// monotone. It is used by tests and loaders.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), n+1)
	}
	if g.offsets[0] != 0 || g.offsets[n] != int64(len(g.neighbors)) {
		return fmt.Errorf("graph: offsets endpoints [%d,%d], want [0,%d]", g.offsets[0], g.offsets[n], len(g.neighbors))
	}
	if g.deleted != nil && len(g.deleted) != n {
		return fmt.Errorf("graph: deleted length %d, want %d", len(g.deleted), n)
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		adj := g.Neighbors(VertexID(v))
		if g.Deleted(VertexID(v)) && len(adj) > 0 {
			return fmt.Errorf("graph: deleted vertex %d still has %d edges", v, len(adj))
		}
		for i, w := range adj {
			if int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, w)
			}
			if w == VertexID(v) {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if g.Deleted(w) {
				return fmt.Errorf("graph: edge (%d,%d) into deleted vertex", v, w)
			}
			if i > 0 && adj[i-1] >= w {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if !g.HasEdge(w, VertexID(v)) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, w)
			}
		}
	}
	if err := g.validateByLabel(); err != nil {
		return err
	}
	return g.validateLabelIndex()
}

// validateByLabel checks the per-label vertex lists: sorted, labels
// consistent, tombstones excluded, and complete — every live vertex appears
// under its label. ApplyDelta maintains these lists copy-on-write, so the
// check matters most after deltas.
func (g *Graph) validateByLabel() error {
	n := g.NumVertices()
	if len(g.byLabel) != g.numLabels {
		return fmt.Errorf("graph: byLabel has %d labels, want %d", len(g.byLabel), g.numLabels)
	}
	live := 0
	for l, lst := range g.byLabel {
		for i, v := range lst {
			if int(v) >= n {
				return fmt.Errorf("graph: byLabel[%d] has out-of-range vertex %d", l, v)
			}
			if g.labels[v] != Label(l) {
				return fmt.Errorf("graph: byLabel[%d] lists vertex %d with label %d", l, v, g.labels[v])
			}
			if g.Deleted(v) {
				return fmt.Errorf("graph: byLabel[%d] lists deleted vertex %d", l, v)
			}
			if i > 0 && lst[i-1] >= v {
				return fmt.Errorf("graph: byLabel[%d] not strictly sorted at %d", l, v)
			}
		}
		live += len(lst)
	}
	if live != n-g.numDeleted {
		return fmt.Errorf("graph: byLabel covers %d vertices, want %d live", live, n-g.numDeleted)
	}
	return nil
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{|V|=%d |E|=%d labels=%d avgDeg=%.2f maxDeg=%d}",
		g.NumVertices(), g.NumEdges(), g.numLabels, g.AvgDegree(), g.maxDegree)
}
