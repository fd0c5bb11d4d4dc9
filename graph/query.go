package graph

import (
	"fmt"
	"sort"
)

// QueryVertex identifies a vertex of a query graph. Query graphs are tiny
// (the paper's largest has 7 vertices) so a plain int keeps indexing simple.
type QueryVertex = int

// Query is a small labelled, connected, undirected query graph q. Unlike
// Graph it stores adjacency as per-vertex slices because |V(q)| is tiny and
// the matching machinery iterates neighbourhoods constantly.
type Query struct {
	labels []Label
	adj    [][]QueryVertex
	name   string
	// edgeLabels maps directed half-edges to required labels; nil for
	// edge-unlabeled queries (see edgelabel.go).
	edgeLabels map[[2]QueryVertex]EdgeLabel
}

func errNoSuchEdge(name string, u, v QueryVertex) error {
	return fmt.Errorf("query %q: no edge (%d,%d)", name, u, v)
}

// MaxQueryVertices bounds |V(q)|. Subgraph queries are small (the paper's
// largest has 7 vertices), while matching state grows quadratically with
// them: every CST keeps a dense |V(q)|×|V(q)| adjacency table, so a
// 40,000-vertex path query would ask for about 90 GB before any data is
// touched. 64 also keeps a set of query vertices within one machine word,
// which the failing-set baseline relies on.
const MaxQueryVertices = 64

// NewQuery creates a query with the given vertex labels and edges.
// It validates size, simplicity and connectivity.
func NewQuery(name string, labels []Label, edges [][2]QueryVertex) (*Query, error) {
	n := len(labels)
	if n == 0 {
		return nil, fmt.Errorf("query %q: no vertices", name)
	}
	if n > MaxQueryVertices {
		return nil, fmt.Errorf("query %q: %d vertices, more than the %d supported", name, n, MaxQueryVertices)
	}
	if maxEdges := n * (n - 1) / 2; len(edges) > maxEdges {
		return nil, fmt.Errorf("query %q: %d edges, but a simple graph on %d vertices has at most %d", name, len(edges), n, maxEdges)
	}
	q := &Query{
		labels: append([]Label(nil), labels...),
		adj:    make([][]QueryVertex, n),
		name:   name,
	}
	seen := make(map[[2]QueryVertex]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("query %q: edge (%d,%d) out of range", name, u, v)
		}
		if u == v {
			return nil, fmt.Errorf("query %q: self loop at %d", name, u)
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]QueryVertex{u, v}] {
			return nil, fmt.Errorf("query %q: duplicate edge (%d,%d)", name, u, v)
		}
		seen[[2]QueryVertex{u, v}] = true
		q.adj[u] = append(q.adj[u], v)
		q.adj[v] = append(q.adj[v], u)
	}
	for u := range q.adj {
		sort.Ints(q.adj[u])
	}
	if !q.connected() {
		return nil, fmt.Errorf("query %q: not connected", name)
	}
	return q, nil
}

// MustQuery is NewQuery but panics on error.
func MustQuery(name string, labels []Label, edges [][2]QueryVertex) *Query {
	q, err := NewQuery(name, labels, edges)
	if err != nil {
		panic(err)
	}
	return q
}

func (q *Query) connected() bool {
	n := len(q.labels)
	visited := make([]bool, n)
	stack := []QueryVertex{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range q.adj[u] {
			if !visited[v] {
				visited[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// Name returns the query's human-readable name (e.g. "q3").
func (q *Query) Name() string { return q.name }

// NumVertices returns |V(q)|.
func (q *Query) NumVertices() int { return len(q.labels) }

// NumEdges returns |E(q)|.
func (q *Query) NumEdges() int {
	m := 0
	for _, a := range q.adj {
		m += len(a)
	}
	return m / 2
}

// Label returns the label of query vertex u.
func (q *Query) Label(u QueryVertex) Label { return q.labels[u] }

// Degree returns d_q(u).
func (q *Query) Degree(u QueryVertex) int { return len(q.adj[u]) }

// Neighbors returns the sorted neighbours of u. The slice aliases internal
// storage and must not be modified.
func (q *Query) Neighbors(u QueryVertex) []QueryVertex { return q.adj[u] }

// HasEdge reports whether (u,v) ∈ E(q).
func (q *Query) HasEdge(u, v QueryVertex) bool {
	a := q.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// NeighborLabelCounts returns, for vertex u, a map label → number of
// neighbours of u with that label; the NLF filter compares it against data
// vertices.
func (q *Query) NeighborLabelCounts(u QueryVertex) map[Label]int {
	m := make(map[Label]int, len(q.adj[u]))
	for _, v := range q.adj[u] {
		m[q.labels[v]]++
	}
	return m
}

// String summarises the query.
func (q *Query) String() string {
	return fmt.Sprintf("Query{%s |V|=%d |E|=%d}", q.name, q.NumVertices(), q.NumEdges())
}

// Embedding is an injective mapping from query vertices to data vertices:
// Embedding[u] is the data vertex query vertex u maps to. Its length always
// equals |V(q)| for complete embeddings.
type Embedding []VertexID

// Clone returns a copy of the embedding.
func (e Embedding) Clone() Embedding { return append(Embedding(nil), e...) }

// Key returns a canonical string key of the embedding, used by tests to
// compare embedding sets across engines.
func (e Embedding) Key() string {
	b := make([]byte, 0, len(e)*5)
	for _, v := range e {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
	}
	return string(b)
}

// VerifyEmbedding checks that e is a genuine subgraph-isomorphism embedding
// of q in g: labels match, the mapping is injective and every query edge is
// present in g. Returns nil when valid.
func VerifyEmbedding(q *Query, g *Graph, e Embedding) error {
	if len(e) != q.NumVertices() {
		return fmt.Errorf("embedding length %d, want %d", len(e), q.NumVertices())
	}
	seen := make(map[VertexID]QueryVertex, len(e))
	for u, v := range e {
		if int(v) >= g.NumVertices() {
			return fmt.Errorf("u%d mapped to out-of-range vertex %d", u, v)
		}
		if g.Label(v) != q.Label(u) {
			return fmt.Errorf("u%d: label mismatch (query %d, data %d)", u, q.Label(u), g.Label(v))
		}
		if prev, dup := seen[v]; dup {
			return fmt.Errorf("vertices u%d and u%d both map to %d", prev, u, v)
		}
		seen[v] = u
	}
	for u := 0; u < q.NumVertices(); u++ {
		for _, w := range q.Neighbors(u) {
			if w > u {
				continue
			}
			if !g.HasEdge(e[u], e[w]) {
				return fmt.Errorf("query edge (u%d,u%d) not present: (%d,%d)", u, w, e[u], e[w])
			}
			if !g.HasEdgeLabeled(e[u], e[w], q.EdgeLabel(u, w)) ||
				!g.HasEdgeLabeled(e[w], e[u], q.EdgeLabel(w, u)) {
				return fmt.Errorf("query edge (u%d,u%d): edge-label mismatch on (%d,%d)", u, w, e[u], e[w])
			}
		}
	}
	return nil
}
