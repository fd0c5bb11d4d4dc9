package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func squareQuery(t *testing.T) *Query {
	t.Helper()
	// The paper's Fig. 1 query: A(u0)-B(u1), A-C(u2), B-C, C-D(u3).
	return MustQuery("fig1", []Label{0, 1, 2, 3},
		[][2]QueryVertex{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
}

func TestQueryBasics(t *testing.T) {
	q := squareQuery(t)
	if q.NumVertices() != 4 || q.NumEdges() != 4 {
		t.Fatalf("|V|=%d |E|=%d, want 4/4", q.NumVertices(), q.NumEdges())
	}
	if q.Degree(2) != 3 {
		t.Errorf("Degree(2) = %d, want 3", q.Degree(2))
	}
	if !q.HasEdge(1, 2) || q.HasEdge(1, 3) {
		t.Error("HasEdge wrong")
	}
	counts := q.NeighborLabelCounts(2)
	if counts[0] != 1 || counts[1] != 1 || counts[3] != 1 {
		t.Errorf("NeighborLabelCounts(2) = %v", counts)
	}
}

func TestQueryValidation(t *testing.T) {
	if _, err := NewQuery("empty", nil, nil); err == nil {
		t.Error("accepted empty query")
	}
	if _, err := NewQuery("loop", []Label{0}, [][2]QueryVertex{{0, 0}}); err == nil {
		t.Error("accepted self loop")
	}
	if _, err := NewQuery("dup", []Label{0, 1}, [][2]QueryVertex{{0, 1}, {1, 0}}); err == nil {
		t.Error("accepted duplicate edge")
	}
	if _, err := NewQuery("disc", []Label{0, 1, 2}, [][2]QueryVertex{{0, 1}}); err == nil {
		t.Error("accepted disconnected query")
	}
	if _, err := NewQuery("range", []Label{0, 1}, [][2]QueryVertex{{0, 5}}); err == nil {
		t.Error("accepted out-of-range edge")
	}
	// An edge list longer than a simple graph allows is refused before
	// anything is sized from its length.
	if _, err := NewQuery("dense", []Label{0, 1, 2}, [][2]QueryVertex{{0, 1}, {1, 2}, {0, 2}, {2, 0}}); err == nil || !strings.Contains(err.Error(), "at most 3") {
		t.Errorf("4 edges on 3 vertices: err = %v, want the edge-count bound", err)
	}
}

// pathQueryShape returns the labels and edges of an n-vertex path.
func pathQueryShape(n int) ([]Label, [][2]QueryVertex) {
	labels := make([]Label, n)
	edges := make([][2]QueryVertex, n-1)
	for i := range edges {
		edges[i] = [2]QueryVertex{i, i + 1}
	}
	return labels, edges
}

// TestQuerySizeBound: a query up to MaxQueryVertices is accepted; one
// vertex more, and the 40,000-vertex path that once made the CST's dense
// adjacency table ask for about 90 GB, are rejected.
func TestQuerySizeBound(t *testing.T) {
	labels, edges := pathQueryShape(MaxQueryVertices)
	if _, err := NewQuery("max", labels, edges); err != nil {
		t.Fatalf("%d-vertex path rejected: %v", MaxQueryVertices, err)
	}
	for _, n := range []int{MaxQueryVertices + 1, 40000} {
		labels, edges := pathQueryShape(n)
		_, err := NewQuery("big", labels, edges)
		if err == nil || !strings.Contains(err.Error(), "vertices, more than") {
			t.Errorf("%d-vertex path: err = %v, want the size bound", n, err)
		}
	}
}

func TestVerifyEmbedding(t *testing.T) {
	q := squareQuery(t)
	// Data graph of Fig. 1: we rebuild a fragment with one valid embedding.
	g, err := FromEdgeList(
		[]Label{0, 1, 2, 3}, // v0:A v1:B v2:C v3:D
		[][2]VertexID{{0, 1}, {0, 2}, {1, 2}, {2, 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	good := Embedding{0, 1, 2, 3}
	if err := VerifyEmbedding(q, g, good); err != nil {
		t.Errorf("valid embedding rejected: %v", err)
	}
	cases := []struct {
		name string
		e    Embedding
		want string
	}{
		{"short", Embedding{0, 1}, "length"},
		{"label", Embedding{1, 0, 2, 3}, "label"},
		{"dup", Embedding{0, 1, 1, 3}, "label"}, // label check fires first on v1 as C
		{"edge", Embedding{0, 1, 2, 0}, "label"},
	}
	for _, c := range cases {
		err := VerifyEmbedding(q, g, c.e)
		if err == nil {
			t.Errorf("%s: invalid embedding accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestVerifyEmbeddingInjectivity(t *testing.T) {
	// Two query vertices of the same label mapped to the same data vertex
	// must be rejected even though labels match.
	q := MustQuery("twin", []Label{0, 0, 1}, [][2]QueryVertex{{0, 2}, {1, 2}})
	g, err := FromEdgeList([]Label{0, 0, 1}, [][2]VertexID{{0, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEmbedding(q, g, Embedding{0, 0, 2}); err == nil {
		t.Error("non-injective embedding accepted")
	}
	if err := VerifyEmbedding(q, g, Embedding{0, 1, 2}); err != nil {
		t.Errorf("valid embedding rejected: %v", err)
	}
}

func TestEmbeddingKeyDistinct(t *testing.T) {
	a := Embedding{1, 2, 3}
	b := Embedding{1, 2, 4}
	if a.Key() == b.Key() {
		t.Error("distinct embeddings share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Error("clone changed the key")
	}
}

func TestRandomConnectedQueryProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(7)
		q := RandomConnectedQuery("rq", nv, rng.Intn(5), 3, rng)
		if q.NumVertices() != nv {
			return false
		}
		// Connectivity is validated by NewQuery; check degree sum.
		sum := 0
		for u := 0; u < nv; u++ {
			sum += q.Degree(u)
		}
		return sum == 2*q.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
