package fast

import (
	"encoding/json"
	"net/http"
	"testing"

	"fastmatch/graph"
)

// pathShape returns the labels and edges of an n-vertex path, every vertex
// labelled 0.
func pathShape(n int) ([]graph.Label, [][2]graph.QueryVertex) {
	labels := make([]graph.Label, n)
	edges := make([][2]graph.QueryVertex, n-1)
	for i := range edges {
		edges[i] = [2]graph.QueryVertex{i, i + 1}
	}
	return labels, edges
}

// TestQuerySizeBoundEngine: the 40,000-vertex path query that once made
// planning allocate a dense |V(q)|² CST adjacency table (about 90 GB) is
// rejected when it is built, so it can never reach Engine.Match, while the
// largest accepted query plans and matches there with its exact count.
func TestQuerySizeBoundEngine(t *testing.T) {
	labels, edges := pathShape(40000)
	if _, err := graph.NewQuery("huge", labels, edges); err == nil {
		t.Fatal("the 40,000-vertex path query was accepted")
	}

	const n = 100
	dl, de := pathShape(n)
	dataEdges := make([][2]graph.VertexID, len(de))
	for i, e := range de {
		dataEdges[i] = [2]graph.VertexID{graph.VertexID(e[0]), graph.VertexID(e[1])}
	}
	g, err := graph.FromEdgeList(dl, dataEdges)
	if err != nil {
		t.Fatal(err)
	}
	// The kernel's partial-results buffer grows as |V(q)|²·BatchSize; a
	// small batch keeps the largest query's buffer on the default card.
	dev := DefaultDevice()
	dev.BatchSize = 16
	eng, err := NewEngine(g, &Options{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	ql, qe := pathShape(graph.MaxQueryVertices)
	q, err := graph.NewQuery("max", ql, qe)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	// Each placement of the query path along the data path matches in both
	// directions.
	if want := int64(2 * (n - graph.MaxQueryVertices + 1)); res.Count != want {
		t.Errorf("%d-vertex path count %d, want %d", graph.MaxQueryVertices, res.Count, want)
	}
}

// TestQuerySizeBoundServer: /count and /match answer the 40,000-vertex path
// query with 400 and the bad_request reason, before any planning.
func TestQuerySizeBoundServer(t *testing.T) {
	s, _, _ := serverFixture(t, 2, 0)
	labels, qedges := pathShape(40000)
	edges := make([][2]int, len(qedges))
	for i, e := range qedges {
		edges[i] = [2]int{e[0], e[1]}
	}
	body, err := json.Marshal(matchRequest{Labels: labels, Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/graphs/a/count", "/v1/graphs/a/match"} {
		w := postJSON(t, s, path, string(body))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %.200s)", path, w.Code, w.Body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Reason != "bad_request" {
			t.Errorf("%s: envelope %.200s, want reason bad_request", path, w.Body)
		}
	}
}
