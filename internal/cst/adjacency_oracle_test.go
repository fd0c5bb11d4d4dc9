package cst

import (
	"fmt"
	"math/rand"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// Label modes of adjOracleCase's random inputs.
const (
	adjUnlabeled  = iota // vertex labels only
	adjEdgeLabels        // both half-edges of an edge share a label
	adjArcLabels         // each half-edge has its own label (directed encoding)
	adjLDBC              // an LDBC query over a small generated network
	adjModes
)

// adjOracleCase derives a (query, data graph) pair from seed in the given
// label mode. Two vertex labels keep candidate sets large and adjacency
// dense. Edge and arc labels are drawn from {0,1,2,3}, so data edges with
// the wildcard label and wildcard query edges both occur.
func adjOracleCase(seed int64, mode int) (*graph.Query, *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	if mode == adjLDBC {
		g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 40 + rng.Intn(40), Seed: seed})
		qs := ldbc.Queries()
		return qs[rng.Intn(len(qs))], g
	}
	cfg := graph.GenConfig{
		NumVertices: 40 + rng.Intn(80),
		NumLabels:   2,
		AvgDegree:   3 + rng.Float64()*5,
		Seed:        seed,
	}
	base := graph.RandomUniform(cfg)
	if rng.Intn(2) == 0 {
		base = graph.RandomPowerLaw(cfg)
	}
	q := graph.RandomConnectedQuery("adj", 2+rng.Intn(4), rng.Intn(3), 2, rng)
	if mode == adjUnlabeled {
		return q, base
	}
	label := func() graph.EdgeLabel { return graph.EdgeLabel(rng.Intn(4)) }
	b := graph.NewBuilder(base.NumVertices(), base.NumEdges())
	for v := 0; v < base.NumVertices(); v++ {
		b.AddVertex(base.Label(graph.VertexID(v)))
	}
	for v := 0; v < base.NumVertices(); v++ {
		for _, w := range base.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) >= w {
				continue
			}
			if mode == adjEdgeLabels {
				b.AddEdgeLabeled(graph.VertexID(v), w, label())
			} else {
				b.AddEdgeArcs(graph.VertexID(v), w, label(), label())
			}
		}
	}
	for u := 0; u < q.NumVertices(); u++ {
		for _, w := range q.Neighbors(u) {
			if u >= w {
				continue
			}
			var err error
			if mode == adjEdgeLabels {
				err = q.SetEdgeLabel(u, w, label())
			} else {
				err = q.SetEdgeArcLabels(u, w, label(), label())
			}
			if err != nil {
				panic(err) // unreachable: {u,w} is an edge of q
			}
		}
	}
	return q, b.MustBuild()
}

// checkAdjacencyOracle checks every directed query edge's adjacency in c
// against the naive pairwise definition. Row i of from → to must hold,
// ascending, exactly the j for which (C(from)[i], C(to)[j]) is a data edge
// whose half-edge labels match the query edge in both directions. The view
// must be valid exactly on q's edges, and its cached longest row must be
// the real one.
func checkAdjacencyOracle(t *testing.T, name string, c *CST, g *graph.Graph) {
	t.Helper()
	q := c.Query
	nq := q.NumVertices()
	for from := 0; from < nq; from++ {
		for to := 0; to < nq; to++ {
			e := c.Edge(from, to)
			if e.Valid() != q.HasEdge(from, to) {
				t.Fatalf("%s: edge %d->%d valid=%v, query edge=%v", name, from, to, e.Valid(), q.HasEdge(from, to))
			}
			if !e.Valid() {
				continue
			}
			src, dst := c.Cand[from], c.Cand[to]
			if len(e.Offsets) != len(src)+1 {
				t.Fatalf("%s: edge %d->%d has %d offsets for %d candidates", name, from, to, len(e.Offsets), len(src))
			}
			want, wantRev := q.EdgeLabel(from, to), q.EdgeLabel(to, from)
			var maxDeg int32
			for i, v := range src {
				row := e.Neighbors(CandIndex(i))
				k := 0
				for j, w := range dst {
					if !g.HasEdgeLabeled(v, w, want) || !g.HasEdgeLabeled(w, v, wantRev) {
						continue
					}
					if k >= len(row) || row[k] != CandIndex(j) {
						t.Fatalf("%s: edge %d->%d row %d (v=%d) = %v, missing or misplaced %d (w=%d)",
							name, from, to, i, v, row, j, w)
					}
					k++
				}
				if k != len(row) {
					t.Fatalf("%s: edge %d->%d row %d (v=%d) = %v, only the first %d are data edges",
						name, from, to, i, v, row, k)
				}
				maxDeg = max(maxDeg, int32(len(row)))
			}
			if e.maxDeg != maxDeg {
				t.Fatalf("%s: edge %d->%d caches longest row %d, real %d", name, from, to, e.maxDeg, maxDeg)
			}
		}
	}
}

// TestBuildAdjacencyOracle pins Build's adjacency (Algorithm 1's tree and
// non-tree edge lists) to the pairwise definition on random graphs with no
// edge labels, with edge labels and with arc labels, and on LDBC q0–q8.
func TestBuildAdjacencyOracle(t *testing.T) {
	for mode := 0; mode < adjLDBC; mode++ {
		for seed := int64(1); seed <= 40; seed++ {
			q, g := adjOracleCase(seed, mode)
			tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
			checkAdjacencyOracle(t, fmt.Sprintf("mode %d seed %d", mode, seed), Build(q, g, tr), g)
		}
	}
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 120, Seed: 7})
	for _, q := range ldbc.Queries() {
		tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
		c := Build(q, g, tr)
		if c.IsEmpty() {
			t.Fatalf("%s: empty CST, the check would be vacuous", q.Name())
		}
		checkAdjacencyOracle(t, q.Name(), c, g)
	}
}

// FuzzBuildAdjacency is TestBuildAdjacencyOracle over fuzzed seeds, label
// modes and worker counts.
func FuzzBuildAdjacency(f *testing.F) {
	for mode := uint8(0); mode < adjModes; mode++ {
		f.Add(int64(mode)+1, mode, uint8(1))
		f.Add(int64(mode)+17, mode, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, mode, workers uint8) {
		q, g := adjOracleCase(seed, int(mode%adjModes))
		tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
		c := BuildWorkers(q, g, tr, int(workers%4)+1)
		checkAdjacencyOracle(t, fmt.Sprintf("mode %d seed %d", mode%adjModes, seed), c, g)
	})
}
