package cst

import (
	"sort"
	"sync"

	"fastmatch/graph"
	"fastmatch/internal/order"
)

// Build constructs the CST for (q, G) over the BFS tree t, following
// Algorithm 1: top-down candidate construction, bottom-up refinement, then
// adding edges between non-tree candidate neighbours. The soundness
// constraint — every data vertex participating in an embedding of q stays in
// its candidate set — holds because each pass only removes vertices that
// cannot appear in any embedding.
func Build(q *graph.Query, g *graph.Graph, t *order.Tree) *CST {
	return BuildWorkers(q, g, t, 1)
}

// parallelBuildMin is the candidate-set size below which a stamp-probe pass
// stays serial: goroutine fan-out only pays for itself on large sets.
const parallelBuildMin = 1024

// BuildWorkers is Build with the per-level stamp-probe passes run
// data-parallel over candidate vertices, bounded by workers. Build sits on
// the host's critical path (the modelled FPGA idles until the first
// partition arrives), so every pass leans on the graph's label index:
// candidate filtering scans only same-label vertices, the reachability
// passes probe only same-label neighbourhood runs, and adjacency
// construction looks label-restricted runs up in a position map of the
// destination candidates. The result is identical to Build's for any
// worker count — each pass marks serially, probes in order-preserving
// chunks, and the barrier between passes keeps the level order of
// Algorithm 1.
func BuildWorkers(q *graph.Query, g *graph.Graph, t *order.Tree, workers int) *CST {
	if workers < 1 {
		workers = 1
	}
	c := newCST(q, t)

	// Line 2/4: compute candidates from local features (label, degree and
	// neighbourhood label frequency). Query vertices are independent here,
	// so they fan out across the worker budget.
	nq := q.NumVertices()
	if workers > 1 && nq > 1 {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for u := 0; u < nq; u++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(u graph.QueryVertex) {
				defer wg.Done()
				c.Cand[u] = localCandidates(q, g, u)
				<-sem
			}(u)
		}
		wg.Wait()
	} else {
		for u := 0; u < nq; u++ {
			c.Cand[u] = localCandidates(q, g, u)
		}
	}

	// Membership tests use a generation-stamped array instead of hash
	// sets: marking a candidate set costs one pass and queries are O(1)
	// with no per-pass allocation. Candidates of a query vertex all carry
	// its label, so the reachability probe walks only the matching label
	// run of each neighbourhood instead of the whole adjacency list. Marking
	// is serial; the probe over the filtered set is chunked across workers
	// (stamps are read-only while probing, and the join barrier orders each
	// probe pass after its mark).
	stamp := make([]uint32, g.NumVertices())
	var gen uint32
	mark := func(vs []graph.VertexID) {
		gen++
		for _, v := range vs {
			stamp[v] = gen
		}
	}
	probe := func(vs []graph.VertexID, l graph.Label) []graph.VertexID {
		myGen := gen
		return parallelKeep(vs, workers, func(v graph.VertexID) bool {
			for _, w := range g.NeighborsWithLabel(v, l, nil) {
				if stamp[w] == myGen {
					return true
				}
			}
			return false
		})
	}

	// Lines 3-7: top-down construction. A candidate of u survives only if
	// it is adjacent to at least one candidate of u's tree parent.
	topDown := func() {
		for _, u := range t.BFSOrder {
			if u == t.Root {
				continue
			}
			mark(c.Cand[t.Parent[u]])
			c.Cand[u] = probe(c.Cand[u], q.Label(t.Parent[u]))
		}
	}
	topDown()

	// Lines 8-14: bottom-up refinement. A candidate v of u is valid only if
	// every tree child uc has at least one candidate adjacent to v.
	for i := len(t.BFSOrder) - 1; i >= 0; i-- {
		u := t.BFSOrder[i]
		for _, uc := range t.Children[u] {
			mark(c.Cand[uc])
			c.Cand[u] = probe(c.Cand[u], q.Label(uc))
		}
	}

	// One more top-down pass: bottom-up refinement may have removed parent
	// candidates, stranding children whose only parents vanished. The paper
	// removes such candidates from adjacency lists (line 14); pruning them
	// from C(u) as well is equivalent and keeps the CST smaller.
	topDown()

	// Candidate sets are final: pack them into one exact arena, so the
	// filter passes' shrinkage does not stay alive as slack for the CST's
	// lifetime (a cached plan holds it for as long as it serves).
	total := 0
	for _, cands := range c.Cand {
		total += len(cands)
	}
	arena := make([]graph.VertexID, 0, total)
	for u, cands := range c.Cand {
		lo := len(arena)
		arena = append(arena, cands...)
		c.Cand[u] = arena[lo:len(arena):len(arena)]
	}

	// Build adjacency lists for tree edges and (lines 15-19) non-tree
	// candidate neighbours, both directions, into the CST's flat CSR arenas.
	// Candidate counts are final here, so the offsets arena is exact.
	dir := directedEdges(t)
	offTotal := 0
	for _, e := range dir {
		offTotal += len(c.Cand[e[0]]) + 1
	}
	for _, cands := range c.Cand {
		c.sizeBytes += int64(len(cands)) * 4
	}
	// The filter passes are done with the stamps, so their array becomes
	// the adjacency pass's position map: one O(|V(G)|) scratch per build.
	pos := stamp
	clear(pos)
	asm := newAdjAssembler(offTotal, nil, len(dir))
	for _, e := range dir {
		c.buildAdjInto(g, e[0], e[1], pos, &asm)
	}
	asm.finish(c)
	return c
}

// directedEdges lists both directions of every query edge, tree edges first
// in BFS order — the construction order the dense adjacency table is filled
// in.
func directedEdges(t *order.Tree) [][2]graph.QueryVertex {
	dir := make([][2]graph.QueryVertex, 0, 2*(len(t.BFSOrder)-1+len(t.NonTreeEdges)))
	for _, u := range t.BFSOrder {
		if u != t.Root {
			dir = append(dir, [2]graph.QueryVertex{t.Parent[u], u}, [2]graph.QueryVertex{u, t.Parent[u]})
		}
	}
	for _, e := range t.NonTreeEdges {
		dir = append(dir, [2]graph.QueryVertex{e[0], e[1]}, [2]graph.QueryVertex{e[1], e[0]})
	}
	return dir
}

// parallelKeep filters vs in place, preserving order, with the predicate
// evaluated in parallel chunks when the set is large enough to amortise the
// fan-out. Each chunk compacts within its own extent, then a serial pass
// packs the kept runs to the front — exactly the elements (and order) the
// serial filter keeps.
func parallelKeep(vs []graph.VertexID, workers int, keep func(graph.VertexID) bool) []graph.VertexID {
	if workers <= 1 || len(vs) < parallelBuildMin {
		out := vs[:0]
		for _, v := range vs {
			if keep(v) {
				out = append(out, v)
			}
		}
		return out
	}
	chunk := (len(vs) + workers - 1) / workers
	nchunks := (len(vs) + chunk - 1) / chunk
	kept := make([]int, nchunks)
	var wg sync.WaitGroup
	for i := 0; i < nchunks; i++ {
		lo := i * chunk
		hi := min(lo+chunk, len(vs))
		wg.Add(1)
		go func(i int, part []graph.VertexID) {
			defer wg.Done()
			n := 0
			for _, v := range part {
				if keep(v) {
					part[n] = v
					n++
				}
			}
			kept[i] = n
		}(i, vs[lo:hi])
	}
	wg.Wait()
	out := vs[:0]
	for i := 0; i < nchunks; i++ {
		lo := i * chunk
		out = append(out, vs[lo:lo+kept[i]]...)
	}
	return out
}

// localCandidates returns the data vertices conforming with u's local
// features: same label, at least u's degree, and at least u's per-label
// neighbour counts (the NLF filter used by CFL/DAF/CECI). The NLF map is
// hoisted into a sorted slice once per query vertex so the per-candidate
// loop performs no map iteration, and each per-label degree is one
// label-index run lookup.
func localCandidates(q *graph.Query, g *graph.Graph, u graph.QueryVertex) []graph.VertexID {
	type labelNeed struct {
		l    graph.Label
		need int
	}
	nlf := q.NeighborLabelCounts(u)
	needs := make([]labelNeed, 0, len(nlf))
	for l, need := range nlf {
		needs = append(needs, labelNeed{l, need})
	}
	sort.Slice(needs, func(i, j int) bool { return needs[i].l < needs[j].l })
	minDeg := q.Degree(u)
	var out []graph.VertexID
	for _, v := range g.VerticesWithLabel(q.Label(u)) {
		if g.Degree(v) < minDeg {
			continue
		}
		ok := true
		for _, ln := range needs {
			if g.DegreeWithLabel(v, ln.l) < ln.need {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// buildAdjInto fills the from → to adjacency. It maps C(to) into pos
// (pos[v] = 1 + v's index in C(to), 0 for every other data vertex), walks
// each from-candidate's neighbours labelled like `to` (a zero-copy run of
// the label index) and keeps those with a position, emitting their C(to)
// indices. The edge costs O(|C(to)| + Σ d^label_G(v) over C(from)): linear
// in the data edges it touches, as in Algorithm 1's lines 15-19. Label runs
// are strictly ascending by id and C(to) is sorted, so each row comes out
// ascending and duplicate-free. When the query edge carries a label, only
// data edges whose half-edge labels match both directions survive — the
// edge-labeled extension of Section II. pos is all zero again on return.
// Rows land in the assembler's shared arenas; the view is installed at
// finish time.
func (c *CST) buildAdjInto(g *graph.Graph, from, to graph.QueryVertex, pos []uint32, asm *adjAssembler) {
	src, dst := c.Cand[from], c.Cand[to]
	for j, w := range dst {
		pos[w] = uint32(j) + 1
	}
	lt := c.Query.Label(to)
	want := c.Query.EdgeLabel(from, to)
	wantRev := c.Query.EdgeLabel(to, from)
	off := asm.begin(len(src))
	tgtLo := len(asm.tgt)
	var maxDeg int32
	for i, v := range src {
		rowLo := len(asm.tgt)
		adj, elabels := g.NeighborsWithLabelAndEdgeLabels(v, lt)
		for k, w := range adj {
			p := pos[w]
			if p == 0 {
				continue
			}
			// Both half-edge labels must match so that enumerating via
			// either direction of this adjacency enforces the full
			// (possibly direction-encoded) constraint.
			if elabels != nil {
				if want != graph.WildcardEdgeLabel && elabels[k] != want {
					continue
				}
				if wantRev != graph.WildcardEdgeLabel && !g.HasEdgeLabeled(w, v, wantRev) {
					continue
				}
			}
			asm.tgt = append(asm.tgt, CandIndex(p-1))
		}
		off[i+1] = int32(len(asm.tgt) - tgtLo)
		if d := int32(len(asm.tgt) - rowLo); d > maxDeg {
			maxDeg = d
		}
	}
	for _, w := range dst {
		pos[w] = 0
	}
	asm.commit(from, to, len(src), tgtLo, maxDeg)
}
