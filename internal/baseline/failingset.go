package baseline

import (
	"fastmatch/graph"
)

// DAFFS is the DAF-like baseline with failing-set pruning, the third pillar
// of the original DAF (Han et al., SIGMOD 2019) alongside the candidate
// space and adaptive ordering. A failing set summarises which query
// vertices were responsible for a subtree's failure; when the vertex
// matched at the current depth is not in the combined failing set of its
// children, trying its remaining candidates cannot help, so the whole
// sibling range is skipped and the failing set propagates upward unchanged.
//
// This implementation uses the same CS-style index as DAF but a static
// connected order (failing sets need a fixed ancestor relation to reason
// about responsibility).
func DAFFS(q *graph.Query, g *graph.Graph, opts Options) (Result, error) {
	idx := buildTreeIndex(q, g, true, opts)
	if idx.empty() {
		return Result{PeakMemory: idx.peak}, nil
	}
	n := q.NumVertices()
	candCount := make([]int, n)
	for u := 0; u < n; u++ {
		candCount[u] = len(idx.cands[u])
	}
	o := connectedOrder(q, candCount)
	pos := make([]int, n)
	for i, u := range o {
		pos[u] = i
	}
	earlier := make([][]graph.QueryVertex, n)
	for i, u := range o {
		for _, w := range q.Neighbors(u) {
			if pos[w] < i {
				earlier[i] = append(earlier[i], w)
			}
		}
	}

	col := &collector{opts: opts}
	mapping := make(graph.Embedding, n)
	// usedBy[v] records which query vertex currently occupies data vertex
	// v, so visited conflicts can name the culprit for the failing set.
	usedBy := make(map[graph.VertexID]graph.QueryVertex, n)
	dl := newDeadline(opts)
	timedOut := false

	// vset is a bitset over query vertices (graph.NewQuery caps n at
	// graph.MaxQueryVertices = 64).
	type vset uint64
	full := vset(0)
	for u := 0; u < n; u++ {
		full |= 1 << u
	}

	// rec returns (failingSet, keepGoing). A subtree containing matches
	// returns the full set, which no ancestor can prune on.
	//
	// Soundness invariant: a returned failing set F (≠ full) contains only
	// vertices matched strictly before this depth, and the subtree fails
	// for *any* extension as long as the assignments of F are unchanged.
	// It is maintained by (a) pinning the candidate pool — the matched
	// query neighbours that define it are always included — so every
	// per-candidate failure reason replays, and (b) stripping u's own bit
	// from child reasons (u's value is pinned per pool member during the
	// replay). The prune rule: when a child's failing set omits the
	// current vertex, the child's failure is independent of its value, so
	// the remaining candidates are skipped wholesale.
	var rec func(depth int) (vset, bool)
	rec = func(depth int) (vset, bool) {
		if dl.expired() {
			timedOut = true
			return full, false
		}
		if depth == n {
			return full, col.add(mapping)
		}
		u := o[depth]
		uBit := vset(1) << u
		poolDef := vset(0) // the matched neighbours that define u's pool
		for _, w := range earlier[depth] {
			poolDef |= 1 << w
		}
		var pool []graph.VertexID
		if depth == 0 {
			pool = idx.cands[u]
		} else {
			lists := make([][]graph.VertexID, 0, len(earlier[depth]))
			for _, w := range earlier[depth] {
				lists = append(lists, idx.neighborsOf(w, u, mapping[w]))
			}
			pool = intersectSorted(nil, lists...)
		}
		if len(pool) == 0 {
			return poolDef, true
		}
		combined := poolDef
		matched := false
		for _, v := range pool {
			if occupant, clash := usedBy[v]; clash {
				// Visited conflict: the occupant's assignment blocks v.
				combined |= 1 << occupant
				continue
			}
			mapping[u] = v
			usedBy[v] = u
			fs, ok := rec(depth + 1)
			delete(usedBy, v)
			if !ok {
				return full, false
			}
			if fs == full {
				matched = true
				continue
			}
			if fs&uBit == 0 {
				// The child failed for reasons independent of u's value:
				// every remaining candidate fails identically. fs is a
				// valid failing set for this whole node (any pool change
				// caused by vertices outside fs is irrelevant — all
				// candidates hit the same child failure).
				if matched {
					return full, true
				}
				return fs, true
			}
			combined |= fs &^ uBit
		}
		if matched {
			return full, true
		}
		return combined, true
	}
	rec(0)
	if timedOut {
		return col.result(idx.peak), ErrTimeout
	}
	return col.result(idx.peak), nil
}
