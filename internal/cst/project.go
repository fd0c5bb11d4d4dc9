package cst

// Keep describes a piece of a root CST by the root candidates it keeps:
// Keep[u] is a bitmap over the root's candidate indices of u, nil when the
// piece keeps all of C(u). A nil Keep is the root itself. Because every
// piece Algorithm 2 produces is the CST induced on the root by its candidate
// sets, a Keep is a complete description of the piece at a fraction of its
// size: one bit per root candidate of each restricted vertex, against the
// piece's own candidate and adjacency arrays.
type Keep [][]uint64

// SizeBytes returns the memory the bitmaps and their headers occupy.
func (k Keep) SizeBytes() int64 {
	size := int64(len(k)) * 24
	for _, b := range k {
		size += int64(len(b)) * 8
	}
	return size
}

// KeptFrom returns the Keep that describes piece relative to root. piece
// must derive from root (a Partition or PartitionConcurrent piece, or a
// piece offered to Steal), so each of its candidate sets is a subset of
// root's; Project(root, KeptFrom(root, piece)) then equals piece. A piece
// that keeps every candidate yields nil.
func KeptFrom(root, piece *CST) Keep {
	words := 0
	for u, rc := range root.Cand {
		if len(piece.Cand[u]) != len(rc) {
			words += bitWords(len(rc))
		}
	}
	if words == 0 {
		return nil
	}
	// One backing array for every bitmap of the piece.
	arena := make([]uint64, words)
	keep := make(Keep, len(root.Cand))
	for u, rc := range root.Cand {
		pc := piece.Cand[u]
		if len(pc) == len(rc) {
			continue // a subset of equal size is the whole set
		}
		n := bitWords(len(rc))
		b := arena[:n:n]
		arena = arena[n:]
		// Both sets are sorted and pc ⊆ rc: one merge pass.
		j := 0
		for _, v := range pc {
			for rc[j] != v {
				j++
			}
			b[j>>6] |= 1 << (uint(j) & 63)
			j++
		}
		keep[u] = b
	}
	return keep
}

// Projector rebuilds pieces from their root CST and a Keep, in one
// materialise step instead of the chain of restricts that first produced
// them. The zero value is ready to use; a Projector is single-goroutine
// state whose buffers are reused across calls.
type Projector struct {
	sc restrictScratch
}

// Project returns the CST induced on root by keep — field for field the
// piece KeptFrom described. A nil keep returns root itself without copying.
// cancel, when non-nil, is polled (amortised) while the piece is built;
// Project returns nil once it fires, which callers must treat as "stop
// producing".
func (pj *Projector) Project(root *CST, keep Keep, cancel func() bool) *CST {
	if keep == nil {
		return root
	}
	pj.sc.cancel = cancel
	pj.sc.grow(len(root.Cand))
	return materialise(root, keep, &pj.sc)
}
