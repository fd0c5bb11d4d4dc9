package cst

import (
	"sync"
	"sync/atomic"
	"testing"

	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// ldbcCST builds the CST and path order for one benchmark query over a
// small LDBC-like graph, plus a partition config tight enough to force a
// real multi-partition workload.
func ldbcCST(t *testing.T, name string) (*CST, order.Order, PartitionConfig) {
	t.Helper()
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 120, Seed: 7})
	q, err := ldbc.QueryByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
	c := Build(q, g, tr)
	o := order.PathBased(tr, c)
	cfg := PartitionConfig{MaxSizeBytes: c.SizeBytes()/6 + 64, MaxCandDegree: 16}
	return c, o, cfg
}

// TestPartitionConcurrentMatchesSequentialLDBC is the PR's acceptance gate:
// for every LDBC benchmark query, the concurrent producer — every pool size,
// both modes — yields exactly the sequential Partition's embedding totals.
// The CI -race job runs this, so it also proves the producer is race-clean
// while pieces are enumerated from the worker goroutines.
func TestPartitionConcurrentMatchesSequentialLDBC(t *testing.T) {
	for _, name := range []string{"q1", "q2", "q3", "q4", "q5"} {
		c, o, cfg := ldbcCST(t, name)
		want := Count(c, o)
		var seqSum int64
		seqN := Partition(c, o, cfg, func(p *CST) { seqSum += Enumerate(p, o, nil) })
		if seqSum != want {
			t.Fatalf("%s: sequential union %d, want %d", name, seqSum, want)
		}
		for _, workers := range []int{1, 2, 4} {
			var sum atomic.Int64
			n := PartitionConcurrent(c, o, cfg, ConcurrentOptions{Workers: workers}, func(p *CST) {
				sum.Add(Enumerate(p, o, nil))
			})
			if sum.Load() != want {
				t.Errorf("%s workers=%d: unordered union %d, want %d", name, workers, sum.Load(), want)
			}
			if workers <= 1 && n != seqN {
				t.Errorf("%s workers=%d: %d pieces, sequential %d", name, workers, n, seqN)
			}

			var ordSum int64
			ordN := PartitionConcurrent(c, o, cfg, ConcurrentOptions{Workers: workers, Ordered: true},
				func(p *CST) { ordSum += Enumerate(p, o, nil) })
			if ordSum != want {
				t.Errorf("%s workers=%d: ordered union %d, want %d", name, workers, ordSum, want)
			}
			if ordN != seqN {
				t.Errorf("%s workers=%d: ordered %d pieces, sequential %d", name, workers, ordN, seqN)
			}
		}
	}
}

// TestPartitionConcurrentPieceMultisetMatches: beyond totals, the multiset
// of per-piece embedding counts from the unordered producer equals the
// sequential one — the pieces themselves are identical, only delivery order
// differs.
func TestPartitionConcurrentPieceMultisetMatches(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q2")
	counts := func(run func(process func(*CST)) int) map[int64]int {
		m := make(map[int64]int)
		var mu sync.Mutex
		run(func(p *CST) {
			n := Enumerate(p, o, nil)
			mu.Lock()
			m[n]++
			mu.Unlock()
		})
		return m
	}
	seq := counts(func(process func(*CST)) int { return Partition(c, o, cfg, process) })
	par := counts(func(process func(*CST)) int {
		return PartitionConcurrent(c, o, cfg, ConcurrentOptions{Workers: 4}, process)
	})
	if len(seq) != len(par) {
		t.Fatalf("distinct per-piece counts: %d vs %d", len(par), len(seq))
	}
	for n, k := range seq {
		if par[n] != k {
			t.Fatalf("pieces with %d embeddings: %d vs sequential %d", n, par[n], k)
		}
	}
}

// TestPartitionConcurrentBoundsParallelism: the task pool never runs more
// than Workers process callbacks at once (unordered mode runs them inline on
// the workers), and ordered mode never runs more than one.
func TestPartitionConcurrentBoundsParallelism(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q3")
	const workers = 3
	var inFlight, peak atomic.Int32
	track := func(p *CST) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		Enumerate(p, o, nil)
		inFlight.Add(-1)
	}
	PartitionConcurrent(c, o, cfg, ConcurrentOptions{Workers: workers}, track)
	if p := peak.Load(); p > workers {
		t.Errorf("unordered: %d concurrent process calls, pool bound is %d", p, workers)
	}
	inFlight.Store(0)
	peak.Store(0)
	PartitionConcurrent(c, o, cfg, ConcurrentOptions{Workers: workers, Ordered: true}, track)
	if p := peak.Load(); p > 1 {
		t.Errorf("ordered: %d concurrent process calls, want sequential delivery", p)
	}
}

// TestPartitionConcurrentStealSerialized: unordered-mode Steal offers never
// overlap even with many producer workers, so the host's scheduler state
// needs no locking of its own. The non-atomic counter below is the probe —
// under -race any overlapping offer is reported.
func TestPartitionConcurrentStealSerialized(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q4")
	offers := 0 // deliberately unsynchronised: Steal must be serialized
	var inSteal atomic.Int32
	cfg.Steal = func(p *CST) bool {
		if inSteal.Add(1) != 1 {
			t.Error("overlapping Steal offers")
		}
		offers++
		inSteal.Add(-1)
		return offers%5 == 0
	}
	var processed atomic.Int64
	n := PartitionConcurrent(c, o, cfg, ConcurrentOptions{Workers: 4}, func(p *CST) {
		processed.Add(1)
	})
	if offers == 0 {
		t.Fatal("config never offered a steal — thresholds not tight enough to exercise the hook")
	}
	stolen := int64(offers / 5) // every 5th offer accepted
	if got := processed.Load() + stolen; int64(n) != got {
		t.Errorf("count %d != processed %d + stolen %d", n, processed.Load(), stolen)
	}
}

// TestPartitionOrderedStealSkipsSpeculation: once the drain's Steal takes a
// node, speculating workers must skip its descendants instead of
// materialising restricts the drain will discard. The hook holds every
// speculative chunk task at its gate until the root's Steal decision has
// been marked; with the whole tree under a stolen root, no task may then
// proceed to a restrict.
func TestPartitionOrderedStealSkipsSpeculation(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q2")
	if cfg.Fits(c) {
		t.Fatal("root must violate the thresholds for this scenario")
	}
	release := make(chan struct{})
	var restricts atomic.Int32
	testOrderedHook = func(event string) {
		switch event {
		case "chunk-start":
			<-release
		case "chunk-restrict":
			restricts.Add(1)
		case "stolen":
			close(release)
		}
	}
	defer func() { testOrderedHook = nil }()
	stole := false
	cfg.Steal = func(p *CST) bool {
		if stole {
			return false
		}
		stole = true // first offer is the root: take the whole tree
		return true
	}
	pieces := 0
	n := PartitionConcurrent(c, o, cfg, ConcurrentOptions{Workers: 4, Ordered: true},
		func(*CST) { pieces++ })
	if !stole {
		t.Fatal("Steal was never offered")
	}
	if n != 1 || pieces != 0 {
		t.Fatalf("count=%d pieces=%d after stealing the root, want 1/0", n, pieces)
	}
	if got := restricts.Load(); got != 0 {
		t.Errorf("workers restricted %d chunks under a stolen root, want 0", got)
	}
}

// TestPartitionOrderedStealMidTreeParity: stealing a mid-tree subtree (with
// skip marks active) still delivers every piece outside it, in the exact
// sequential order, with the exact sequential count.
func TestPartitionOrderedStealMidTreeParity(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q3")
	// Sequential reference: accept the third offer.
	runWith := func(run func(PartitionConfig, func(*CST)) int) (pieces []int64, count int) {
		offers := 0
		cfg := cfg
		cfg.Steal = func(p *CST) bool {
			offers++
			return offers == 3
		}
		count = run(cfg, func(p *CST) { pieces = append(pieces, Enumerate(p, o, nil)) })
		return pieces, count
	}
	wantPieces, wantCount := runWith(func(cfg PartitionConfig, process func(*CST)) int {
		return Partition(c, o, cfg, process)
	})
	gotPieces, gotCount := runWith(func(cfg PartitionConfig, process func(*CST)) int {
		return PartitionConcurrent(c, o, cfg, ConcurrentOptions{Workers: 4, Ordered: true}, process)
	})
	if gotCount != wantCount {
		t.Fatalf("count %d, sequential %d", gotCount, wantCount)
	}
	if len(gotPieces) != len(wantPieces) {
		t.Fatalf("%d pieces, sequential %d", len(gotPieces), len(wantPieces))
	}
	for i := range gotPieces {
		if gotPieces[i] != wantPieces[i] {
			t.Fatalf("piece %d has %d embeddings, sequential %d", i, gotPieces[i], wantPieces[i])
		}
	}
}
