package cst

import (
	"sync/atomic"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// FuzzPartitionCounts fuzzes the partition/enumerate invariant across
// threshold space, including the degenerate δS/δD values a caller can hand
// PartitionConfig (zero, negative, or absurdly tiny budgets, and fixed-k
// overrides): whatever the thresholds, partitioning must terminate and the
// per-piece counts must union to exactly the unpartitioned count, for the
// sequential producer and both concurrent modes. Every sequential piece is
// also replayed from its KeptFrom description through Project, and the
// replayed counts must equal the cold ones piece by piece.
//
// corpus selects the subject: 0 is the paper's Fig. 1 running example, 1 is
// LDBC q1 over a small generated social network (the two seeds below), and
// anything else derives a random graph/query pair from seed.
func FuzzPartitionCounts(f *testing.F) {
	// Seed corpus: the Fig. 1 example with the default-ish thresholds, the
	// same with degenerate δS/δD, and LDBC q1 with a budget tight enough to
	// force splits plus a fixed-k variant.
	f.Add(uint8(0), int64(1), int64(256), 4, 0, uint8(2))
	f.Add(uint8(0), int64(1), int64(0), -1, 0, uint8(3))
	f.Add(uint8(0), int64(2), int64(-7), 0, 3, uint8(4))
	f.Add(uint8(1), int64(7), int64(2048), 8, 0, uint8(2))
	f.Add(uint8(1), int64(7), int64(1), 1, 2, uint8(4))
	f.Add(uint8(2), int64(99), int64(512), 3, 0, uint8(2))

	f.Fuzz(func(t *testing.T, corpus uint8, seed int64, maxSize int64, maxDeg, fixedK int, workers uint8) {
		var (
			q *graph.Query
			g *graph.Graph
		)
		switch corpus % 3 {
		case 0:
			q, g = fig1Query(), fig1Data()
		case 1:
			g = ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 40, Seed: 1 + seed%4})
			var err error
			q, err = ldbc.QueryByName("q1")
			if err != nil {
				t.Fatal(err)
			}
		default:
			pc := randomPropCase(seed & 0xffff)
			q, g = pc.q, pc.g
		}
		tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
		c := Build(q, g, tr)
		o := order.PathBased(tr, c)

		// Clamp only magnitudes, never signs: zero and negative thresholds
		// are the degenerate cases under test (they make Fits always false
		// while contributing nothing to the partition factor, driving the
		// recursion to atomic pieces or the order's end).
		if maxSize > c.SizeBytes()*2 {
			maxSize = c.SizeBytes() * 2
		}
		if maxDeg > 1<<16 {
			maxDeg = 1 << 16
		}
		if fixedK < 0 {
			fixedK = -fixedK
		}
		cfg := PartitionConfig{
			MaxSizeBytes:  maxSize,
			MaxCandDegree: maxDeg,
			FixedK:        fixedK % 6,
		}
		w := int(workers%4) + 1

		want := Count(c, o)
		var (
			seqSum int64
			counts []int64
			keeps  []Keep
		)
		seqN := Partition(c, o, cfg, func(p *CST) {
			n := Enumerate(p, o, nil)
			seqSum += n
			counts = append(counts, n)
			keeps = append(keeps, KeptFrom(c, p))
		})
		if seqSum != want {
			t.Fatalf("Partition: piece counts union to %d, want %d (cfg=%+v)", seqSum, want, cfg)
		}
		var pj Projector
		for i, keep := range keeps {
			if n := Enumerate(pj.Project(c, keep, nil), o, nil); n != counts[i] {
				t.Fatalf("replayed piece %d counts %d, cold %d (cfg=%+v)", i, n, counts[i], cfg)
			}
		}

		var unordSum atomic.Int64
		PartitionConcurrent(c, o, cfg, ConcurrentOptions{Workers: w}, func(p *CST) {
			unordSum.Add(Enumerate(p, o, nil))
		})
		if unordSum.Load() != want {
			t.Fatalf("PartitionConcurrent(workers=%d): union %d, want %d (cfg=%+v)", w, unordSum.Load(), want, cfg)
		}

		var ordSum int64
		ordN := PartitionConcurrent(c, o, cfg, ConcurrentOptions{Workers: w, Ordered: true}, func(p *CST) {
			ordSum += Enumerate(p, o, nil)
		})
		if ordSum != want {
			t.Fatalf("PartitionConcurrent(ordered, workers=%d): union %d, want %d (cfg=%+v)", w, ordSum, want, cfg)
		}
		if ordN != seqN {
			t.Fatalf("ordered produced %d pieces, sequential %d (cfg=%+v)", ordN, seqN, cfg)
		}
	})
}
