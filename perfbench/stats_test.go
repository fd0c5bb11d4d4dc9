package main

import (
	"testing"
	"time"

	fast "fastmatch"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if s[0] != 100 {
		t.Error("percentile sorted its receiver in place")
	}
	if got := (sample{}).median(); got != 0 {
		t.Errorf("median of no samples = %g, want 0", got)
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	iv := func(lo, hi int64) span { return span{Start: lo, End: hi} }
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{iv(10, 20), iv(50, 60)}, 80},
		{"overlapping counted once", []span{iv(10, 30), iv(20, 40)}, 70},
		{"nested", []span{iv(10, 50), iv(20, 30)}, 60},
		{"unsorted", []span{iv(60, 70), iv(10, 20)}, 80},
		{"clipped to the parent", []span{iv(-10, 10), iv(90, 120)}, 80},
		{"outside the parent", []span{iv(100, 120), iv(-20, 0)}, 100},
		{"covering", []span{iv(0, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRatioBases(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over an empty base = %g, want 0", got)
	}
	// Pieces: the CPU share is over all pieces, the byte ratio over the
	// root CSTs the pieces were cut from.
	cpu, bytes := stageRatios([]stageStats{
		{pieces: 10, cpuPieces: 1, pieceBytes: 300, rootBytes: 100},
		{pieces: 1, cpuPieces: 0, pieceBytes: 50, rootBytes: 50},
		{},
	})
	if cpu != 1.0/11 || bytes != 350.0/150 {
		t.Errorf("stageRatios = %g, %g; want %g, %g", cpu, bytes, 1.0/11, 350.0/150)
	}
	// Plan-cache lookups: every epoch has a fresh engine whose counters
	// start at zero, so a sample from a new epoch counts in full.
	tally := newPlanTally(fast.GraphStats{Epoch: 0, PlanCacheHits: 5, PlanCacheMisses: 6})
	for _, s := range []fast.GraphStats{
		{Epoch: 0, PlanCacheHits: 105, PlanCacheMisses: 6},
		{Epoch: 1, PlanCacheHits: 3, PlanCacheMisses: 6},
		{Epoch: 1, PlanCacheHits: 10, PlanCacheMisses: 6},
		{Epoch: 3, PlanCacheHits: 1, PlanCacheMisses: 2},
	} {
		tally.sample(s)
	}
	if tally.hits != 111 || tally.miss != 8 {
		t.Errorf("tally = %d hits, %d misses; want 111, 8", tally.hits, tally.miss)
	}
}

func TestWindowRatesUseWholeWindowsAndSuccessfulReads(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ph := &phase{start: t0, elapsed: 2500 * time.Millisecond, reads: []readRec{
		{done: at(100)}, {done: at(300)}, {done: at(500)}, {done: at(900), err: errRefused},
		{done: at(1000)}, {done: at(1500)},
		{done: at(2100)}, {done: at(2200)}, // the last window is not whole
	}}
	got := ph.windowRates()
	want := sample{2 / 0.4, 1 / 0.5}
	if len(got) != len(want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Errorf("window %d: rate %g, want %g", i, got[i], want[i])
		}
	}
}

func TestTrimmedMeanDropsTheExtremes(t *testing.T) {
	for _, c := range []struct {
		s    sample
		want float64
	}{
		{nil, 0}, {sample{4}, 4}, {sample{2, 4}, 3}, {sample{9, 1, 5}, 5}, {sample{100, 1, 2, 3, 4}, 3},
	} {
		if got := c.s.trimmedMean(); got != c.want {
			t.Errorf("trimmedMean(%v) = %g, want %g", c.s, got, c.want)
		}
	}
}
