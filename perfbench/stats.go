package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the reporting rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of the p-th percentile of n
// samples. The slack absorbs float error, as in 99.9/100*10000.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// percentileLadder is the set of percentiles the benchmark may report.
var percentileLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond samples beyond it among n samples, or 0 when even the
// median has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// sample is a set of measurements, in milliseconds unless noted.
type sample []float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile, or 0 for no samples.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), p)-1]
}

func (s sample) median() float64 { return s.percentile(50) }

// trimmedMean returns the mean without the lowest and the highest sample
// when there are at least three: the average over a run's graphs, which
// one graph measured through a slow spell does not move. It is 0 for no
// samples.
func (s sample) trimmedMean() float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	if len(sorted) >= 3 {
		sorted = sorted[1 : len(sorted)-1]
	}
	return sorted.sum() / float64(len(sorted))
}

func (s sample) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

// ratio returns num/base, or 0 when the base is empty. Every ratio the
// benchmark reports names its base where it is computed.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// span is one traced call: a named interval on the trace clock, the span
// that caused it (0 for none) and the request it served.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTime returns a span's duration minus the part of its interval that
// the union of its children's intervals covers. Overlapping children are
// counted once, and a child's time outside the parent is ignored.
func selfTime(parent span, children []span) time.Duration {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var covered, curLo, curHi int64
	for i, iv := range ivs {
		switch {
		case i == 0:
			curLo, curHi = iv[0], iv[1]
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			covered += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if len(ivs) > 0 {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}
