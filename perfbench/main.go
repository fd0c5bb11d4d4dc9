// Command perfbench is the repository's benchmark. It runs the real serving
// stack in one process, a fast.Server over a fast.Router on a loopback
// listener, drives it with an in-process load generator, checks every count
// against the backtracking oracle, and prints the metrics of one workload.
//
//	perfbench --workload hot-partitioned --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it measures an untraced and a traced serving phase, then replays
// the workload's requests through every layer's public entry point with
// spans kept in memory, and prints the per-layer metrics. The last line of
// standard output is one JSON object; the lines above it are the same
// figures for a reader, with how each was taken.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed of the generated graph and delta batches")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		spans   = flag.String("spans", "", "with --trace 1, write the spans here as JSON lines")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	correct, err := benchmark(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run prints: its metrics, the operations it attempted
// and how many failed, and every wrong count it saw.
type outcome struct {
	rp                *report
	attempted, failed int
	wrong             []string
}

// benchmark runs one workload and prints its result. It reports whether
// every count agreed with the oracle; an error means no result was printed.
func benchmark(w *workload, seed int64, d time.Duration, traced bool, spansPath string) (bool, error) {
	title := "end-to-end (measured host time, tracing off):"
	var (
		o   *outcome
		err error
	)
	if traced {
		title = "per-layer (traced run on the first graph):"
		o, err = tracedRun(w, seed, d, spansPath)
	} else {
		o, err = untraced(w, seed, d)
	}
	if err != nil {
		return false, err
	}
	fmt.Println(title)
	o.rp.print(os.Stdout)
	out := result{Correct: len(o.wrong) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]resultValue{}}
	for _, m := range o.rp.metrics {
		out.Metrics[m.name] = resultValue{m.value, m.unit}
	}
	for _, msg := range o.wrong {
		fmt.Println("WRONG:", msg)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return out.Correct, nil
}

// untraced measures the workload on w.graphs graphs in turn, each for
// an equal share of d, and computes the end-to-end metrics.
func untraced(w *workload, seed int64, d time.Duration) (*outcome, error) {
	m := &measured{}
	for i := 0; i < w.graphs; i++ {
		if err := m.add(w, graphSeed(seed, i), d/time.Duration(w.graphs), i == 0); err != nil {
			return nil, err
		}
	}
	rp, attempted, failed := endToEnd(w, m)
	return &outcome{rp, attempted, failed, m.wrong}, nil
}

// tracedRun measures an untraced and a traced serving phase of d/2 each on
// the first graph, replays the mix through every layer for d/2, writes the
// spans out, and computes the per-layer metrics.
func tracedRun(w *workload, seed int64, d time.Duration, spansPath string) (*outcome, error) {
	r, err := newRun(w, seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if _, err := r.setup(); err != nil {
		return nil, err
	}
	describe(r, 1)
	a := r.measure(d/2, true)
	r.tr = newTracer()
	b := r.measure(d/2, true)
	x, err := newReplay(r, r.tr)
	if err != nil {
		return nil, err
	}
	tail := 0
	if w.writeRate == 0 {
		tail = 10
	}
	if err := x.run(d/2, tail); err != nil {
		return nil, err
	}
	if err := r.verify(a, b); err != nil {
		return nil, err
	}
	o := &outcome{rp: perLayer(r, a, b, x), attempted: len(x.reads) + len(x.writes), wrong: r.wrong}
	for _, ph := range []*phase{a, b} {
		_, at, f := readStats(ph.reads)
		_, _, wa, wf := writeStats(ph.writes)
		o.attempted += at + wa
		o.failed += f + wf
	}
	if spansPath != "" {
		if err := r.tr.write(spansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), spansPath)
	}
	return o, nil
}

// measured pools the end-to-end samples of the graphs of one run.
type measured struct {
	setup    sample // per graph: median of its set-ups, in seconds
	reads    []readRec
	rates    sample     // read throughput per whole one-second window
	p50, p99 sample     // per graph, see readLatencies
	fewest   int        // fewest successful reads on one graph
	writes   []writeRec // pooled, for the p90
	delta    sample     // per graph: median /delta latency
	notify   sample     // per graph: median due-time-to-MatchDelta latency
	heap     sample     // per graph: live MiB after the read phase
	wrong    []string
}

// add sets up one graph, measures it for d, runs its write tail when the
// workload has one, checks every answer, and pools the samples.
func (m *measured) add(w *workload, seed int64, d time.Duration, first bool) error {
	r, err := newRun(w, seed)
	if err != nil {
		return err
	}
	defer r.close()
	times, err := r.setup()
	if err != nil {
		return err
	}
	if first {
		describe(r, w.graphs)
	}
	reads := r.measure(d, true)
	// Plan every query at the final epoch, so the heap is always taken
	// with the same cache contents.
	settled := r.settle()
	m.heap = append(m.heap, liveHeapMB())
	writes := reads.writes
	if w.writeRate == 0 {
		perGraph := (w.tailBatches + w.graphs - 1) / w.graphs // at least tailBatches in all
		writes = r.write(time.Now(), 0, perGraph, time.Time{}, nil)
	}
	if err := r.verify(reads, settled); err != nil {
		return err
	}
	m.setup = append(m.setup, times.median())
	m.reads = append(m.reads, reads.reads...)
	m.rates = append(m.rates, reads.windowRates()...)
	p50, p99, n := readLatencies(reads.reads, len(r.qs))
	m.p50, m.p99 = append(m.p50, p50), append(m.p99, p99)
	if len(m.p99) == 1 || n < m.fewest {
		m.fewest = n
	}
	m.writes = append(m.writes, writes...)
	wlat, _, _, _ := writeStats(writes)
	m.delta = append(m.delta, wlat.median())
	m.notify = append(m.notify, r.notifyLatencies(writes).median())
	for _, msg := range r.wrong {
		m.wrong = append(m.wrong, fmt.Sprintf("graph seed %d: %s", seed, msg))
	}
	return nil
}

// describe prints the workload record: why it exists, its loop, clients or
// rate, graph size, card, query mix and seeds.
func describe(r *run, graphs int) {
	w := r.w
	dev, _ := w.device()
	fmt.Printf("workload %s (seed %d): %s\n", w.name, r.seed, w.why)
	fmt.Printf("  graphs: %d LDBC sf 1 base %d, generator seeds seed+i*1000003; the first has V=%d E=%d\n",
		graphs, w.base, r.g0.NumVertices(), r.g0.NumEdges())
	fmt.Printf("  card: BRAM %d B, batch %d\n", dev.BRAMBytes, dev.BatchSize)
	fmt.Printf("  reads: closed loop, %d client(s), POST /count in rounds of %s, each in a seeded random order\n", w.readers, strings.Join(w.queries, ","))
	if w.writeRate > 0 {
		fmt.Printf("  writes: open loop, %g single-op batches/s on POST /delta beside the reads\n", w.writeRate)
	} else {
		fmt.Printf("  writes: %d single-op batches on POST /delta, closed loop, after the reads\n", w.tailBatches)
	}
	fmt.Printf("  subscription: %s through Router.Subscribe, in process\n", subscriptionQuery)
	if checked, err := r.trajectory(); err != nil {
		r.fail("trajectory: %v", err)
	} else if checked {
		fmt.Println("  trajectory: q1-q5 counts equal BENCH_pr10.json's (18435, 1000, 710, 2332, 4464)")
	}
}

// liveHeapMB forces a collection and returns the live heap in MiB. The
// second collection frees what the first only moved to sync.Pool's victim
// caches, which would otherwise count or not by the timing of the last GC.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
