package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	fast "fastmatch"
	"fastmatch/graph"
	"fastmatch/internal/baseline"
)

// run is one benchmark run of one workload: the inputs made from the seed,
// the serving stack, the writer's mirror of the served graph, and every
// correctness failure found.
type run struct {
	w      *workload
	seed   int64
	qs     []*graph.Query
	bodies [][]byte
	subIdx int // index of the subscription query in qs
	g0     *graph.Graph
	st     *stack
	cl     *client
	tr     *tracer // nil while untraced

	// Writer state, owned by whichever phase is writing. deltas[i] is the
	// batch that made epoch i+1.
	mirror    *graph.Graph
	deltas    []graph.Delta
	wrng      *rand.Rand
	committed atomic.Uint64
	inflight  atomic.Bool // a batch is posted and its reply not yet committed

	warm   *phase // unmeasured load after set-up; its counts are checked too
	phases int    // phases measured so far, for the readers' seeds

	// expect[e] are the oracle counts of qs at epoch e, filled by verify.
	expect map[uint64][]int64

	mu    sync.Mutex
	wrong []string
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// readRec is one /count: its query, latency, completion time, answer, and
// the window of epochs the router could have served it from. late is how
// long after the client's previous reply it went out: a closed-loop
// request is due the moment that reply is in.
type readRec struct {
	qi     int
	lat    time.Duration
	late   time.Duration
	done   time.Time
	count  int64
	err    error
	lo, hi uint64
}

// writeRec is one /delta: due time, latency from the due time, how late the
// generator sent it, and the epoch it committed.
type writeRec struct {
	due   time.Time
	lat   time.Duration
	late  time.Duration
	epoch uint64
	err   error
}

// phase is one measured window.
type phase struct {
	start      time.Time
	elapsed    time.Duration
	reads      []readRec
	writes     []writeRec
	mem0, mem1 runtime.MemStats
	stats0     fast.GraphStats
	stats1     fast.GraphStats
	hits, miss int64 // plan-cache lookups during the phase, across epochs
}

func newRun(w *workload, seed int64) (*run, error) {
	qs, err := w.mix()
	if err != nil {
		return nil, err
	}
	r := &run{w: w, seed: seed, qs: qs, subIdx: -1, wrng: rand.New(rand.NewSource(writerSeed(seed)))}
	for i, q := range qs {
		r.bodies = append(r.bodies, countBody(q))
		if q.Name() == subscriptionQuery {
			r.subIdx = i
		}
	}
	if r.subIdx < 0 {
		return nil, fmt.Errorf("workload %s: mix lacks the subscription query %s", w.name, subscriptionQuery)
	}
	return r, nil
}

// setupBudget and maxSetups bound how often setup repeats: until the
// repetitions have taken setupBudget together, at most maxSetups times. A
// cheap set-up is timed several times and reported as a median.
const (
	setupBudget = 500 * time.Millisecond
	maxSetups   = 5
)

// setup builds the inputs and the serving stack, timing each repetition,
// and keeps the last stack. It returns the set-up times in seconds.
func (r *run) setup() (sample, error) {
	var (
		times sample
		total time.Duration
	)
	for len(times) < maxSetups && total < setupBudget {
		if r.st != nil {
			r.st.close()
			r.st = nil
		}
		runtime.GC() // start every repetition from the same heap state
		start := time.Now()
		g := r.w.generate(r.seed)
		st, err := newStack(r.w, g, r.qs)
		if err != nil {
			return nil, err
		}
		took := time.Since(start)
		total += took
		times = append(times, took.Seconds())
		r.g0, r.mirror, r.st = g, g, st
	}
	r.cl = newClient(r.st.url)
	counts, err := oracle(r.g0, r.qs)
	if err != nil {
		return nil, err
	}
	r.expect = map[uint64][]int64{0: counts}
	// Let connections open, caches fill and the heap settle before timing.
	r.warm = r.measure(warmup, false)
	return times, nil
}

func (r *run) close() {
	if r.cl != nil {
		r.cl.close()
	}
	if r.st != nil {
		r.st.close()
	}
}

// oracle counts every query on g with the backtracking baseline.
func oracle(g *graph.Graph, qs []*graph.Query) ([]int64, error) {
	counts := make([]int64, len(qs))
	for i, q := range qs {
		res, err := baseline.Backtrack(q, g, baseline.Options{})
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q.Name(), err)
		}
		counts[i] = res.Count
	}
	return counts, nil
}

// trajectory reports whether this run continues the BENCH_* count record:
// it applies to base-400 graphs at the recorded seed.
func (r *run) trajectory() (checked bool, err error) {
	if r.w.base != 400 || r.seed != bench10Seed {
		return false, nil
	}
	for qi, q := range r.qs {
		if want, ok := bench10Counts[q.Name()]; ok && r.expect[0][qi] != want {
			return true, fmt.Errorf("%s: count %d, BENCH_pr10.json records %d", q.Name(), r.expect[0][qi], want)
		}
	}
	return true, nil
}

func (r *run) graphStats() fast.GraphStats { return r.st.router.Stats()[graphName] }

// warmup is the unmeasured read load after every set-up.
const warmup = 500 * time.Millisecond

// measure runs the workload's readers for d, with the open-loop writer
// beside them when writer is set and the workload has one. The tracer
// records client spans when set.
func (r *run) measure(d time.Duration, writer bool) *phase {
	ph := &phase{}
	tally := newPlanTally(r.graphStats())
	runtime.ReadMemStats(&ph.mem0)
	ph.stats0 = tally.last
	start := time.Now()
	ph.start = start
	deadline := start.Add(d)
	perReader := make([][]readRec, r.w.readers)
	var wg sync.WaitGroup
	for c := 0; c < r.w.readers; c++ {
		rng := rand.New(rand.NewSource(readerSeed(r.seed, r.phases, c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			perReader[c] = r.read(rng, deadline)
		}()
	}
	r.phases++
	if writer && r.w.writeRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.writes = r.write(start, r.w.writeRate, 0, deadline, tally)
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&ph.mem1)
	tally.sample(r.graphStats())
	ph.stats1 = tally.last
	ph.hits, ph.miss = tally.hits, tally.miss
	for _, rs := range perReader {
		ph.reads = append(ph.reads, rs...)
	}
	return ph
}

// read is one closed-loop client: the next /count goes out when the last
// reply is in. It sends the mix in rounds, each round every query once in
// an order drawn from rng. A fixed order would let two clients lock into
// one pairing of concurrent queries for a whole phase, and which pairing
// they fall into would move the latencies from one run to the next.
func (r *run) read(rng *rand.Rand, deadline time.Time) []readRec {
	var out []readRec
	var round []int
	var due time.Time // when the previous reply came in
	for time.Now().Before(deadline) {
		if len(round) == 0 {
			round = rng.Perm(len(r.qs))
		}
		qi := round[0]
		round = round[1:]
		lo := r.committed.Load()
		id, start := r.tr.begin()
		count, err := r.cl.count(r.bodies[qi])
		lat := time.Since(start)
		r.tr.end(id, 0, id, "client.count", start)
		var late time.Duration
		if !due.IsZero() {
			late = start.Sub(due)
		}
		due = start.Add(lat)
		out = append(out, readRec{qi: qi, lat: lat, late: late, done: due, count: count, err: err, lo: lo, hi: r.latestPossibleEpoch()})
	}
	return out
}

// settle sends one /count per query with no writer running, so every plan
// of the current epoch is cached afterwards.
func (r *run) settle() *phase {
	e := r.committed.Load()
	ph := &phase{}
	for qi := range r.qs {
		start := time.Now()
		count, err := r.cl.count(r.bodies[qi])
		ph.reads = append(ph.reads, readRec{qi: qi, lat: time.Since(start), count: count, err: err, lo: e, hi: e})
	}
	return ph
}

// latestPossibleEpoch bounds the epoch the router may be serving: the last
// committed one, or the next while a batch is in flight. inflight is read
// first, so a batch that committed in between is still covered.
func (r *run) latestPossibleEpoch() uint64 {
	if r.inflight.Load() {
		return r.committed.Load() + 1
	}
	return r.committed.Load()
}

// write posts delta batches generated from the writer's seed against its
// mirror. With rate > 0 it is open loop: batch k is due at start + k/rate,
// sent no earlier, and timed from its due time, until the deadline. With
// rate == 0 it sends n batches back to back, each due when it is sent.
func (r *run) write(start time.Time, rate float64, n int, deadline time.Time, tally *planTally) []writeRec {
	var out []writeRec
	for k := 0; rate > 0 || k < n; k++ {
		d := randomBatch(r.wrng, r.mirror)
		due := time.Now()
		if rate > 0 {
			due = start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
			if !due.Before(deadline) {
				break
			}
			time.Sleep(time.Until(due))
		}
		if tally != nil {
			tally.sample(r.graphStats()) // the epoch's engine is about to be replaced
		}
		late := time.Since(due)
		r.inflight.Store(true)
		id, sent := r.tr.begin()
		epoch, err := r.cl.delta(d)
		r.tr.end(id, 0, id, "client.delta", sent)
		out = append(out, writeRec{due: due, lat: time.Since(due), late: late, epoch: epoch, err: err})
		if err == nil {
			r.commit(d, epoch)
		}
		r.inflight.Store(false)
	}
	return out
}

// commit applies a batch the server committed to the mirror.
func (r *run) commit(d graph.Delta, epoch uint64) {
	g2, _, err := r.mirror.ApplyDelta(d)
	if err != nil {
		r.fail("mirror rejected committed batch %d: %v", epoch, err)
		return
	}
	r.mirror = g2
	r.deltas = append(r.deltas, d)
	if want := uint64(len(r.deltas)); epoch != want {
		r.fail("batch committed as epoch %d, want %d", epoch, want)
	}
	r.committed.Store(epoch)
}

// planTally sums plan-cache lookups across epochs: each epoch has its own
// engine and counters, so the writer samples the outgoing engine just
// before it posts the batch that replaces it.
type planTally struct {
	mu         sync.Mutex
	last       fast.GraphStats
	hits, miss int64
}

func newPlanTally(s fast.GraphStats) *planTally { return &planTally{last: s} }

func (t *planTally) sample(s fast.GraphStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Epoch == t.last.Epoch {
		t.hits += s.PlanCacheHits - t.last.PlanCacheHits
		t.miss += s.PlanCacheMisses - t.last.PlanCacheMisses
	} else {
		t.hits += s.PlanCacheHits
		t.miss += s.PlanCacheMisses
	}
	t.last = s
}

// verify checks every reply of the phases against the oracle, then the
// final epoch: one more /count per query and the subscription's running
// count, both against the oracle on the benchmark's own mirror graph.
func (r *run) verify(phases ...*phase) error {
	phases = append(phases, r.warm)
	final := uint64(len(r.deltas))
	need := map[uint64]bool{final: true}
	for _, ph := range phases {
		for _, rd := range ph.reads {
			if rd.err != nil {
				continue
			}
			for e := rd.lo; e <= min(rd.hi, final); e++ {
				need[e] = true
			}
		}
	}
	if err := r.fillOracle(need); err != nil {
		return err
	}
	for _, ph := range phases {
		for _, rd := range ph.reads {
			if rd.err != nil {
				continue
			}
			ok := false
			for e := rd.lo; e <= min(rd.hi, final) && !ok; e++ {
				ok = rd.count == r.expect[e][rd.qi]
			}
			if !ok {
				r.fail("%s: count %d matches the oracle at no epoch in [%d,%d]", r.qs[rd.qi].Name(), rd.count, rd.lo, rd.hi)
			}
		}
	}
	if got := r.graphStats().Epoch; got != final {
		r.fail("router is at epoch %d, mirror at %d", got, final)
	}
	for qi, q := range r.qs {
		got, err := r.cl.count(r.bodies[qi])
		if err != nil || got != r.expect[final][qi] {
			r.fail("final epoch %d, %s: count %d (err %v), oracle %d", final, q.Name(), got, err, r.expect[final][qi])
		}
	}
	if !r.st.notes.waitFor(final, 10*time.Second) {
		r.fail("subscription never delivered epoch %d", final)
	}
	r.st.notes.mu.Lock()
	running := r.expect[0][r.subIdx] + r.st.notes.net
	r.st.notes.mu.Unlock()
	if want := r.expect[final][r.subIdx]; running != want {
		r.fail("subscription %s: running count %d, oracle %d at epoch %d", subscriptionQuery, running, want, final)
	}
	return nil
}

// fillOracle computes the oracle counts of the needed epochs by replaying
// the committed batches from the generated graph, two epochs at a time.
func (r *run) fillOracle(need map[uint64]bool) error {
	type job struct {
		epoch uint64
		g     *graph.Graph
	}
	jobs := make(chan job)
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				counts, err := oracle(j.g, r.qs)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				r.expect[j.epoch] = counts
				mu.Unlock()
			}
		}()
	}
	g := r.g0
	var err error
	for e := uint64(0); e <= uint64(len(r.deltas)) && err == nil; e++ {
		if e > 0 {
			g, _, err = g.ApplyDelta(r.deltas[e-1])
		}
		mu.Lock()
		_, done := r.expect[e]
		mu.Unlock()
		if err == nil && need[e] && !done {
			jobs <- job{e, g}
		}
	}
	close(jobs)
	wg.Wait()
	if err != nil {
		return fmt.Errorf("replaying batches for the oracle: %w", err)
	}
	return firstErr
}

// rateWindow is the width of the windows qps is the median over.
const rateWindow = time.Second

// windowRates returns the read throughput in each whole rateWindow of the
// phase: completions after the window's first, over the time from its first
// completion to its last.
func (ph *phase) windowRates() sample {
	type window struct {
		n           int
		first, last time.Time
	}
	ws := make([]window, int(ph.elapsed/rateWindow))
	for _, rd := range ph.reads {
		k := int(rd.done.Sub(ph.start) / rateWindow)
		if rd.err != nil || k >= len(ws) {
			continue
		}
		w := &ws[k]
		if w.n == 0 || rd.done.Before(w.first) {
			w.first = rd.done
		}
		if w.n == 0 || rd.done.After(w.last) {
			w.last = rd.done
		}
		w.n++
	}
	var rates sample
	for _, w := range ws {
		if span := w.last.Sub(w.first); w.n > 1 && span > 0 {
			rates = append(rates, float64(w.n-1)/span.Seconds())
		}
	}
	return rates
}

// readStats returns the successful read latencies and the number of reads
// attempted and failed.
func readStats(reads []readRec) (lat sample, attempted, failed int) {
	for _, rd := range reads {
		attempted++
		if rd.err != nil {
			failed++
			continue
		}
		lat = append(lat, ms(rd.lat))
	}
	return lat, attempted, failed
}

func writeStats(ws []writeRec) (lat, late sample, attempted, failed int) {
	for _, w := range ws {
		attempted++
		if w.err != nil {
			failed++
			continue
		}
		lat = append(lat, ms(w.lat))
		late = append(late, ms(w.late))
	}
	return lat, late, attempted, failed
}

// notifyLatencies joins each committed batch's due time with the arrival
// of its MatchDelta.
func (r *run) notifyLatencies(ws []writeRec) sample {
	r.st.notes.mu.Lock()
	defer r.st.notes.mu.Unlock()
	var out sample
	for _, w := range ws {
		if at, ok := r.st.notes.arrived[w.epoch]; ok && w.err == nil {
			out = append(out, ms(at.Sub(w.due)))
		}
	}
	return out
}
