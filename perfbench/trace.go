package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fast "fastmatch"
	"fastmatch/graph"
	"fastmatch/internal/core"
	"fastmatch/internal/cst"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/host"
	"fastmatch/internal/order"
)

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced phases pay one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin allocates a span id and reads the clock.
func (t *tracer) begin() (int64, time.Time) {
	if t == nil {
		return 0, time.Now()
	}
	return t.ids.Add(1), time.Now()
}

// end records span id from start to now.
func (t *tracer) end(id, parent, req int64, name string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(now.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Span names of the layer replay. Each read is replayed once per layer,
// outermost first, on the same query and epoch; a layer's self time is the
// median over reads of its call minus the call one layer down. A first
// Router.MatchContext takes whatever plan-cache miss the epoch left, so the
// layered calls after it all find a warm plan.
const (
	spFirst     = "router.first"  // Router.MatchContext, first of the request
	spClient    = "client.count"  // POST /count over the loopback connection
	spServer    = "server.serve"  // Server.ServeHTTP into a recorder
	spRouter    = "router.match"  // Router.MatchContext
	spEngine    = "engine.match"  // Engine.MatchContext
	spHost      = "host.match"    // host.Match with the prepared plan
	spPartition = "cst.partition" // cst.Partition, the stages nested inside
	spKernel    = "core.run"      // core.Run on an FPGA-routed piece
	spEnumerate = "cst.enumerate" // cst.Enumerate on a CPU-routed piece
	spEstimate  = "cst.estimate"  // the δ test: cst.EstimateWorkload on a piece
	spOrder     = "order.plan"    // SelectRoot+BuildBFSTree, then PathBased
	spBuild     = "cst.build"     // cst.BuildWorkers
	spRebuild   = "cst.rebuild"   // host.PrepareSeeded after an epoch
	spDynamic   = "dynamic.apply" // Router.ApplyDelta
	spApply     = "graph.apply"   // graph.(*Graph).ApplyDelta on the mirror
	spSubBuild  = "cst.sub_build" // the subscription's CST rebuild
	spAffected  = "cst.affected"  // cst.EnumerateAffected, old and new CST
)

// replay drives one run's traced layer replay.
type replay struct {
	r     *run
	tr    *tracer
	ctx   context.Context
	sim   fpgasim.Config
	hcfg  host.Config
	eng   *fast.Engine
	epoch uint64       // epoch of eng and plans
	seeds []*host.Plan // epoch-0 plans, the seeds of later epochs
	plans []*host.Plan
	kopts core.Options

	// The subscription query's plan, mirrored to time EnumerateAffected.
	subTree *order.Tree
	subOrd  order.Order
	subCST  *cst.CST

	reads     []int64 // request ids of replayed reads
	writes    []int64 // request ids of replayed writes
	seeded    int     // writes whose new epoch was plan-seeded
	res       []*fast.Result
	stage     []stageStats
	fpgaParts []*cst.CST // sample of FPGA-routed pieces, for allocs per run
	fpgaOrds  []order.Order
}

// stageStats is what one stage replay observed.
type stageStats struct {
	pieces, cpuPieces, kernelRuns int
	pieceBytes, rootBytes         int64
	transferBytes                 int64
}

func newReplay(r *run, tr *tracer) (*replay, error) {
	_, sim := r.w.device()
	x := &replay{r: r, tr: tr, ctx: context.Background(), sim: sim,
		hcfg: host.Config{Device: sim, NumFPGAs: 1, Variant: core.VariantSep,
			Delta: fast.DefaultDelta, Strategy: host.OrderPath, Workers: 1, PartitionWorkers: 1},
		kopts: core.Options{Variant: core.VariantSep, Config: sim, Scratch: new(core.Scratch)},
	}
	x.epoch = uint64(len(r.deltas))
	if err := x.newEpoch(nil); err != nil {
		return nil, err
	}
	x.seeds = x.plans
	q := r.qs[r.subIdx]
	// The router's subscription planned on the epoch-0 graph; the same
	// deterministic calls give the same tree and order.
	x.subTree = order.BuildBFSTree(q, order.SelectRoot(q, r.g0))
	x.subOrd = order.PathBased(x.subTree, cst.BuildWorkers(q, r.g0, x.subTree, routerWorkers))
	x.subCST = cst.BuildWorkers(q, r.mirror, x.subTree, routerWorkers)
	return x, nil
}

// newEpoch gives the replay a warmed engine and host plans for the
// mirror's current epoch. With req set the plans are seeded rebuilds,
// traced as cst.rebuild spans of each query's request; otherwise they are
// planned cold.
func (x *replay) newEpoch(req map[int]int64) error {
	g := x.r.mirror
	eng, err := fast.NewEngine(g, x.r.w.engineOptions())
	if err != nil {
		return err
	}
	x.eng = eng
	for _, q := range x.r.qs {
		if _, err := eng.MatchContext(x.ctx, q, fast.WithLimit(1)); err != nil {
			return err
		}
	}
	x.plans = make([]*host.Plan, len(x.r.qs))
	for qi, q := range x.r.qs {
		if req == nil {
			x.plans[qi], err = host.Prepare(x.ctx, q, g, x.hcfg)
		} else {
			id, start := x.tr.begin()
			x.plans[qi], err = host.PrepareSeeded(x.ctx, q, g, x.hcfg, x.seeds[qi])
			x.tr.end(id, 0, req[qi], spRebuild, start)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// run replays rounds of the mix until budget has passed (at least two
// rounds). On a workload with a concurrent writer every round starts with
// a write, so reads pay the epoch change; otherwise tailWrites follow the
// reads, as the write tail follows the read phase, and the plans are then
// rebuilt for the tail's last epoch on requests of their own, so the
// rebuild is timed on every workload but paid by reads only on churn.
func (x *replay) run(budget time.Duration, tailWrites int) error {
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < budget; round++ {
		reqs := x.newRequests()
		if x.r.w.writeRate > 0 {
			if err := x.write(); err != nil {
				return err
			}
			if err := x.newEpoch(reqs); err != nil {
				return err
			}
		}
		for qi := range x.r.qs {
			if err := x.read(reqs[qi], qi, round < 2); err != nil {
				return err
			}
		}
	}
	for i := 0; i < tailWrites; i++ {
		if err := x.write(); err != nil {
			return err
		}
	}
	if tailWrites > 0 {
		return x.newEpoch(x.newRequests())
	}
	return nil
}

// newRequests allocates one request id per query of the mix.
func (x *replay) newRequests() map[int]int64 {
	reqs := make(map[int]int64, len(x.r.qs))
	for qi := range x.r.qs {
		reqs[qi] = x.tr.ids.Add(1)
	}
	return reqs
}

// read replays one request of query qi through every layer, checking each
// layer's count against the oracle at the current epoch.
func (x *replay) read(req int64, qi int, planCold bool) error {
	r, q, body := x.r, x.r.qs[qi], x.r.bodies[qi]
	want, err := x.expected(qi)
	if err != nil {
		return err
	}
	check := func(layer string, got int64, err error) {
		if err != nil || got != want {
			r.fail("replay %s at epoch %d, %s: count %d (err %v), oracle %d", layer, x.epoch, q.Name(), got, err, want)
		}
	}
	x.reads = append(x.reads, req)

	id, start := x.tr.begin()
	res, err := r.st.router.MatchContext(x.ctx, graphName, q)
	x.tr.end(id, 0, req, spFirst, start)
	check(spFirst, resultCount(res), err)

	id, start = x.tr.begin()
	got, err := r.cl.count(body)
	x.tr.end(id, 0, req, spClient, start)
	check(spClient, got, err)

	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/v1/graphs/"+graphName+"/count", bytes.NewReader(body))
	id, start = x.tr.begin()
	r.st.server.ServeHTTP(rec, hreq)
	x.tr.end(id, 0, req, spServer, start)
	var reply struct {
		Count int64 `json:"count"`
	}
	if rec.Code != http.StatusOK {
		err = fmt.Errorf("status %d", rec.Code)
	} else {
		err = json.Unmarshal(rec.Body.Bytes(), &reply)
	}
	check(spServer, reply.Count, err)

	id, start = x.tr.begin()
	res, err = r.st.router.MatchContext(x.ctx, graphName, q)
	x.tr.end(id, 0, req, spRouter, start)
	check(spRouter, resultCount(res), err)
	if res != nil {
		x.res = append(x.res, res)
	}

	id, start = x.tr.begin()
	res, err = x.eng.MatchContext(x.ctx, q)
	x.tr.end(id, 0, req, spEngine, start)
	check(spEngine, resultCount(res), err)

	cfg := x.hcfg
	cfg.Plan = x.plans[qi]
	id, start = x.tr.begin()
	rep, err := host.Match(x.ctx, q, r.mirror, cfg)
	x.tr.end(id, 0, req, spHost, start)
	check(spHost, rep.Embeddings, err)

	n, st := x.stages(req, q, x.plans[qi])
	check("stage replay", n, nil)
	x.stage = append(x.stage, st)

	if planCold {
		x.plan(req, q)
	}
	return nil
}

// resultCount is a call's count, or -1 when it returned no Result.
func resultCount(res *fast.Result) int64 {
	if res == nil {
		return -1
	}
	return res.Count
}

// expected returns the oracle count of qi at the replay's epoch.
func (x *replay) expected(qi int) (int64, error) {
	e := uint64(len(x.r.deltas))
	if _, ok := x.r.expect[e]; !ok {
		counts, err := oracle(x.r.mirror, x.r.qs)
		if err != nil {
			return 0, err
		}
		x.r.expect[e] = counts
	}
	return x.r.expect[e][qi], nil
}

// plan times Phase 1 the way host.Prepare runs it, split into the order
// module's calls and the CST build.
func (x *replay) plan(req int64, q *graph.Query) {
	g := x.r.mirror
	id, start := x.tr.begin()
	tree := order.BuildBFSTree(q, order.SelectRoot(q, g))
	x.tr.end(id, 0, req, spOrder, start)
	id, start = x.tr.begin()
	c := cst.BuildWorkers(q, g, tree, x.hcfg.PartitionWorkers)
	x.tr.end(id, 0, req, spBuild, start)
	id, start = x.tr.begin()
	_ = order.PathBased(tree, c)
	x.tr.end(id, 0, req, spOrder, start)
}

// partitionConfig derives Algorithm 2's thresholds the way host.Match
// does: the card's BRAM less the partial-results buffer, and its port
// count.
func partitionConfig(q *graph.Query, sim fpgasim.Config) cst.PartitionConfig {
	n := q.NumVertices()
	buffer := int64(n-1) * int64(sim.No) * int64(n*4+4)
	return cst.PartitionConfig{MaxSizeBytes: max(sim.BRAMBytes-buffer, 1024), MaxCandDegree: sim.PortMax}
}

// deltaSplit is Algorithm 3's δ test, as host's scheduler applies it.
type deltaSplit struct{ delta, wc, wf float64 }

func (s *deltaSplit) tryCPU(w float64) bool {
	if s.delta > 0 && s.wc+w < s.delta*(s.wc+s.wf+w) {
		s.wc += w
		return true
	}
	return false
}

func (s *deltaSplit) assignToCPU(w float64) bool {
	if s.tryCPU(w) {
		return true
	}
	s.wf += w
	return false
}

// stages replays Algorithm 2 and 3 on the plan's CST from the benchmark's
// own callbacks: every piece is routed by the δ test, FPGA pieces run
// through core.Run on a modelled card and CPU pieces through
// cst.Enumerate, each nested inside the cst.Partition span.
func (x *replay) stages(req int64, q *graph.Query, p *host.Plan) (int64, stageStats) {
	st := stageStats{rootBytes: p.CST.SizeBytes()}
	if p.CST.IsEmpty() {
		return 0, st
	}
	dev, err := fpgasim.NewDevice(0, x.sim)
	if err != nil {
		x.r.fail("replay device: %v", err)
		return 0, st
	}
	var count int64
	split := deltaSplit{delta: x.hcfg.Delta}
	pid, pstart := x.tr.begin()
	cpu := func(piece *cst.CST) {
		id, start := x.tr.begin()
		count += cst.Enumerate(piece, p.Order, nil)
		x.tr.end(id, pid, req, spEnumerate, start)
		st.cpuPieces++
		st.pieces++
		st.pieceBytes += piece.SizeBytes()
	}
	// deltaTest runs Algorithm 3's test on a piece. Its workload estimate
	// is the δ-share's own cost, paid for every piece wherever it runs.
	deltaTest := func(piece *cst.CST, test func(float64) bool) bool {
		id, start := x.tr.begin()
		ok := test(cst.EstimateWorkload(piece))
		x.tr.end(id, pid, req, spEstimate, start)
		return ok
	}
	pc := partitionConfig(q, x.sim)
	pc.Steal = func(piece *cst.CST) bool {
		if !deltaTest(piece, split.tryCPU) {
			return false
		}
		cpu(piece)
		return true
	}
	cst.Partition(p.CST, p.Order, pc, func(piece *cst.CST) {
		if deltaTest(piece, split.assignToCPU) {
			cpu(piece)
			return
		}
		st.pieces++
		st.pieceBytes += piece.SizeBytes()
		if _, err := dev.StageDRAM(piece.SizeBytes()); err != nil {
			x.r.fail("replay staging: %v", err)
			return
		}
		id, start := x.tr.begin()
		res, err := core.Run(piece, p.Order, x.kopts)
		x.tr.end(id, pid, req, spKernel, start)
		if err != nil {
			x.r.fail("replay kernel: %v", err)
			return
		}
		dev.RunKernel(res.Cycles)
		dev.ReleaseDRAM(piece.SizeBytes())
		count += res.Count
		st.kernelRuns++
		if len(x.fpgaParts) < 32 {
			x.fpgaParts = append(x.fpgaParts, piece)
			x.fpgaOrds = append(x.fpgaOrds, p.Order)
		}
	})
	x.tr.end(pid, 0, req, spPartition, pstart)
	st.transferBytes = dev.TransferredBytes()
	return count, st
}

// write replays one delta batch: Router.ApplyDelta, then the calls one
// layer down on the benchmark's mirror, which it then commits.
func (x *replay) write() error {
	r := x.r
	req := x.tr.ids.Add(1)
	x.writes = append(x.writes, req)
	d := randomBatch(r.wrng, r.mirror)

	id, start := x.tr.begin()
	res, err := r.st.router.ApplyDelta(graphName, d)
	x.tr.end(id, 0, req, spDynamic, start)
	if err != nil {
		return fmt.Errorf("replay Router.ApplyDelta: %w", err)
	}
	if res.PlanSeeded {
		x.seeded++
	}

	id, start = x.tr.begin()
	g2, touched, err := r.mirror.ApplyDelta(d)
	x.tr.end(id, 0, req, spApply, start)
	if err != nil {
		return fmt.Errorf("replay graph.ApplyDelta: %w", err)
	}

	q := r.qs[r.subIdx]
	id, start = x.tr.begin()
	newCST := cst.BuildWorkers(q, g2, x.subTree, routerWorkers)
	x.tr.end(id, 0, req, spSubBuild, start)

	dirty := make(map[graph.VertexID]bool, len(touched))
	for _, v := range touched {
		dirty[v] = true
	}
	isDirty := func(v graph.VertexID) bool { return dirty[v] }
	id, start = x.tr.begin()
	cst.EnumerateAffected(x.subCST, x.subOrd, isDirty, nil)
	cst.EnumerateAffected(newCST, x.subOrd, isDirty, nil)
	x.tr.end(id, 0, req, spAffected, start)
	x.subCST = newCST

	r.commit(d, res.Epoch)
	x.epoch = res.Epoch
	return nil
}

// allocsPerRun is the mean heap allocations of one core.Run with a reused
// scratch, over the sampled FPGA-routed pieces.
func (x *replay) allocsPerRun() float64 {
	if len(x.fpgaParts) == 0 {
		return 0
	}
	total := 0.0
	for i, p := range x.fpgaParts {
		o := x.fpgaOrds[i]
		total += testing.AllocsPerRun(3, func() { _, _ = core.Run(p, o, x.kopts) })
	}
	return total / float64(len(x.fpgaParts))
}
