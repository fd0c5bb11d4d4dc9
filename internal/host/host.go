// Package host implements the CPU side of the co-designed framework
// (Section IV/V): it builds the CST, partitions it under the device's BRAM
// and port budgets, estimates per-partition workloads, splits work between
// the CPU and one or more simulated FPGA cards under the δ threshold
// (Algorithm 3), offloads partitions over PCIe, runs the FAST kernel on
// each, enumerates the CPU share with the backtracking matcher, and merges
// results into an end-to-end report. With Config.Workers > 1 the FPGA-side
// partition queue fans out across a bounded goroutine pool while the CPU
// δ-share drains concurrently — the software analogue of the paper's
// multi-PE parallelism and CPU–FPGA co-processing (Fig. 13). With
// Config.PartitionWorkers > 1 the partition producer itself (Algorithm 2's
// recursion) also runs on a bounded task pool, in ordered mode, so neither
// side of the overlap serialises the other.
//
// Phases 2 and 3 have one producer for both pipelines (schedule.go). On a
// cached Plan the first complete Match records the producer's output — the
// ordered pieces, each as the root candidates it keeps, with its δ route —
// and warm calls under the same δ and thresholds replay that schedule,
// rebuilding each piece from the root CST in one projection instead of
// partitioning again.
//
// Execution is context-first: Match and Prepare take a context.Context, and
// every layer that loops observes it — the partition producer between
// restrict steps, the kernel between batch rounds, the δ-share drain per
// embedding — so a deadline interrupts a pathological query mid-flight
// instead of after it finishes. A cancelled run returns its partial Report
// (Partial set) together with the context's error. Config.Limit bounds the
// result count and Config.Emit streams embeddings as they are found.
//
// Execution is also fault-tolerant, with a degraded-run contract: a run
// whose faults are all absorbed returns the same counts as the fault-free
// run, just slower. Transient device faults (fpgasim.ErrTransient) are
// retried with bounded exponential backoff under Config.Retry; a dead
// device's queued partitions are redistributed to surviving devices or the
// CPU δ-share path; and every kernel/enumeration worker runs under a
// recover barrier that converts a panic into a *KernelPanicError (stack
// captured, pooled scratch discarded, sibling workers and the ordered
// drain unaffected). Only exhausted retries (*DeviceFaultError) and panics
// surface as errors, always on a Partial report; Report.Retries,
// DeviceFailures and Redistributed record absorbed faults. Config.Inject
// accepts a deterministic faultinject.Injector so any failing schedule
// replays byte-identically.
package host

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fastmatch/graph"
	"fastmatch/internal/core"
	"fastmatch/internal/cst"
	"fastmatch/internal/faultinject"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/order"
)

// OrderStrategy names a matching-order policy.
type OrderStrategy string

// Matching-order strategies (Fig. 15 compares them).
const (
	OrderPath OrderStrategy = "path" // the paper's default
	OrderCFL  OrderStrategy = "cfl"
	OrderDAF  OrderStrategy = "daf"
	OrderCECI OrderStrategy = "ceci"
)

// Config drives one end-to-end match.
type Config struct {
	// Device is the FPGA card model; NumFPGAs > 1 enables the multi-FPGA
	// extension (Section VII-E). Default: one card, fpgasim.DefaultConfig.
	Device   fpgasim.Config
	NumFPGAs int
	// Variant selects the kernel implementation (default FAST-SEP, the
	// paper's final configuration before CPU sharing).
	Variant core.Variant
	// Delta is δ, the ceiling on the CPU's share of total estimated
	// workload (Algorithm 3); 0 sends everything to the FPGA. The paper
	// finds 0.1 the sweet spot (Fig. 13).
	Delta float64
	// Strategy picks the matching order; ExplicitOrder overrides it when
	// non-nil (used by the Fig. 15 order sweep).
	Strategy      OrderStrategy
	ExplicitOrder order.Order
	// Partition overrides the partition thresholds; zero values derive
	// δS from the device's BRAM budget minus the results buffer, and δD
	// from PortMax. Only the thresholds (MaxSizeBytes, MaxCandDegree,
	// FixedK) are read: Match installs its own Steal and Cancel hooks.
	Partition cst.PartitionConfig
	// Collect materialises embeddings in the report.
	Collect bool
	// Workers > 1 fans the FPGA-bound partition queue out across that many
	// goroutines while the CPU δ-share is enumerated concurrently; 0 or 1
	// keeps the original streaming-sequential pipeline. Embedding counts,
	// partition counts, the δ split and the aggregated kernel statistics
	// are identical either way. The modelled single-card FPGATime and
	// TransferTime are also workers-invariant; PartitionTime and
	// CPUShareTime are measured wall times and vary only with machine
	// noise. With NumFPGAs > 1 the partition→card assignment depends on
	// completion timing, so per-card modelled times may differ run to run.
	Workers int
	// PartitionWorkers > 1 parallelises the partition producer itself:
	// Algorithm 2's restrict-and-recurse steps run on a bounded task pool
	// of that many goroutines (cst.PartitionConcurrent in ordered mode)
	// instead of a single recursion, so on multi-core hosts partition
	// production no longer serialises in front of the Workers fan-out.
	// Pieces, Steal offers and the δ-routing decisions are still delivered
	// on the producer goroutine in the exact sequential order, so embedding
	// counts, partition counts and the δ split are byte-identical to
	// PartitionWorkers <= 1. PartitionTime then measures the drain's
	// critical path (waits on in-flight restrict tasks included), which is
	// the quantity that shrinks as the producer scales.
	PartitionWorkers int
	// Pool, when non-nil, is a shared token bucket: each worker holds one
	// token per FPGA-bound partition it processes, bounding the total
	// concurrent kernel work across simultaneous Match calls that share
	// the channel (fast.Engine hands every Match the same Pool).
	Pool chan struct{}
	// Plan supplies a precomputed matching plan (root, BFS tree, order,
	// CST). Callers that repeat a query against the same graph — the
	// serving scenario — cache the Plan from Prepare and skip Phase 1
	// entirely. The Plan must have been prepared for the same (q, g, cfg
	// order settings); Match does not re-verify that.
	Plan *Plan
	// Limit, when > 0, stops the run after that many embeddings. The count
	// is exact and deterministic — min(Limit, total) — regardless of
	// Workers or PartitionWorkers: every counted embedding holds a slot
	// reserved from one shared budget. A limit stop is not an error; the
	// Report just comes back Partial.
	Limit int64
	// Emit, when non-nil, receives every embedding as it is found. Calls
	// are serialized (the callback never runs concurrently with itself),
	// but with Workers > 1 the arrival order is unspecified. Returning a
	// non-nil error cancels the run; Match returns that error with the
	// partial Report.
	Emit func(graph.Embedding) error
	// Faults, when non-nil, injects scheduled faults into the run: it is
	// handed to every device (staging faults, latency spikes, card death)
	// and evaluated at the kernel-launch and CPU δ-share sites. nil injects
	// nothing and adds no work to the fault-free pipeline.
	Faults *faultinject.Injector
	// Retry bounds the backoff-retry applied to transient device faults.
	// The zero value means the package defaults (DefaultRetryMax etc.);
	// Max < 0 disables retries.
	Retry RetryPolicy
}

func (c Config) withDefaults(q *graph.Query) Config {
	if c.Device.ClockMHz == 0 {
		c.Device = fpgasim.DefaultConfig()
	}
	if c.NumFPGAs < 1 {
		c.NumFPGAs = 1
	}
	if c.Strategy == "" {
		c.Strategy = OrderPath
	}
	if c.Partition.MaxSizeBytes == 0 {
		buffer := int64(q.NumVertices()-1) * int64(c.Device.No) * int64(q.NumVertices()*4+4)
		c.Partition.MaxSizeBytes = c.Device.BRAMBytes - buffer
		if c.Partition.MaxSizeBytes < 1024 {
			c.Partition.MaxSizeBytes = 1024
		}
	}
	if c.Partition.MaxCandDegree == 0 {
		c.Partition.MaxCandDegree = c.Device.PortMax
	}
	return c
}

// kernelScratch pools core.Scratch values across kernel runs — and across
// Match calls, since the pool is package-level — so steady-state serving
// performs no per-run arena allocation: each kernel execution borrows the
// partial-mapping arena for its duration and returns it when done.
var kernelScratch = sync.Pool{New: func() any { return new(core.Scratch) }}

// runKernel executes one kernel over p with a pooled scratch, under the
// run's recover barrier: a panic inside the kernel (injected or real) is
// converted into a *KernelPanicError with the stack captured, and the
// scratch the panicking run may have corrupted is dropped instead of being
// returned to the pool — sibling workers keep their own scratches and are
// unaffected. The fault site is evaluated before core.Run, so a faulted
// launch has produced no embeddings and is safe to retry.
//
//fastmatch:recoverbarrier
func runKernel(p *cst.CST, o order.Order, opts core.Options, faults *faultinject.Injector) (res core.Result, err error) {
	s := kernelScratch.Get().(*core.Scratch)
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(faultinject.SiteKernel, r)
			return
		}
		kernelScratch.Put(s)
	}()
	if out := faults.Eval(faultinject.SiteKernel); out.Fault {
		if out.Kind == faultinject.Panic {
			panic(out.Error())
		}
		// Transient and Death degrade alike to a retryable launch fault —
		// the kernel site has no per-card state to kill.
		return core.Result{}, fmt.Errorf("host: kernel launch: %w", out.Error())
	} else if out.Delay > 0 {
		// A latency spike at the launch site is real host-side time.
		time.Sleep(out.Delay)
	}
	opts.Scratch = s
	return core.Run(p, o, opts)
}

// Plan is the output of Phase 1: everything Match derives from (q, g)
// before partitioning starts. A Plan is safe to share between concurrent
// Match calls — the CST is read-only during matching, which is what makes
// the plan cache sound. Its exported fields never change after Prepare; the
// one thing a Plan learns later is its piece schedule: the first complete
// Match passed the Plan records Algorithm 2+3's output on it (published
// atomically, first run wins), and later calls with the same δ and
// thresholds replay it instead of partitioning again. A new Plan — from
// Prepare, PrepareSeeded on a new epoch, or a plan-cache refill — starts
// with no schedule, so nothing ever needs invalidating.
type Plan struct {
	Root  graph.QueryVertex
	Tree  *order.Tree
	Order order.Order
	CST   *cst.CST

	schedule atomic.Pointer[pieceSchedule]
}

// Prepare runs Phase 1 (root selection, BFS tree, CST construction —
// Algorithm 1 — and matching-order selection) and returns the reusable
// plan. cfg contributes only the order settings (Strategy/ExplicitOrder).
// An already-cancelled ctx returns its error before any work; Phase 1 is
// otherwise not interruptible (it is one CST construction, not a loop).
func Prepare(ctx context.Context, q *graph.Query, g *graph.Graph, cfg Config) (*Plan, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	cfg = cfg.withDefaults(q)
	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	c := cst.BuildWorkers(q, g, tree, cfg.PartitionWorkers)
	o := cfg.ExplicitOrder
	if o == nil {
		switch cfg.Strategy {
		case OrderCFL:
			o = order.CFLLike(tree, c)
		case OrderDAF:
			o = order.DAFLike(tree, c)
		case OrderCECI:
			o = order.CECILike(tree, c)
		default:
			o = order.PathBased(tree, c)
		}
	}
	if err := o.Validate(tree); err != nil {
		return nil, fmt.Errorf("host: %v", err)
	}
	return &Plan{Root: root, Tree: tree, Order: o, CST: c}, nil
}

// PrepareSeeded is Prepare with the planning decisions (root, BFS tree,
// matching order) carried over from a seed plan prepared for the same query
// against an earlier epoch of the same graph: only the CST — the part that
// depends on the data — is rebuilt. Any valid matching order yields the
// identical embedding set (the CST is a complete search space for every
// order over its tree), so seeding trades possibly mildly stale order
// heuristics for skipping root/tree/order selection; the serving layer uses
// it to keep plan caches warm across ApplyDelta batches whose label set is
// unchanged. A nil seed falls back to a full Prepare.
func PrepareSeeded(ctx context.Context, q *graph.Query, g *graph.Graph, cfg Config, seed *Plan) (*Plan, error) {
	if seed == nil {
		return Prepare(ctx, q, g, cfg)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	cfg = cfg.withDefaults(q)
	c := cst.BuildWorkers(q, g, seed.Tree, cfg.PartitionWorkers)
	return &Plan{Root: seed.Root, Tree: seed.Tree, Order: seed.Order, CST: c}, nil
}

// Report is the end-to-end outcome of a match.
type Report struct {
	Query      string
	Embeddings int64
	Collected  []graph.Embedding

	// Phase timings. BuildTime and PartitionTime are measured host wall
	// time; TransferTime is the modelled PCIe cost; FPGATime is the
	// slowest card's kernel busy time; CPUShareTime is measured wall time
	// of the host's share. Total composes them the way the pipeline runs:
	// build, then partition, then max(card completion, CPU share) since
	// the CPU processes its cached share while cards drain theirs. With
	// Workers > 1 partitioning additionally overlaps kernel execution
	// (PartitionTime still counts only the partitioner's own work, not
	// waits on busy workers), so real host wall-clock runs ahead of the
	// modelled Total.
	BuildTime     time.Duration
	PartitionTime time.Duration
	TransferTime  time.Duration
	FPGATime      time.Duration
	CPUShareTime  time.Duration
	Total         time.Duration

	// Workload split (Algorithm 3's W_C and W_F).
	CPUWorkload, FPGAWorkload float64
	CPUPartitions             int
	NumPartitions             int

	// Aggregated kernel statistics across all partitions.
	KernelCycles    int64
	KernelPartials  int64 // N
	KernelEdgeTasks int64 // M
	KernelRounds    int64
	CSTBytes        int64 // total across partitions
	DataBytes       int64 // data graph size, for Fig. 9's S_CST/S_G
	MaxBufferUse    int
	Devices         int

	// Partial reports that the run stopped before exhausting the search
	// space — the context fired, the Emit callback failed, Limit was
	// reached, or a fault-class error ended the run — so Embeddings and the
	// statistics cover only the work done.
	Partial bool
	// KernelAborts counts kernel executions cancelled between batch rounds.
	KernelAborts int

	// Fault-handling tallies. A run that absorbed faults — transient
	// staging or launch errors retried away, a dead card's partitions
	// redistributed — still completes with its full, byte-identical counts
	// and no error; these counters are how such a run shows it degraded.
	// Retries counts backoff-retry attempts, DeviceFailures counts cards
	// observed dying, and Redistributed counts partitions that fell back to
	// the CPU enumeration path because no healthy card remained.
	Retries        int64
	DeviceFailures int
	Redistributed  int
}

// SpeedupOver returns how many times faster this run was than a reference
// duration.
func (r Report) SpeedupOver(ref time.Duration) float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(ref) / float64(r.Total)
}

// Match runs the full CPU–FPGA pipeline for q over g. A nil ctx is treated
// as context.Background(). When ctx is cancelled (or its deadline expires)
// mid-run the pipeline stops at its next check point — between partitions,
// between kernel batch rounds, between δ-share embeddings — and Match
// returns the partial Report (Partial set, counts covering the work done)
// together with the context's error. A run that completed all its work
// before observing the cancellation returns its full Report and no error.
func Match(ctx context.Context, q *graph.Query, g *graph.Graph, cfg Config) (Report, error) {
	cfg = cfg.withDefaults(q)
	if err := cfg.Device.Validate(); err != nil {
		return Report{}, err
	}
	if cfg.Delta < 0 || cfg.Delta >= 1 {
		return Report{}, fmt.Errorf("host: delta %v outside [0,1)", cfg.Delta)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	rep := Report{Query: q.Name(), DataBytes: g.SizeBytes(), Devices: cfg.NumFPGAs}

	// An already-expired context returns promptly, before Phase 1.
	if err := ctx.Err(); err != nil {
		rep.Partial = true
		return rep, err
	}
	ct := newRunControl(ctx, cfg)

	// Phase 1: CST construction (Algorithm 1) on the host — or a plan
	// cache hit, which reduces this phase to nothing.
	buildStart := time.Now()
	plan := cfg.Plan
	cached := plan != nil
	if plan == nil {
		var err error
		plan, err = Prepare(ctx, q, g, cfg)
		if err != nil {
			if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
				rep.Partial = true
				return rep, err
			}
			return Report{}, err
		}
	}
	rep.BuildTime = time.Since(buildStart)
	if plan.CST.IsEmpty() {
		rep.Total = rep.BuildTime
		return rep, nil
	}
	if ct.active() && ct.cancelled() {
		rep.Partial = true
		rep.Total = rep.BuildTime
		return rep, ct.err()
	}

	// Devices.
	devices := make([]*fpgasim.Device, cfg.NumFPGAs)
	transfer := make([]time.Duration, cfg.NumFPGAs)
	for i := range devices {
		d, err := fpgasim.NewDevice(i, cfg.Device)
		if err != nil {
			return Report{}, err
		}
		d.Faults = cfg.Faults
		devices[i] = d
	}

	// Phases 2–5: partition, schedule, execute. A fault-class error — a
	// recovered panic or an exhausted retry budget — keeps the partial
	// Report (the completion accounting below still applies to the work
	// done); any other error keeps the original discard semantics.
	pr := newProducer(cfg, plan, cached)
	var err error
	if cfg.Workers > 1 {
		err = matchParallel(cfg, ct, &rep, pr, devices, transfer)
	} else {
		err = matchSequential(cfg, ct, &rep, pr, devices, transfer)
	}
	ct.fstats.fold(&rep)
	if err != nil && !isFaultError(err) {
		return Report{}, err
	}

	// Completion: cards run concurrently with each other and with the
	// CPU's share.
	for i, d := range devices {
		if t := transfer[i] + d.Busy(); t > rep.FPGATime {
			rep.FPGATime = t
		}
		rep.TransferTime += transfer[i]
		rep.KernelAborts += d.Aborts()
	}
	concurrent := rep.FPGATime
	if rep.CPUShareTime > concurrent {
		concurrent = rep.CPUShareTime
	}
	rep.Total = rep.BuildTime + rep.PartitionTime + concurrent
	rep.Partial = ct.partial() || err != nil
	if err != nil {
		return rep, err
	}
	if !rep.Partial {
		pr.publish()
	}
	return rep, ct.err()
}

// matchSequential is the original streaming pipeline: partitions are
// processed inline as the producer emits them, and the CPU share runs after
// partitioning finishes.
func matchSequential(cfg Config, ct *runControl, rep *Report, pr *producer, devices []*fpgasim.Device, transfer []time.Duration) error {
	var (
		cpuQueue []*cst.CST
		kernErr  error
	)
	o := pr.plan.Order
	// Cancellation hooks are installed only for calls that can actually
	// cancel, limit or stream — a plain Match keeps the pre-context paths.
	kopts := core.Options{Variant: cfg.Variant, Config: cfg.Device, Collect: cfg.Collect}
	if ct.active() {
		kopts.Cancel = ct.cancelled
		kopts.Take = ct.take
	}
	if ct.emit != nil {
		kopts.Emit = func(e graph.Embedding) { ct.send(e) }
	}
	stop := func() bool { return kernErr != nil || ct.cancelled() }
	// Phases 2+3: each piece is either cached for the CPU or offloaded
	// immediately to the least-loaded card.
	perr := pr.run(rep, stop, func(p *cst.CST, toCPU bool) {
		if toCPU {
			cpuQueue = append(cpuQueue, p)
			return
		}
		// Offload to the healthy card with the least accumulated work. A
		// card dying under us redistributes the partition to the next card;
		// losing the last card degrades it to the CPU enumeration path —
		// identical counts, just slower.
		for {
			if ct.cancelled() {
				return
			}
			best := pickDevice(devices, transfer)
			if best < 0 {
				cpuQueue = append(cpuQueue, p)
				ct.fstats.redistributed.Add(1)
				return
			}
			dev := devices[best]
			dur, err := stageWithRetry(ct, dev, p.SizeBytes())
			if errors.Is(err, fpgasim.ErrDeviceFailed) {
				// The death moment — the card was healthy when picked.
				ct.fstats.deviceDeaths.Add(1)
				continue
			}
			if err == errRetryCancelled {
				return
			}
			if err != nil {
				kernErr = err
				return
			}
			transfer[best] += dur
			// A shared Pool bounds kernel work across Match calls; the
			// sequential pipeline holds one token per kernel run so a
			// Workers<=1 engine behind a multi-tenant front end draws from
			// the same budget as the fanned-out ones instead of adding load
			// beside it. Without a Pool this is the original path, untouched.
			if cfg.Pool != nil && !ct.acquirePool(cfg.Pool) {
				return // cancelled while queued behind other tenants
			}
			res, err := runKernelWithRetry(ct, p, o, kopts)
			if cfg.Pool != nil {
				<-cfg.Pool
			}
			if err == errRetryCancelled {
				return
			}
			if err != nil {
				kernErr = err
				return
			}
			if res.Stopped && ct.abortive() {
				dev.AbortKernel(res.Cycles)
			} else {
				dev.RunKernel(res.Cycles)
			}
			dev.ReleaseDRAM(p.SizeBytes())
			rep.Embeddings += res.Count
			rep.KernelCycles += res.Cycles
			rep.KernelPartials += res.Partials
			rep.KernelEdgeTasks += res.EdgeTasks
			rep.KernelRounds += res.Rounds
			if res.BufferHighWater > rep.MaxBufferUse {
				rep.MaxBufferUse = res.BufferHighWater
			}
			if cfg.Collect {
				rep.Collected = append(rep.Collected, res.Embeddings...)
			}
			return
		}
	})
	if kernErr != nil {
		return kernErr
	}
	if perr != nil {
		return perr
	}

	// Phase 5: the CPU processes its cached share with the backtracking
	// matcher once partitioning finishes (Section V-C). Cancellation is
	// observed between δ-share partitions and, through the control's
	// budget, per embedding within one.
	cpuStart := time.Now()
	var enumErr error
	for _, p := range cpuQueue {
		if ct.cancelled() {
			break
		}
		n, err := enumerateShare(ct, p, o, cfg.Collect, &rep.Collected)
		rep.Embeddings += n
		if err != nil {
			enumErr = err
			break
		}
	}
	rep.CPUShareTime = time.Since(cpuStart)
	return enumErr
}

// fpgaWorkerStats is one worker's private accumulator; merging them after
// the pool drains keeps totals deterministic without shared counters.
type fpgaWorkerStats struct {
	embeddings int64
	cycles     int64
	partials   int64
	edgeTasks  int64
	rounds     int64
	maxBuffer  int
	collected  []graph.Embedding
}

// errStageCancelled reports that a worker gave up waiting for card DRAM
// because the run was cancelled; it is a skip signal, not a failure.
var errStageCancelled = errors.New("host: staging abandoned: run cancelled")

// matchParallel runs phases 2–5 with the FPGA-bound partition queue fanned
// out across cfg.Workers goroutines while the CPU δ-share drains on its own
// goroutine, all overlapping the partitioner — the paper's CPU–FPGA
// co-processing. Scheduling decisions (Algorithm 3) stay on the producer
// goroutine and see partitions in the exact order the sequential pipeline
// does, so the δ split, partition counts and embedding totals are identical
// to matchSequential's.
func matchParallel(cfg Config, ct *runControl, rep *Report, pr *producer, devices []*fpgasim.Device, transfer []time.Duration) error {
	o := pr.plan.Order
	var (
		devMu   sync.Mutex
		stop    atomic.Bool
		errOnce sync.Once
		kernErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { kernErr = err })
		stop.Store(true)
	}
	// halted folds the two stop sources every stage checks: a hardware
	// error on any worker, and the call's cancellation (context, limit,
	// emit failure).
	halted := func() bool { return stop.Load() || ct.cancelled() }

	// Modest buffers: enough to decouple the producer from worker jitter,
	// capped so the resident partition CSTs a Match can hold (buffers plus
	// one dequeued per worker) stay small — backpressure on the producer
	// is free, its waits are excluded from PartitionTime.
	buf := min(cfg.Workers*2, 8)
	fpgaCh := make(chan *cst.CST, buf)
	cpuCh := make(chan *cst.CST, buf)

	// FPGA pool: each worker claims a card under devMu, runs the kernel
	// model outside it, and accumulates into private stats. After an
	// error workers keep draining the channel (without processing) so the
	// producer can never block forever.
	//
	// Staging: unlike the sequential path — which releases each
	// partition's DRAM before staging the next — up to Workers partitions
	// are resident concurrently. A partition that finds no card with room
	// waits on devCond for an in-flight one to release (guaranteed
	// progress: inflight > 0 means a release is coming) and only fails
	// when it would not fit an idle card, exactly when the sequential
	// pipeline fails too.
	devCond := sync.NewCond(&devMu)
	inflight := 0
	stage := func(p *cst.CST) (*fpgasim.Device, error) {
		devMu.Lock()
		defer devMu.Unlock()
		for {
			// Re-checked on every wake-up: a cancelled run stops staging
			// new partitions (in-flight kernels abort between rounds and
			// release their DRAM, so waiters always wake).
			if halted() {
				return nil, errStageCancelled
			}
			// Dead cards never come back mid-run: once none are healthy
			// the caller degrades the partition to the CPU enumeration
			// path instead of waiting on releases that cannot help.
			healthy := 0
			for i := range devices {
				if devices[i].Healthy() {
					healthy++
				}
			}
			if healthy == 0 {
				return nil, errAllDevicesDead
			}
			// Try healthy cards in ascending accumulated-load order via a
			// selection scan — alloc-free under the contended lock, and
			// NumFPGAs is tiny (the bitmask caps it at 64 cards, far
			// beyond any modelled deployment).
			var tried uint64
			var lastErr error
			for t := 0; t < len(devices) && t < 64; t++ {
				best := -1
				for i := range devices {
					if i >= 64 || tried&(1<<uint(i)) != 0 || !devices[i].Healthy() {
						continue
					}
					if best < 0 || devices[i].Busy()+transfer[i] < devices[best].Busy()+transfer[best] {
						best = i
					}
				}
				if best < 0 {
					break // every healthy card tried
				}
				tried |= 1 << uint(best)
				dur, err := devices[best].StageDRAM(p.SizeBytes())
				if err == nil {
					transfer[best] += dur
					inflight++
					return devices[best], nil
				}
				if errors.Is(err, fpgasim.ErrDeviceFailed) {
					// The death moment — the card was healthy when picked;
					// scan on across the survivors.
					ct.fstats.deviceDeaths.Add(1)
					continue
				}
				// Transient faults and DRAM overflows both land here: with
				// nothing in flight the error goes to the worker (which
				// backs off and retries a transient outside this lock);
				// otherwise wait for a release and rescan.
				lastErr = err
			}
			if inflight == 0 {
				if lastErr == nil {
					// Every card scanned died under us.
					return nil, errAllDevicesDead
				}
				return nil, lastErr
			}
			devCond.Wait()
		}
	}
	release := func(dev *fpgasim.Device, p *cst.CST, cycles int64, aborted bool) {
		devMu.Lock()
		if cycles > 0 {
			if aborted {
				dev.AbortKernel(cycles)
			} else {
				dev.RunKernel(cycles)
			}
		}
		dev.ReleaseDRAM(p.SizeBytes())
		inflight--
		devCond.Broadcast()
		devMu.Unlock()
	}
	// Per-call hooks: the kernels poll the shared halt state between batch
	// rounds (so a deadline interrupts a pathological partition mid-flight),
	// and reserve result slots when a limit or stream is in play.
	kopts := core.Options{Variant: cfg.Variant, Config: cfg.Device, Collect: cfg.Collect, Cancel: halted}
	if ct.active() {
		kopts.Take = ct.take
	}
	if ct.emit != nil {
		kopts.Emit = func(e graph.Embedding) { ct.send(e) }
	}
	stats := make([]fpgaWorkerStats, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(st *fpgaWorkerStats) {
			defer wg.Done()
			for p := range fpgaCh {
				if halted() {
					continue
				}
				// Same cancellable acquire as the sequential path: a
				// deadlined call must not queue behind other tenants on a
				// saturated shared budget.
				if cfg.Pool != nil && !ct.acquirePool(cfg.Pool) {
					continue
				}
				dev, err := stageParallel(ct, stage, p)
				if err != nil {
					if err == errAllDevicesDead {
						// Degrade: every card is dead, so this worker
						// enumerates the partition on the CPU itself (the
						// δ-share consumer's channel may already be closed)
						// and the call still completes with identical
						// counts. The pool token is held — it is real work.
						ct.fstats.redistributed.Add(1)
						n, eerr := enumerateShare(ct, p, o, cfg.Collect, &st.collected)
						st.embeddings += n
						if eerr != nil {
							fail(eerr)
						}
					} else if err != errStageCancelled {
						fail(err)
					}
					if cfg.Pool != nil {
						<-cfg.Pool
					}
					continue
				}
				res, err := runKernelWithRetry(ct, p, o, kopts)
				var cycles int64
				if err == nil {
					cycles = res.Cycles
				}
				release(dev, p, cycles, err == nil && res.Stopped && ct.abortive())
				if cfg.Pool != nil {
					<-cfg.Pool
				}
				if err != nil {
					if err != errRetryCancelled {
						fail(err)
					}
					continue
				}
				st.embeddings += res.Count
				st.cycles += res.Cycles
				st.partials += res.Partials
				st.edgeTasks += res.EdgeTasks
				st.rounds += res.Rounds
				if res.BufferHighWater > st.maxBuffer {
					st.maxBuffer = res.BufferHighWater
				}
				if cfg.Collect {
					st.collected = append(st.collected, res.Embeddings...)
				}
			}
		}(&stats[w])
	}

	// CPU δ-share consumer: enumerates its cached partitions while the
	// FPGA pool and the partitioner are still running. CPUShareTime is the
	// consumer's active enumeration time, matching the sequential report's
	// "wall time of the host's share" semantics.
	var (
		cpuWG        sync.WaitGroup
		cpuCount     int64
		cpuCollected []graph.Embedding
		cpuActive    time.Duration
	)
	cpuWG.Add(1)
	go func() {
		defer cpuWG.Done()
		for p := range cpuCh {
			if halted() {
				continue
			}
			start := time.Now()
			n, err := enumerateShare(ct, p, o, cfg.Collect, &cpuCollected)
			cpuCount += n
			cpuActive += time.Since(start)
			if err != nil {
				fail(err)
			}
		}
	}()

	// Producer: Algorithms 2 and 3 (or their recorded schedule) on the
	// caller's goroutine. PartitionTime excludes the channel sends, so
	// backpressure waits (which overlap kernel execution and are already
	// counted in FPGATime / CPUShareTime) are not double-counted into Total,
	// keeping the report comparable with the sequential pipeline's. Once the
	// run halts the producer stops; the concurrent partitioner also abandons
	// its speculation and drains its task pool.
	perr := pr.run(rep, halted, func(p *cst.CST, toCPU bool) {
		if toCPU {
			cpuCh <- p
		} else {
			fpgaCh <- p
		}
	})
	if perr != nil {
		fail(perr)
	}
	close(fpgaCh)
	close(cpuCh)
	wg.Wait()
	cpuWG.Wait()
	if kernErr != nil {
		return kernErr
	}

	for i := range stats {
		st := &stats[i]
		rep.Embeddings += st.embeddings
		rep.KernelCycles += st.cycles
		rep.KernelPartials += st.partials
		rep.KernelEdgeTasks += st.edgeTasks
		rep.KernelRounds += st.rounds
		if st.maxBuffer > rep.MaxBufferUse {
			rep.MaxBufferUse = st.maxBuffer
		}
		if cfg.Collect {
			rep.Collected = append(rep.Collected, st.collected...)
		}
	}
	rep.Embeddings += cpuCount
	rep.CPUShareTime = cpuActive
	if cfg.Collect {
		rep.Collected = append(rep.Collected, cpuCollected...)
	}
	return nil
}
