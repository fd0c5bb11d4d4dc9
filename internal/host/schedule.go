package host

import (
	"sync"
	"time"

	"fastmatch/internal/cst"
)

// pieceSchedule is the output of Algorithms 2 and 3 for one plan under one
// set of thresholds: the ordered pieces, each described by the root
// candidates it keeps, with its δ route and estimated workload. The first
// complete Match on a cached plan records it; later calls with the same key
// replay it, rebuilding each piece from the root CST in one cst.Projector
// step and skipping Algorithm 2's restricts, the workload estimates and the
// δ test. A schedule is immutable once published on its Plan.
type pieceSchedule struct {
	key    scheduleKey
	pieces []scheduledPiece
}

// scheduleKey is everything besides the plan that Algorithms 2 and 3 depend
// on: δ and the resolved partition thresholds. Workers, PartitionWorkers,
// card count and variant change how pieces are consumed, never which pieces
// there are or where δ sends them.
type scheduleKey struct {
	delta   float64
	maxSize int64
	maxDeg  int
	fixedK  int
}

func keyOf(cfg Config) scheduleKey {
	return scheduleKey{
		delta:   cfg.Delta,
		maxSize: cfg.Partition.MaxSizeBytes,
		maxDeg:  cfg.Partition.MaxCandDegree,
		fixedK:  cfg.Partition.FixedK,
	}
}

// scheduledPiece is one recorded piece.
type scheduledPiece struct {
	keep  cst.Keep // nil: the root CST itself
	toCPU bool     // δ-share: stolen before splitting further, or sent by the δ test
	w     float64  // cst.EstimateWorkload, folded into W_C or W_F on replay
}

const (
	// recordBudgetDiv caps a schedule at 1/recordBudgetDiv of its root
	// CST's bytes. A query that splits into thousands of pieces (a record
	// that would rival the pieces themselves) records nothing and keeps
	// running Algorithm 2 cold.
	recordBudgetDiv = 8
	// pieceBytes is the fixed size of a scheduledPiece, charged against the
	// budget on top of its bitmaps.
	pieceBytes = 40
)

// projectors pools piece rebuilders across replays — and across Match
// calls — so a warm replay reuses its bookkeeping buffers.
var projectors = sync.Pool{New: func() any { return new(cst.Projector) }}

// producer runs phases 2 and 3 of one Match: partitioning (Algorithm 2) and
// δ routing (Algorithm 3), or the replay of a recorded schedule that stands
// in for both. Either way it is the pipelines' one source of pieces.
type producer struct {
	cfg    Config
	plan   *Plan
	replay *pieceSchedule // recorded schedule matching cfg, or nil

	rec       *pieceSchedule // this cold run's recording, or nil
	recBytes  int64
	recBudget int64
}

// newProducer prepares phases 2–3 over plan. Only a plan the caller caches
// (cached) records or replays; a schedule recorded under another key is
// left alone, so a per-call δ override never reuses another δ's pieces.
func newProducer(cfg Config, plan *Plan, cached bool) *producer {
	pr := &producer{cfg: cfg, plan: plan}
	if !cached {
		return pr
	}
	key := keyOf(cfg)
	if s := plan.schedule.Load(); s != nil {
		if s.key == key {
			pr.replay = s
		}
		return pr
	}
	pr.rec = &pieceSchedule{key: key}
	pr.recBudget = plan.CST.SizeBytes() / recordBudgetDiv
	return pr
}

// run hands every piece to emit, in schedule order, with its route: true
// sends it to the CPU δ-share, false to the cards. It fills rep's partition
// counts, CSTBytes, W_C/W_F and PartitionTime — the producer's own time,
// excluding emit. stop is polled between pieces and inside every restrict or
// projection; once it fires no further piece is delivered.
//
// run is the producer's recover barrier: a panic anywhere in Algorithm 2 or
// in emit — including a partition-pool worker panic rethrown by the ordered
// drain as a *cst.WorkerPanic — comes back as a typed error, so the
// pipelines always close their queues and drain their consumers.
func (pr *producer) run(rep *Report, stop func() bool, emit func(p *cst.CST, toCPU bool)) (err error) {
	sched := scheduler{delta: pr.cfg.Delta}
	lastResume := time.Now()
	defer func() {
		rep.PartitionTime += time.Since(lastResume)
		rep.CPUWorkload, rep.FPGAWorkload = sched.wc, sched.wf
		if r := recover(); r != nil {
			err = newPanicError("partition", r)
		}
	}()
	deliver := func(p *cst.CST, toCPU bool, w float64) {
		if stop() {
			return
		}
		if pr.rec != nil {
			pr.record(p, toCPU, w)
		}
		rep.CSTBytes += p.SizeBytes()
		if toCPU {
			rep.CPUPartitions++
		}
		rep.PartitionTime += time.Since(lastResume)
		emit(p, toCPU)
		lastResume = time.Now()
	}
	if pr.replay != nil {
		rep.NumPartitions = pr.replayPieces(stop, func(p *cst.CST, toCPU bool, w float64) {
			sched.commit(toCPU, w)
			deliver(p, toCPU, w)
		})
		return nil
	}

	// Cold: Algorithm 2, with Algorithm 3's δ test applied to every piece.
	part := pr.cfg.Partition
	part.Cancel = stop
	part.Steal = nil
	if pr.cfg.Delta > 0 {
		// FAST-SHARE's partitioning shortcut (Section VII-B): a CST that
		// still violates the BRAM/port thresholds may go straight to the
		// CPU — which has no such constraints — instead of being split
		// further, saving the recursive partitioning cost. The δ budget
		// gates it; a rejected CST is split and its pieces accounted later.
		part.Steal = func(p *cst.CST) bool {
			w := cst.EstimateWorkload(p)
			if !sched.tryCPU(w) {
				return false
			}
			deliver(p, true, w)
			return true
		}
	}
	process := func(p *cst.CST) {
		w := cst.EstimateWorkload(p)
		deliver(p, sched.assignToCPU(w), w)
	}
	// PartitionWorkers > 1 runs the ordered concurrent producer: every
	// delivery still happens on this goroutine in sequential order, so the
	// δ routing above is deterministic however many workers restrict ahead.
	if pr.cfg.PartitionWorkers > 1 {
		rep.NumPartitions = cst.PartitionConcurrent(pr.plan.CST, pr.plan.Order, part,
			cst.ConcurrentOptions{Workers: pr.cfg.PartitionWorkers, Ordered: true}, process)
	} else {
		rep.NumPartitions = cst.Partition(pr.plan.CST, pr.plan.Order, part, process)
	}
	return nil
}

// replayPieces delivers the recorded schedule: each piece is the root itself
// (a nil keep, handed through without a copy) or is rebuilt from the root in
// one projection. It returns the number of pieces delivered.
func (pr *producer) replayPieces(stop func() bool, deliver func(p *cst.CST, toCPU bool, w float64)) int {
	var pj *cst.Projector
	n := 0
	for _, sp := range pr.replay.pieces {
		if stop() {
			break
		}
		p := pr.plan.CST
		if sp.keep != nil {
			if pj == nil {
				pj = projectors.Get().(*cst.Projector)
				defer projectors.Put(pj)
			}
			if p = pj.Project(pr.plan.CST, sp.keep, stop); p == nil {
				break // cancelled mid-projection
			}
		}
		n++
		deliver(p, sp.toCPU, sp.w)
	}
	return n
}

// record appends one delivered piece to the recording, or abandons the
// recording once it outgrows its budget.
func (pr *producer) record(p *cst.CST, toCPU bool, w float64) {
	keep := cst.KeptFrom(pr.plan.CST, p)
	pr.recBytes += pieceBytes + keep.SizeBytes()
	if pr.recBytes > pr.recBudget {
		pr.rec = nil
		return
	}
	pr.rec.pieces = append(pr.rec.pieces, scheduledPiece{keep: keep, toCPU: toCPU, w: w})
}

// publish stores the recording on the plan. Match calls it only for runs
// that did not stop early — no cancellation, limit stop or fault-class
// error — so a recorded schedule always covers the whole search space. The
// first complete run wins; concurrent first calls record identical schedules.
func (pr *producer) publish() {
	if pr.rec != nil {
		pr.plan.schedule.CompareAndSwap(nil, pr.rec)
	}
}

// scheduler is Algorithm 3's running-total state.
type scheduler struct {
	delta  float64
	wc, wf float64
}

// assignToCPU implements the δ test for a finished partition: the CST goes
// to the CPU only while the CPU's share (including it) stays below δ of the
// total; otherwise its workload is committed to the FPGA side.
func (s *scheduler) assignToCPU(w float64) bool {
	if s.tryCPU(w) {
		return true
	}
	s.wf += w
	return false
}

// tryCPU is the non-committing δ test used for the partitioning shortcut:
// a rejected CST will be split further and its pieces accounted when they
// are scheduled, so nothing is added to W_F here.
func (s *scheduler) tryCPU(w float64) bool {
	if s.delta <= 0 {
		return false
	}
	if s.wc+w < s.delta*(s.wc+s.wf+w) {
		s.wc += w
		return true
	}
	return false
}

// commit folds a recorded decision into the totals, in the order the cold
// run made it, so a replay reports W_C and W_F bit for bit.
func (s *scheduler) commit(toCPU bool, w float64) {
	if toCPU {
		s.wc += w
	} else {
		s.wf += w
	}
}
