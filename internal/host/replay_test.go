package host

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/cst"
	"fastmatch/internal/faultinject"
	"fastmatch/ldbc"
)

// replayFields is the part of a Report a replayed schedule must reproduce
// exactly: counts, the piece split, the δ split and the kernel statistics.
func replayFields(r Report) string {
	return fmt.Sprintf("embeddings=%d parts=%d cpu=%d bytes=%d wc=%v wf=%v cycles=%d",
		r.Embeddings, r.NumPartitions, r.CPUPartitions, r.CSTBytes, r.CPUWorkload, r.FPGAWorkload, r.KernelCycles)
}

// preparedPlan returns a fresh cached plan for q under cfg.
func preparedPlan(t *testing.T, q *graph.Query, g *graph.Graph, cfg Config) *Plan {
	t.Helper()
	plan, err := Prepare(context.Background(), q, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestReplayMatchesCold: the first Match on a plan records its piece
// schedule and a warm Match replays it, returning the cold run's Report
// field for field, for every δ × Workers × PartitionWorkers combination.
func TestReplayMatchesCold(t *testing.T) {
	g, base := parallelTestSetup()
	for _, name := range []string{"q1", "q3", "q5"} {
		q, err := ldbc.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []float64{0, 0.1, 0.5} {
			for _, workers := range []int{1, 2} {
				for _, pworkers := range []int{1, 2} {
					cfg := base
					cfg.Delta, cfg.Workers, cfg.PartitionWorkers = delta, workers, pworkers
					label := fmt.Sprintf("%s δ=%v workers=%d pworkers=%d", name, delta, workers, pworkers)
					uncached, err := Match(context.Background(), q, g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Plan = preparedPlan(t, q, g, cfg)
					cold, err := Match(context.Background(), q, g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					s := cfg.Plan.schedule.Load()
					if s == nil || len(s.pieces) != cold.NumPartitions {
						t.Fatalf("%s: complete first call recorded %v, want %d pieces", label, s, cold.NumPartitions)
					}
					if cold.NumPartitions < 2 {
						t.Fatalf("%s: only %d pieces; the card must force partitioning", label, cold.NumPartitions)
					}
					warm, err := Match(context.Background(), q, g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := replayFields(uncached)
					if got := replayFields(cold); got != want {
						t.Errorf("%s: cold recording run\n  got  %s\n  want %s", label, got, want)
					}
					if got := replayFields(warm); got != want {
						t.Errorf("%s: warm replay\n  got  %s\n  want %s", label, got, want)
					}
					if cfg.Plan.schedule.Load() != s {
						t.Errorf("%s: the warm call replaced the recorded schedule", label)
					}
				}
			}
		}
	}
}

// TestReplayRecordsOnlyCompleteRuns: a first call that stops early — a
// cancelled context, a limit stop, a fault-class error — records nothing,
// and the next complete call records as usual.
func TestReplayRecordsOnlyCompleteRuns(t *testing.T) {
	g, base := parallelTestSetup()
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(cfg Config) error
	}{
		{"cancelled", func(cfg Config) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg.Emit = func(graph.Embedding) error {
				cancel()
				return nil
			}
			_, err := Match(ctx, q, g, cfg)
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"limit", func(cfg Config) error {
			cfg.Limit = 1
			rep, err := Match(context.Background(), q, g, cfg)
			if err != nil || !rep.Partial {
				return fmt.Errorf("limit run: partial=%v err=%v, want a partial run", rep.Partial, err)
			}
			return nil
		}},
		{"chaos", func(cfg Config) error {
			cfg.Faults = faultinject.New(3, faultinject.Rule{
				Site: faultinject.SiteKernel, Kind: faultinject.Panic, Nth: []int64{2}, Once: true,
			})
			var kp *KernelPanicError
			if _, err := Match(context.Background(), q, g, cfg); !errors.As(err, &kp) {
				return fmt.Errorf("err = %v, want *KernelPanicError", err)
			}
			return nil
		}},
	} {
		for _, workers := range []int{1, 2} {
			cfg := base
			cfg.Workers = workers
			cfg.Plan = preparedPlan(t, q, g, cfg)
			if err := tc.run(cfg); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if s := cfg.Plan.schedule.Load(); s != nil {
				t.Errorf("%s workers=%d: an early-stopped first call recorded %d pieces", tc.name, workers, len(s.pieces))
			}
			if _, err := Match(context.Background(), q, g, cfg); err != nil {
				t.Fatal(err)
			}
			if cfg.Plan.schedule.Load() == nil {
				t.Errorf("%s workers=%d: the complete call after it recorded nothing", tc.name, workers)
			}
		}
	}
}

// TestReplayKeyedByDelta: a per-call δ override on a plan that recorded
// another δ's schedule runs cold — same report as an uncached run at its
// own δ — and leaves the recorded schedule in place.
func TestReplayKeyedByDelta(t *testing.T) {
	g, base := parallelTestSetup()
	q, err := ldbc.QueryByName("q5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Delta = 0.1
	cfg.Plan = preparedPlan(t, q, g, cfg)
	if _, err := Match(context.Background(), q, g, cfg); err != nil {
		t.Fatal(err)
	}
	recorded := cfg.Plan.schedule.Load()
	if recorded == nil {
		t.Fatal("nothing recorded")
	}
	other := cfg
	other.Delta = 0.5
	other.Plan = nil
	want, err := Match(context.Background(), q, g, other)
	if err != nil {
		t.Fatal(err)
	}
	other.Plan = cfg.Plan
	for i := 0; i < 2; i++ {
		got, err := Match(context.Background(), q, g, other)
		if err != nil {
			t.Fatal(err)
		}
		if replayFields(got) != replayFields(want) {
			t.Errorf("δ=0.5 on a δ=0.1 plan:\n  got  %s\n  want %s", replayFields(got), replayFields(want))
		}
	}
	if got := cfg.Plan.schedule.Load(); got != recorded || got.key.delta != 0.1 {
		t.Error("a call under another δ replaced the recorded schedule")
	}
}

// TestReplayConcurrentFirstCalls: first calls racing on one plan each run
// cold and record; exactly one schedule is published and every call, racing
// or warm, reports the same result. Run under -race.
func TestReplayConcurrentFirstCalls(t *testing.T) {
	g, base := parallelTestSetup()
	q, err := ldbc.QueryByName("q3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Workers, cfg.PartitionWorkers = 2, 2
	cfg.Plan = preparedPlan(t, q, g, cfg)
	const callers = 4
	reps := make([]Report, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = Match(context.Background(), q, g, cfg)
		}(i)
	}
	wg.Wait()
	warm, err := Match(context.Background(), q, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if replayFields(reps[i]) != replayFields(warm) {
			t.Errorf("caller %d: %s, warm %s", i, replayFields(reps[i]), replayFields(warm))
		}
	}
	if cfg.Plan.schedule.Load() == nil {
		t.Error("no schedule published")
	}
}

// TestReplaySeededPlanStartsEmpty: a plan seeded from a recorded one (the
// next epoch's plan) carries no schedule — its CST is new.
func TestReplaySeededPlanStartsEmpty(t *testing.T) {
	g, base := parallelTestSetup()
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Plan = preparedPlan(t, q, g, cfg)
	if _, err := Match(context.Background(), q, g, cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Plan.schedule.Load() == nil {
		t.Fatal("nothing recorded")
	}
	seeded, err := PrepareSeeded(context.Background(), q, g, cfg, cfg.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.schedule.Load() != nil {
		t.Error("a seeded plan started with its seed's schedule")
	}
}

// TestPartitionReplayAllocs gates the replay producer's allocations: a
// one-piece schedule hands the root through with no allocation at all, and
// a multi-piece replay costs O(1) allocations per piece (one projection's
// arenas), with the projector's buffers pooled across calls.
func TestPartitionReplayAllocs(t *testing.T) {
	g, base := parallelTestSetup()
	q, err := ldbc.QueryByName("q5")
	if err != nil {
		t.Fatal(err)
	}
	never := func() bool { return false }
	sink := func(*cst.CST, bool, float64) {}
	for _, tc := range []struct {
		name     string
		part     cst.PartitionConfig
		perPiece float64
	}{
		{"one piece", cst.PartitionConfig{}, 0},
		{"many pieces", base.Partition, 10},
	} {
		cfg := base
		cfg.Device.BRAMBytes = 32 << 20
		cfg.Partition = tc.part
		cfg.Plan = preparedPlan(t, q, g, cfg)
		rep, err := Match(context.Background(), q, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr := newProducer(cfg.withDefaults(q), cfg.Plan, true)
		if pr.replay == nil {
			t.Fatalf("%s: no schedule to replay", tc.name)
		}
		pieces := len(pr.replay.pieces)
		if (pieces == 1) != (tc.perPiece == 0) {
			t.Fatalf("%s: %d pieces (report: %d)", tc.name, pieces, rep.NumPartitions)
		}
		pr.replayPieces(never, sink) // warm the projector pool
		allocs := testing.AllocsPerRun(20, func() { pr.replayPieces(never, sink) })
		if allocs > tc.perPiece*float64(pieces) {
			t.Errorf("%s: replaying %d pieces allocates %v (%.1f/piece), want <= %v/piece",
				tc.name, pieces, allocs, allocs/float64(pieces), tc.perPiece)
		}
	}
}
