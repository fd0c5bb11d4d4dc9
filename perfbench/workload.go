package main

import (
	"fmt"
	"math/rand"
	"strings"

	fast "fastmatch"
	"fastmatch/graph"
	"fastmatch/internal/fpgasim"
	"fastmatch/ldbc"
)

// workload is one traffic mix. Each is built so that a different layer of
// FAST's pipeline does most of the work: a gain in one layer shows in one
// workload, and a cost it adds shows in another.
type workload struct {
	name string
	why  string
	// base is ldbc.Config.BasePersons at scale factor 1.
	base int
	// bram and batch override the card (0 = fast.DefaultDevice()).
	bram  int64
	batch int
	// queries is the read mix, sent in rounds through POST /count (see
	// run.read).
	queries []string
	// readers is the number of closed-loop /count clients.
	readers int
	// writeRate > 0 runs an open-loop /delta writer at that many batches
	// per second beside the readers. writeRate == 0 instead runs
	// tailBatches closed-loop batches after the read phase, so the write
	// path is measured without ever touching the readers' warm plans.
	writeRate   float64
	tailBatches int
	// graphs is how many graphs one untraced run measures in turn, each
	// generated from its own seed (see graphSeed) for an equal share of the
	// run. A query's cost varies by up to 3x from one LDBC seed to the
	// next, and a shared host has slow spells, so a run reports most
	// figures as the trimmed mean over its graphs. Base-2000 graphs cost
	// seconds to set up and check, so that workload measures fewer.
	graphs int
}

// subscriptionQuery is the standing query every workload registers
// in-process through Router.Subscribe, so it holds no client connection.
const subscriptionQuery = "q1"

var workloads = []*workload{
	{
		name: "hot-partitioned",
		why: "Every CST exceeds a 32 KiB card, so cst.partition and the " +
			"delta-share do most of the work: the regime of the BENCH_*.json " +
			"records. q6 is kernel-bound even here, and q7/q8 split into " +
			"thousands of pieces (100 ms-4 s per call), so they are left out.",
		base: 400, bram: 32 << 10, batch: 32,
		queries: []string{"q0", "q1", "q2", "q3", "q4", "q5"},
		readers: 2, tailBatches: 200, graphs: 5,
	},
	{
		name: "hot-inbram",
		why: "Every CST fits the default card in one piece, so core (the " +
			"kernel) does most of the work and cst.partition and the " +
			"delta-share almost none. The geography queries are left out: " +
			"q7's 150-600 ms calls would set the tail by themselves, and " +
			"q4, q6 and q8 cost 0.9 s to over 3 s on some seeds (2000407), " +
			"50-500 times their usual cost.",
		base:    2000,
		queries: []string{"q0", "q1", "q2", "q3", "q5"},
		readers: 2, tailBatches: 100, graphs: 3,
	},
	{
		name: "churn",
		why: "Reads beside writes: every epoch invalidates the plans, so " +
			"reads pay host.PrepareSeeded and cst.build, graph.ApplyDelta " +
			"and cst.EnumerateAffected are hot. The hot workloads never " +
			"touch them while reading.",
		base:    400,
		queries: []string{"q0", "q1", "q2", "q3", "q4", "q5"},
		readers: 1, writeRate: 10, graphs: 5,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

// device returns the card the workload serves on, as the public option and
// as the simulator config the traced stage replay uses.
func (w *workload) device() (fast.DeviceConfig, fpgasim.Config) {
	dev, sim := fast.DefaultDevice(), fpgasim.DefaultConfig()
	if w.bram > 0 {
		dev.BRAMBytes, sim.BRAMBytes = w.bram, w.bram
	}
	if w.batch > 0 {
		dev.BatchSize, sim.No = w.batch, w.batch
	}
	return dev, sim
}

// engineOptions is the engine every workload serves with: FAST-SHARE, one
// pipeline goroutine per call. Two clients on a two-core host already keep
// both cores busy, so per-call fan-out would only oversubscribe them, and a
// sequential pipeline is what the traced stage replay nests inside.
func (w *workload) engineOptions() *fast.Options {
	dev, _ := w.device()
	return &fast.Options{Variant: fast.VariantShare, Device: dev, Workers: 1, PartitionWorkers: 1}
}

// routerWorkers is the router's shared budget: one admission grant per
// client connection the workloads open, so no read is ever queued.
const routerWorkers = 2

func (w *workload) generate(seed int64) *graph.Graph {
	return ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: w.base, Seed: seed})
}

func (w *workload) mix() ([]*graph.Query, error) {
	qs := make([]*graph.Query, len(w.queries))
	for i, name := range w.queries {
		q, err := ldbc.QueryByName(name)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// bench10Counts are the q1-q5 counts BENCH_pr10.json records for the LDBC
// graph at scale factor 1, base 400, seed 42: hot-partitioned's graph at
// that seed, so the benchmark continues the BENCH_* count trajectory.
var bench10Counts = map[string]int64{"q1": 18435, "q2": 1000, "q3": 710, "q4": 2332, "q5": 4464}

const bench10Seed = 42

// graphSeed is the generator seed of a run's i-th graph. The first graph
// uses the run's seed itself, so seed 42 reproduces the BENCH_* graph.
func graphSeed(seed int64, i int) int64 { return seed + int64(i)*1000003 }

// readerSeed derives the query order of reader c in the run's phase-th
// measured phase from the run's seed.
func readerSeed(seed int64, phase, c int) int64 { return seed*7907 + int64(phase)*31 + int64(c) + 5 }

// writerSeed derives the delta generator's seed from the run's seed, apart
// from the graph generator's stream.
func writerSeed(seed int64) int64 { return seed*7919 + 17 }

// randomBatch builds one valid single-mutation batch against mirror: wire
// in a new vertex, tombstone a vertex, add a missing edge or delete an
// existing one. It follows cmd/fastmutate's generator, so every batch
// commits and the server's validation path stays cold.
func randomBatch(rng *rand.Rand, mirror *graph.Graph) graph.Delta {
	live := make([]graph.VertexID, 0, mirror.NumVertices())
	for v := 0; v < mirror.NumVertices(); v++ {
		if !mirror.Deleted(graph.VertexID(v)) {
			live = append(live, graph.VertexID(v))
		}
	}
	pick := func() graph.VertexID { return live[rng.Intn(len(live))] }
	for {
		switch rng.Intn(5) {
		case 0: // new vertex wired to 1-3 live vertices
			n := graph.VertexID(mirror.NumVertices())
			d := graph.Delta{AddVertices: []graph.Label{graph.Label(rng.Intn(mirror.NumLabels()))}}
			seen := map[graph.VertexID]bool{}
			for i := 0; i < 1+rng.Intn(3); i++ {
				if w := pick(); !seen[w] {
					seen[w] = true
					d.AddEdges = append(d.AddEdges, [2]graph.VertexID{n, w})
				}
			}
			return d
		case 1: // tombstone a vertex, but never drain the graph
			if len(live) < mirror.NumVertices()*3/4 {
				continue
			}
			return graph.Delta{DelVertices: []graph.VertexID{pick()}}
		case 2, 3: // add a missing edge
			for tries := 0; tries < 20; tries++ {
				u, w := pick(), pick()
				if u != w && !mirror.HasEdge(u, w) {
					return graph.Delta{AddEdges: [][2]graph.VertexID{{u, w}}}
				}
			}
		case 4: // delete an existing edge
			for tries := 0; tries < 20; tries++ {
				u := pick()
				if nbrs := mirror.Neighbors(u); len(nbrs) > 0 {
					return graph.Delta{DelEdges: [][2]graph.VertexID{{u, nbrs[rng.Intn(len(nbrs))]}}}
				}
			}
		}
	}
}
