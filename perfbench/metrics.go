package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	fast "fastmatch"
)

// metric is one reported figure. note says how it was taken: the sample
// count behind a percentile, the base of a ratio, or that the program (not
// a benchmark span) reported it.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

type report struct {
	metrics []metric
}

func (rp *report) add(name, unit string, value float64, note string, args ...any) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	rp.metrics = append(rp.metrics, metric{name, unit, value, fmt.Sprintf(note, args...)})
}

// print writes the metrics one per line, the modelled ones in a block of
// their own after the measured ones.
func (rp *report) print(w io.Writer) {
	modelled := false
	for _, m := range rp.metrics {
		if strings.HasPrefix(m.name, "model.") && !modelled {
			fmt.Fprintln(w, "modelled by fpgasim (not host time, never end-to-end):")
			modelled = true
		}
		fmt.Fprintf(w, "  %-26s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// percentileNote states the sample count behind a percentile and flags one
// the sample cannot support.
func percentileNote(n int, p float64) string {
	b := beyond(n, p)
	if b < minBeyond {
		return fmt.Sprintf("n=%d, %d beyond p%g: below the %d-sample rule (p%g is the highest it supports)", n, b, p, minBeyond, tailPercentile(n))
	}
	return fmt.Sprintf("n=%d, %d beyond", n, b)
}

// endToEnd computes the end-to-end metrics of an untraced run. Most are
// computed per graph and reported as the trimmed mean over the run's
// graphs, which averages out how much a query costs on one LDBC seed and
// drops the graph measured through the slowest spell of a shared host;
// qps is the median over all one-second windows, and delta_p90_ms needs
// the batches of all graphs to have ten beyond it.
func endToEnd(w *workload, m *measured) (*report, int, int) {
	rp := &report{}
	lat, attempted, failed := readStats(m.reads)
	wlat, _, wAttempted, wFailed := writeStats(m.writes)
	attempted += wAttempted
	failed += wFailed

	over := fmt.Sprintf("trimmed mean over %d graphs", w.graphs)
	rp.add("setup_s", "s", m.setup.trimmedMean(), "%s of each one's median set-up: generation, router+server, cold planning of %d queries", over, len(w.queries))
	rp.add("qps", "1/s", m.rates.median(), "median over %d one-second windows (range %.0f-%.0f) of completed reads; %d reads, %d client(s)",
		len(m.rates), m.rates.percentile(0), m.rates.percentile(100), len(lat), w.readers)
	rp.add("read_p50_ms", "ms", m.p50.trimmedMean(), "%s of the mean over the %d queries of each one's median latency; %d reads",
		over, len(w.queries), len(lat))
	rp.add("read_p99_ms", "ms", m.p99.trimmedMean(), "%s of each one's p99; fewest reads on a graph %s", over, percentileNote(m.fewest, 99))
	rp.add("ok_ratio", "ratio", ratio(float64(attempted-failed), float64(attempted)), "base: %d operations attempted; error_ratio = %.4f", attempted, ratio(float64(failed), float64(attempted)))
	rp.add("heap_mb", "MB", m.heap.trimmedMean(), "%s of the live heap after a forced GC at the end of the read phase", over)
	timing := "from due time, open loop"
	if w.writeRate == 0 {
		timing = "write tail after the reads, closed loop"
	}
	rp.add("delta_p50_ms", "ms", m.delta.trimmedMean(), "%s of each one's median, %s; %d batches", over, timing, len(wlat))
	rp.add("delta_p90_ms", "ms", wlat.percentile(90), "over all graphs' batches, %s; %s", timing, percentileNote(len(wlat), 90))
	rp.add("notify_p50_ms", "ms", m.notify.trimmedMean(), "%s of each one's median due-time-to-MatchDelta latency", over)
	return rp, attempted, failed
}

// readLatencies returns the typical and tail read latency of one graph's
// reads: the mean over the queries of each query's median (the mix's own
// median would jump between the latency modes of its queries), and the p99
// over all its reads, with their count.
func readLatencies(reads []readRec, queries int) (p50, p99 float64, n int) {
	perQuery := make([]sample, queries)
	var all sample
	for _, rd := range reads {
		if rd.err == nil {
			perQuery[rd.qi] = append(perQuery[rd.qi], ms(rd.lat))
			all = append(all, ms(rd.lat))
		}
	}
	var medians sample
	for _, s := range perQuery {
		medians = append(medians, s.median())
	}
	return ratio(medians.sum(), float64(queries)), all.percentile(99), len(all)
}

// perLayer computes the per-layer metrics of a traced run from the
// untraced phase a, the traced phase b, and the layer replay.
func perLayer(r *run, a, b *phase, x *replay) *report {
	rp := &report{}
	byReq := make(map[int64][]span)
	for _, s := range x.tr.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	// Per read: the layer self times as paired differences of its calls,
	// and the stage replay's partition self time, kernel time and
	// enumeration time (the union of the partition span's children).
	var rt, clientOv, serverSelf, routerSelf, engineSelf, engineMiss, hst, hostSelf sample
	var partSelf, kernel, enum, ord, build, rebuildPaid sample
	for _, req := range x.reads {
		d := map[string]float64{}
		var p span
		var kids, kern, cpu []span
		for _, s := range byReq[req] {
			switch s.Name {
			case spPartition:
				p = s
			case spKernel:
				kern, kids = append(kern, s), append(kids, s)
			case spEnumerate, spEstimate:
				cpu, kids = append(cpu, s), append(kids, s)
			}
			d[s.Name] += ms(s.dur())
		}
		// Planning is timed on the first rounds only.
		if v, ok := d[spOrder]; ok {
			ord = append(ord, v)
		}
		if v, ok := d[spBuild]; ok {
			build = append(build, v)
		}
		rebuildPaid = append(rebuildPaid, d[spRebuild])
		rt = append(rt, d[spClient])
		clientOv = append(clientOv, d[spClient]-d[spServer])
		serverSelf = append(serverSelf, d[spServer]-d[spRouter])
		routerSelf = append(routerSelf, d[spRouter]-d[spEngine])
		engineSelf = append(engineSelf, d[spEngine]-d[spHost])
		engineMiss = append(engineMiss, d[spFirst]-d[spRouter])
		hst = append(hst, d[spHost])
		hostSelf = append(hostSelf, d[spHost]-d[spPartition])
		partSelf = append(partSelf, ms(selfTime(p, kids)))
		kernel = append(kernel, ms(p.dur()-selfTime(p, kern)))
		enum = append(enum, ms(p.dur()-selfTime(p, cpu)))
	}
	var rebuild sample // every rebuild, paid by a read or not
	for _, s := range x.tr.spans {
		if s.Name == spRebuild {
			rebuild = append(rebuild, ms(s.dur()))
		}
	}
	var dynSelf, apply, affected sample
	for _, req := range x.writes {
		d := map[string]float64{}
		for _, s := range byReq[req] {
			d[s.Name] += ms(s.dur())
		}
		dynSelf = append(dynSelf, d[spDynamic]-d[spApply]-d[spSubBuild]-d[spAffected])
		apply = append(apply, d[spApply])
		affected = append(affected, d[spAffected])
	}
	var pieces, runs, rootBytes, transfer sample
	for _, st := range x.stage {
		pieces = append(pieces, float64(st.pieces))
		runs = append(runs, float64(st.kernelRuns))
		rootBytes = append(rootBytes, float64(st.rootBytes))
		transfer = append(transfer, float64(st.transferBytes))
	}
	var cycles, total sample
	var retries int64
	for _, res := range x.res {
		cycles = append(cycles, float64(res.KernelCycles))
		total = append(total, ms(res.Total))
		retries += res.Retries
	}
	reads := len(x.reads)

	rp.add("client.overhead_ms", "ms", clientOv.median(), "median over %d replayed reads of client round trip - Server.ServeHTTP", reads)
	rp.add("server.self_ms", "ms", serverSelf.median(), "median of Server.ServeHTTP - Router.MatchContext")
	rp.add("router.self_ms", "ms", routerSelf.median(), "median of Router.MatchContext - Engine.MatchContext")
	rp.add("router.admitted", "count", float64(a.stats1.Admitted-a.stats0.Admitted), "Router.Stats over the untraced phase (program-reported)")
	rp.add("router.shed", "count", float64(shed(a.stats1)-shed(a.stats0)), "queue_full+doomed+queue_timeout+breaker over the untraced phase (program-reported)")
	rp.add("engine.self_ms", "ms", engineSelf.median(), "median of Engine.MatchContext - host.Match on the same plan, plan cached")
	rp.add("engine.miss_ms", "ms", engineMiss.median(), "median of the first Router.MatchContext after an epoch - a cached one")
	rp.add("engine.plan_hit_ratio", "ratio", ratio(float64(a.hits), float64(a.hits+a.miss)), "base: %d plan-cache lookups in the untraced phase (program-reported)", a.hits+a.miss)
	rp.add("host.match_ms", "ms", hst.median(), "median host.Match with the prepared plan")
	rp.add("host.self_ms", "ms", hostSelf.median(), "median of host.Match - the cst.Partition span")
	cpuPieceRatio, pieceBytesRatio := stageRatios(x.stage)
	rp.add("host.cpu_piece_ratio", "ratio", cpuPieceRatio, "base: %.0f pieces over %d replayed reads", pieces.sum(), len(x.stage))
	rp.add("host.retries", "count", float64(retries), "Result.Retries summed over replayed reads (program-reported)")
	rp.add("order.plan_ms", "ms", ord.median(), "median SelectRoot+BuildBFSTree+PathBased per query (n=%d)", len(ord))
	rp.add("cst.build_ms", "ms", build.median(), "median cst.BuildWorkers per query (n=%d)", len(build))
	rp.add("cst.rebuild_ms", "ms", rebuild.median(), "median host.PrepareSeeded per query after an epoch (n=%d)", len(rebuild))
	rp.add("cst.bytes", "B", rootBytes.median(), "median root CST size per read")
	rp.add("cst.partition_ms", "ms", partSelf.median(), "median cst.Partition self time: span minus union of its children")
	rp.add("cst.pieces", "count", pieces.median(), "median pieces per read")
	rp.add("cst.piece_bytes_ratio", "ratio", pieceBytesRatio, "base: root CST bytes, summed over replayed reads")
	rp.add("core.kernel_ms", "ms", kernel.median(), "median per read of the union of core.Run spans")
	rp.add("core.runs", "count", runs.median(), "median core.Run calls per read")
	rp.add("core.allocs_per_run", "count", x.allocsPerRun(), "mean over %d sampled FPGA pieces, pooled scratch", len(x.fpgaParts))
	rp.add("cst.enumerate_ms", "ms", enum.median(), "median per read of the union of the delta-share spans: cst.EstimateWorkload for the delta test on every piece, cst.Enumerate on CPU-routed ones")
	rp.add("graph.apply_delta_ms", "ms", apply.median(), "median graph.ApplyDelta on the mirror (n=%d)", len(apply))
	rp.add("dynamic.self_ms", "ms", dynSelf.median(), "median of Router.ApplyDelta - graph.ApplyDelta - subscription CST build - EnumerateAffected")
	rp.add("dynamic.plan_seeded_ratio", "ratio", ratio(float64(x.seeded), float64(len(x.writes))), "base: %d replayed Router.ApplyDelta calls", len(x.writes))
	rp.add("cst.affected_ms", "ms", affected.median(), "median EnumerateAffected for %s on old+new CST", subscriptionQuery)

	mallocs := float64(a.mem1.Mallocs - a.mem0.Mallocs)
	bytes := float64(a.mem1.TotalAlloc - a.mem0.TotalAlloc)
	aReads := float64(len(a.reads))
	rp.add("runtime.allocs_per_req", "count", ratio(mallocs, aReads), "base: %.0f reads in the untraced phase; client and server share the process", aReads)
	rp.add("runtime.bytes_per_req", "B", ratio(bytes, aReads), "base: %.0f reads in the untraced phase", aReads)
	rp.add("runtime.gc_pause_ms", "ms", ms(time.Duration(a.mem1.PauseTotalNs-a.mem0.PauseTotalNs)), "total GC pause over the %.1f s untraced phase", a.elapsed.Seconds())

	rp.add("request_ms", "ms", rt.median(), "median client round trip in the replay, the base of the shares")
	attributed := clientOv.median() + serverSelf.median() + routerSelf.median() + engineSelf.median() +
		hostSelf.median() + partSelf.median() + kernel.median() + enum.median()
	rp.add("unattributed_ms", "ms", rt.median()-attributed, "request_ms minus the medians of the layer self times (medians do not add)")
	rp.add("cst.partition_share", "ratio", ratio(partSelf.sum(), rt.sum()), "base: summed client round trips of the replayed reads")
	rp.add("cst.rebuild_share", "ratio", ratio(rebuildPaid.sum(), rt.sum()), "rebuilds paid by reads, replayed beside their round trips (so it can exceed 1); base: summed client round trips of the replayed reads")
	rp.add("core.kernel_share", "ratio", ratio(kernel.sum(), rt.sum()), "base: summed client round trips of the replayed reads")

	aQPS := float64(len(a.reads)) / a.elapsed.Seconds()
	bQPS := float64(len(b.reads)) / b.elapsed.Seconds()
	rp.add("trace.overhead_ratio", "ratio", ratio(aQPS, bQPS), "untraced qps %.1f / traced qps %.1f", aQPS, bQPS)
	writeLate, readLate := generatorLateness(a, b)
	rp.add("gen.late_ms", "ms", max(writeLate.percentile(90), readLate.percentile(90)),
		"the larger p90 of how late a generator sent: open-loop writer %.3f (n=%d) past due, closed-loop readers %.3f (n=%d) past their last reply",
		writeLate.percentile(90), len(writeLate), readLate.percentile(90), len(readLate))

	rp.add("model.kernel_cycles", "cycles", cycles.median(), "median Result.KernelCycles per read (program-reported)")
	rp.add("model.transfer_bytes", "B", transfer.median(), "median bytes staged to the card per read by the stage replay")
	rp.add("model.total_ms", "ms", total.median(), "median Result.Total: measured host phases plus modelled card time (program-reported)")
	return rp
}

// generatorLateness returns how late the load generator sent each request
// of the phases: the writer against its schedule, the readers against the
// reply each was waiting for (a client's first read waited for none).
func generatorLateness(phases ...*phase) (writes, reads sample) {
	for _, ph := range phases {
		_, late, _, _ := writeStats(ph.writes)
		writes = append(writes, late...)
		for _, rd := range ph.reads {
			if rd.late > 0 {
				reads = append(reads, ms(rd.late))
			}
		}
	}
	return writes, reads
}

// stageRatios returns the share of pieces routed to the CPU (base: all
// pieces) and the bytes of all pieces over the bytes of the CSTs they were
// cut from (base: root CST bytes), over the replayed reads.
func stageRatios(stages []stageStats) (cpuPiece, pieceBytes float64) {
	var pieces, cpu, bytes, root float64
	for _, st := range stages {
		pieces += float64(st.pieces)
		cpu += float64(st.cpuPieces)
		bytes += float64(st.pieceBytes)
		root += float64(st.rootBytes)
	}
	return ratio(cpu, pieces), ratio(bytes, root)
}

// shed sums every way the router refuses a call on arrival or in queue.
func shed(s fast.GraphStats) int64 {
	return s.ShedQueueFull + s.ShedDoomed + s.QueueTimeouts + s.ShedBreakerOpen
}
