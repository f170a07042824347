package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/exec"
	"pstlbench/internal/native"
	"pstlbench/internal/obs"
	"pstlbench/internal/pipeline"
	"pstlbench/internal/stats"
	"pstlbench/internal/stream"
	"pstlbench/internal/trace"
)

var paperKernels = []string{"reduce", "inclusive_scan", "find", "for_each", "sort"}

// perLayer are the metrics every --trace 1 run reports. Where a layer is
// not on the workload's own path, a short probe of that layer fills it
// (see runTraced).
var perLayer = func() []string {
	m := []string{"stream.copy_gbs.w1", "stream.copy_gbs.w2", "stream.triad_gbs.w2", "loop.sum_gbs"}
	for _, k := range paperKernels {
		m = append(m, "core.seq_ms."+k, "native.speedup."+k, "native.efficiency."+k)
	}
	m = append(m,
		"native.roofline_frac.reduce", "native.roofline_frac.inclusive_scan", "native.roofline_frac.find",
		"native.busy_over_seq.for_each", "native.idle_frac", "native.chunks_per_call", "native.steals_per_call",
		"native.parks_per_call", "native.wakeups_per_call", "native.empty_spins_per_call",
		"native.efficiency.for_each.forkjoin", "native.efficiency.for_each.stealing", "native.efficiency.for_each.centralqueue",
		"native.dispatch_us",
		"pipeline.fused_ms", "pipeline.staged_ms", "pipeline.traffic_bytes_per_elem.fused", "pipeline.traffic_bytes_per_elem.staged",
		"serve.admit_us", "serve.queue_wait_ms", "serve.dispatch_us",
		"serve.run_us.reduce", "serve.run_us.find", "serve.run_us.sort", "serve.run_us.scan",
		"http.submit_rtt_us", "http.poll_rtt_us", "http.polls_per_job",
		"shard.route_us", "shard.spills", "shard.migrations", "shard.imbalance",
		"proc.cpu_us_per_job", "runtime.gc_cycles", "runtime.gc_pause_ms", "obs.scrape_ms",
		"loadgen.late_ms",
		"flow.push_us", "flow.paused", "flow.dropped", "flow.late", "flow.windows_closed",
		"flow.windows_empty", "flow.buffered_peak", "flow.watermark_lag_ms",
		"ladder.loop_us", "tax.core_seq_us", "tax.core_pool_us", "tax.serve_run_us", "tax.http_us", "tax.router_us",
		"trace.overhead_frac",
	)
	return m
}()

// ladderSizes are the kernel sizes of the traced ladder: the workload's
// own sizes for bulk, else the sizes of the jobs the workload submits.
func ladderSizes(cfg config) bulkSizes {
	if cfg.workload == "bulk" || cfg.smoke {
		return bulkSizesFor(cfg.smoke)
	}
	if cfg.workload == "mixed" {
		return bulkSizes{Big: 1 << 22, ForEach: 16384, KIt: 256, Sort: 1 << 20}
	}
	return bulkSizes{Big: 4096, ForEach: 4096, KIt: 256, Sort: 4096}
}

// tspan is one span kept in memory by the traced run: a layer, an
// interval on the wall clock (Unix ns) and the index of its parent (-1
// for a root).
type tspan struct {
	Layer  string
	Name   string
	Start  int64
	End    int64
	Parent int
}

// spanSet holds the benchmark's own call spans, all roots.
type spanSet struct{ spans []tspan }

func (s *spanSet) add(layer, name string, start, end int64) {
	s.spans = append(s.spans, tspan{layer, name, start, end, -1})
}

// selfTimes returns, per layer, the summed self time (span duration minus
// the part of it covered by the union of its children) and the count.
func selfTimes(spans []tspan) map[string][2]float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string][2]float64{}
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self := float64(s.End-s.Start) - float64(unionLen(iv))
		v := out[s.Layer]
		v[0] += self / 1e9
		v[1]++
		out[s.Layer] = v
	}
	return out
}

func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// timeReps calls fn until budget is spent (at least minReps, at most
// maxReps times) and returns the per-call seconds.
func timeReps(budget time.Duration, minReps, maxReps int, fn func() time.Duration) []float64 {
	var out []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < maxReps && (i < minReps || time.Now().Before(deadline)); i++ {
		out = append(out, fn().Seconds())
	}
	return out
}

// traced carries the traced run's state.
type traced struct {
	cfg   config
	rep   *report
	spans spanSet
	tr    *trace.Tracer // chunk tracks of the traced pool
	extra []trace.ExportTrack
	rows  []string // per-layer self-time and tax lines
	tax   taxLadder
}

// set records a per-layer metric; a layer that produced no samples in
// this run (a probe too short to see a rare job class) reads 0.
func (t *traced) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.rep.notef("per-layer %s: no samples in this run, reported as 0", name)
		v = 0
	}
	t.rep.set(name, v, unit)
}

// runTraced is the --trace 1 run: the per-layer ladder with spans kept in
// memory at each layer boundary, written once at the end.
func runTraced(ctx context.Context, cfg config, rep *report) error {
	t := &traced{cfg: cfg, rep: rep}
	budget := func(full time.Duration) time.Duration {
		if cfg.smoke {
			return full / 20
		}
		return full
	}
	if err := t.roofline(); err != nil {
		return err
	}
	poolOverhead := t.kernelLadder(budget(time.Second))
	overhead := poolOverhead
	srvOverhead, err := t.serving(ctx, budget)
	if err != nil {
		return err
	}
	if srvOverhead != nil {
		overhead = *srvOverhead
	}
	if err := t.flowLayer(ctx, budget); err != nil {
		return err
	}
	t.set("trace.overhead_frac", overhead, "ratio")
	row := fmt.Sprintf("tracing overhead: traced vs untraced pool on for_each %+.1f%%", poolOverhead*100)
	if srvOverhead != nil {
		row += fmt.Sprintf("; traced vs untraced pstld, p50 at the fixed rate %+.1f%%", *srvOverhead*100)
	}
	t.rows = append(t.rows, row)
	return t.writeTrace()
}

// roofline measures STREAM copy at 1 and 2 workers, triad at 2, and a
// plain single-thread Go loop summing one array.
func (t *traced) roofline() error {
	n := 1 << 25
	if t.cfg.smoke {
		n = 1 << 16
	}
	r1 := stream.Native(1, n, 5)
	r2 := stream.Native(2, n, 5)
	t.set("stream.copy_gbs.w1", r1.Copy, "GB/s")
	t.set("stream.copy_gbs.w2", r2.Copy, "GB/s")
	t.set("stream.triad_gbs.w2", r2.Triad, "GB/s")
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i & 15)
	}
	var sink float64
	ts := timeReps(0, 7, 7, func() time.Duration {
		t0 := time.Now()
		s := 0.0
		for _, v := range a {
			s += v
		}
		sink += s
		return time.Since(t0)
	})
	t.set("loop.sum_gbs", float64(n)*8/stats.Median(ts)/1e9, "GB/s")
	t.rep.notef("roofline: STREAM n=%d copy w1 %.2f, copy w2 %.2f, triad w2 %.2f GB/s; plain loop sum %.2f GB/s (checksum %g)",
		n, r1.Copy, r2.Copy, r2.Triad, float64(n)*8/stats.Median(ts)/1e9, sink)
	return nil
}

// kernelLadder times each paper kernel sequentially and on the 2-worker
// pool at the ladder sizes, the strategies on for_each, scheduler
// counters on a traced pool, dispatch of an empty loop, and the fused vs
// staged chain. It returns the pool-tracing overhead on for_each.
func (t *traced) kernelLadder(budget time.Duration) float64 {
	sz := ladderSizes(t.cfg)
	in := newBulkInputs(t.cfg.seed, sz)
	pool := native.New(bulkWorkers, native.StrategyStealing)
	defer pool.Close()
	par := core.Par(pool)
	in.computeOracles(par)
	t.rep.notef("ladder sizes: n=%d (reduce/scan/find/chain), for_each n=%d k_it=%d, sort n=%d", sz.Big, sz.ForEach, sz.KIt, sz.Sort)

	callSpan := func(layer, name string, p core.Policy, k string) func() time.Duration {
		return func() time.Duration {
			t.rep.Attempted++
			t0, d, err := in.runBulkCall(p, k, false)
			if err != nil {
				t.rep.failf("ladder %s %s: %v", name, k, err)
				return d
			}
			t.spans.add(layer, name+" "+k, t0.UnixNano(), t0.Add(d).UnixNano())
			return d
		}
	}
	seqMS := map[string]float64{}
	for _, k := range paperKernels {
		seq := timeReps(budget, 3, 1000, callSpan("core", "seq", core.Seq(), k))
		pt := timeReps(budget, 3, 1000, callSpan("core", "par", par, k))
		s, p := stats.Median(seq), stats.Median(pt)
		seqMS[k] = s * 1e3
		t.set("core.seq_ms."+k, s*1e3, "ms")
		t.set("native.speedup."+k, s/p, "x")
		t.set("native.efficiency."+k, s/p/bulkWorkers, "ratio")
		if k == "reduce" || k == "inclusive_scan" || k == "find" {
			t.set("native.roofline_frac."+k, in.bulkBytes(k)/p/1e9/t.rep.Metrics["stream.triad_gbs.w2"].Value, "ratio")
		}
		t.rep.notef("ladder %-15s seq %s ms, pool %s ms", k, fmtDist(seq, 1e3), fmtDist(pt, 1e3))
	}

	// The paper's strategy axis on for_each.
	for _, st := range []native.Strategy{native.StrategyForkJoin, native.StrategyStealing, native.StrategyCentralQueue} {
		sp := native.New(bulkWorkers, st)
		ts := timeReps(budget/2, 3, 1000, callSpan("core", st.String(), core.Par(sp), "for_each"))
		sp.Close()
		t.set("native.efficiency.for_each."+st.String(), seqMS["for_each"]/1e3/stats.Median(ts)/bulkWorkers, "ratio")
	}

	// Scheduler counters on a traced pool: for_each and sort calls.
	capEv := 1 << 18
	t.tr = trace.New(bulkWorkers+1, capEv)
	tp := native.NewTraced(bulkWorkers, native.StrategyStealing, native.Topology{}, t.tr)
	defer tp.Close()
	tpar := core.Par(tp)
	before := tp.Stats()
	calls := 0
	var fe []float64
	var wall float64
	for _, k := range []string{"for_each", "sort"} {
		ts := timeReps(budget, 3, 1000, callSpan("core", "traced", tpar, k))
		calls += len(ts)
		for _, v := range ts {
			wall += v
		}
		if k == "for_each" {
			fe = ts
		}
	}
	d := tp.Stats().Sub(before)
	sum := trace.Summarize(t.tr)
	busy, chunks := 0.0, 0
	for _, tk := range sum.Tracks {
		busy += tk.BusySeconds
		chunks += tk.Chunks
	}
	// Chunk busy time inside each for_each call's window, on every track.
	epoch := t.tr.EpochUnixNano()
	feBusy := 0.0
	for _, s := range t.spans.spans {
		if s.Name == "traced for_each" {
			for _, tk := range trace.SummarizeWindow(t.tr, s.Start-epoch, s.End-epoch).Tracks {
				feBusy += tk.BusySeconds
			}
		}
	}
	tracks := float64(t.tr.Tracks()) // the workers plus the helping caller
	t.set("native.busy_over_seq.for_each", feBusy/float64(max(1, len(fe)))/(seqMS["for_each"]/1e3), "ratio")
	t.set("native.idle_frac", 1-busy/(wall*tracks), "ratio")
	pc := float64(max(1, calls))
	t.set("native.chunks_per_call", float64(chunks)/pc, "count")
	t.set("native.steals_per_call", float64(d.Steals())/pc, "count")
	t.set("native.parks_per_call", float64(d.Parks)/pc, "count")
	t.set("native.wakeups_per_call", float64(d.Wakeups)/pc, "count")
	t.set("native.empty_spins_per_call", float64(d.EmptySpins)/pc, "count")
	t.rep.notef("traced pool: %d calls, %d chunks, busy %.3fs of %.3fs x %.0f tracks (workers + caller), lost events %d", calls, chunks, busy, wall, tracks, sum.Lost)

	// Tracing overhead of the pool: for_each untraced vs traced.
	un := timeReps(budget/2, 3, 1000, callSpan("core", "untraced", par, "for_each"))
	poolOverhead := stats.Median(fe)/stats.Median(un) - 1

	// Dispatch: an empty ForChunks call, one chunk per worker.
	disp := timeReps(budget/4, 200, 20000, func() time.Duration {
		t0 := time.Now()
		pool.ForChunks(bulkWorkers, exec.Static, func(worker, lo, hi int) {})
		return time.Since(t0)
	})
	t.set("native.dispatch_us", stats.Median(disp)*1e6, "us")

	// Fused vs staged chain.
	staged := timeReps(budget, 3, 1000, func() time.Duration {
		t0 := time.Now()
		core.Transform(par, in.out, in.in, in.chainF)
		core.Transform(par, in.out, in.out, in.chainG)
		got := core.Sum(par, in.out, 0)
		d := time.Since(t0)
		t.rep.Attempted++
		if got != in.chain {
			t.rep.failf("staged chain %v, want %v", got, in.chain)
		}
		t.spans.add("pipeline", "staged chain", t0.UnixNano(), t0.Add(d).UnixNano())
		return d
	})
	fused := timeReps(budget, 3, 1000, callSpan("pipeline", "fused", par, "fused_chain"))
	t.set("pipeline.fused_ms", stats.Median(fused)*1e3, "ms")
	t.set("pipeline.staged_ms", stats.Median(staged)*1e3, "ms")
	tm := pipeline.From(in.in).Transform(in.chainF).Transform(in.chainG).ModelTraffic(8, "reduce")
	t.set("pipeline.traffic_bytes_per_elem.fused", float64(tm.Fused)/float64(sz.Big), "B/elem")
	t.set("pipeline.traffic_bytes_per_elem.staged", float64(tm.Staged)/float64(sz.Big), "B/elem")
	t.rep.notef("pipeline: fused %s ms, staged %s ms; traffic (computed by ModelTraffic) %.0f vs %.0f B/elem",
		fmtDist(fused, 1e3), fmtDist(staged, 1e3), float64(tm.Fused)/float64(sz.Big), float64(tm.Staged)/float64(sz.Big))

	// Self time of the library layers: each call span's children are the
	// traced pool's chunk spans inside it.
	t.libSelfTimes()

	// The bottom rows of the tax table: reduce at the small-jobs size.
	t.taxBase(pool)
	return poolOverhead
}

func fmtDist(xs []float64, scale float64) string {
	d := summarize(xs)
	if d.N < 20 { // no percentile above the median has 10 samples beyond it
		return fmt.Sprintf("p50 %.4g / max %.4g (n=%d)", d.P50*scale, d.Max*scale, d.N)
	}
	return fmt.Sprintf("p50 %.4g / p%g %.4g (n=%d)", d.P50*scale, d.TailPc, d.Tail*scale, d.N)
}

// libSelfTimes splits the traced-pool calls into core self time (no chunk
// running) and native time (chunks running).
func (t *traced) libSelfTimes() {
	epoch := t.tr.EpochUnixNano()
	var spans []tspan
	var chunkIv [][2]int64
	for tk := 0; tk < t.tr.Tracks(); tk++ {
		for _, e := range t.tr.Events(tk) {
			if e.Kind == trace.KindChunk {
				chunkIv = append(chunkIv, [2]int64{e.Start + epoch, e.End + epoch})
			}
		}
	}
	sort.Slice(chunkIv, func(i, j int) bool { return chunkIv[i][0] < chunkIv[j][0] })
	for _, s := range t.spans.spans {
		if !strings.HasPrefix(s.Name, "traced ") {
			continue
		}
		p := len(spans)
		spans = append(spans, tspan{"core", s.Name, s.Start, s.End, -1})
		i := sort.Search(len(chunkIv), func(i int) bool { return chunkIv[i][1] > s.Start })
		for ; i < len(chunkIv) && chunkIv[i][0] < s.End; i++ {
			spans = append(spans, tspan{"native", "chunk", chunkIv[i][0], chunkIv[i][1], p})
		}
	}
	t.selfTable("library calls on the traced pool", spans)
}

func (t *traced) selfTable(title string, spans []tspan) {
	st := selfTimes(spans)
	layers := make([]string, 0, len(st))
	for l := range st {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	t.rows = append(t.rows, "self time per layer — "+title)
	for _, l := range layers {
		v := st[l]
		t.rows = append(t.rows, fmt.Sprintf("  %-16s spans %7.0f  self total %10.3f ms  mean %10.2f us", l, v[1], v[0]*1e3, v[0]/v[1]*1e6))
	}
}

// taxLadder holds the per-layer ladder rows for reduce at n=4096, in us.
type taxLadder struct {
	loop, seq, pool, serveRun, httpRT, router float64
}

func (t *traced) taxBase(pool *native.Pool) {
	n := 4096
	a := make([]float64, n)
	for i := range a {
		a[i] = 1
	}
	var sink float64
	loop := timeReps(0, 2000, 2000, func() time.Duration {
		t0 := time.Now()
		s := 0.0
		for _, v := range a {
			s += v
		}
		sink += s
		return time.Since(t0)
	})
	seq := timeReps(0, 2000, 2000, func() time.Duration {
		t0 := time.Now()
		sink += core.Sum(core.Seq(), a, 0)
		return time.Since(t0)
	})
	par := timeReps(0, 2000, 2000, func() time.Duration {
		t0 := time.Now()
		sink += core.Sum(core.Par(pool), a, 0)
		return time.Since(t0)
	})
	if sink != float64(3*2000*n) {
		t.rep.mismatchf("tax ladder sums %v, want %v", sink, 3*2000*n)
	}
	t.tax.loop, t.tax.seq, t.tax.pool = stats.Median(loop)*1e6, stats.Median(seq)*1e6, stats.Median(par)*1e6
}

// serving runs the HTTP tiers traced and fills the serve, http, shard,
// process and loadgen metrics and the upper tax rows. It returns the
// daemon-tracing overhead for the HTTP workloads.
func (t *traced) serving(ctx context.Context, budget func(time.Duration) time.Duration) (*float64, error) {
	tracedEnv := []string{"GODEBUG=gctrace=1"}
	spanArgs := []string{"-span-log", "1000000"}
	probe := budget(2 * time.Second)
	share := smallJobsSpec.FixedShare
	if t.cfg.workload == "mixed" {
		share = mixedSpec.FixedShare
	}
	own := time.Duration(float64(t.cfg.measure()) * share)
	if t.cfg.smoke {
		own = probe
	}
	var overhead *float64

	// Single-server tier: small-jobs traffic.
	singleDur := probe
	if t.cfg.workload == "small-jobs" {
		singleDur = own
	}
	single, err := runHTTP(ctx, t.cfg, smallJobsSpec, spanArgs, tracedEnv, singleDur, false)
	if err != nil {
		return nil, err
	}
	singleSpans, err := t.harvest(single, "single")
	single.d.stop()
	if err != nil {
		return nil, err
	}

	// Router tier with the same traffic, for the tax table.
	routerSpec := smallJobsSpec
	routerSpec.Name, routerSpec.Args = "small-jobs-router", mixedSpec.Args
	routerTax, err := runHTTP(ctx, t.cfg, routerSpec, spanArgs, nil, probe, false)
	if err != nil {
		return nil, err
	}
	routerTax.d.stop()
	t.checkPhase(routerTax.fixed)

	// Mixed traffic on the router: heavy kernels and shard placement.
	mixedDur := probe
	if t.cfg.workload == "mixed" {
		mixedDur = own
	}
	mixed, err := runHTTP(ctx, t.cfg, mixedSpec, spanArgs, tracedEnv, mixedDur, false)
	if err != nil {
		return nil, err
	}
	mixedSpans, err := t.harvest(mixed, "mixed")
	if err != nil {
		mixed.d.stop()
		return nil, err
	}
	rst, err := fetchRouterStats(mixed.d.base)
	mixed.d.stop()
	if err != nil {
		return nil, err
	}

	serveFrom, serveSpans := single, singleSpans
	if t.cfg.workload == "mixed" {
		serveFrom, serveSpans = mixed, mixedSpans
	}
	ph := phaseStats(serveSpans)
	t.set("serve.admit_us", medianOrNaN(ph["admit"])*1e6, "us")
	t.set("serve.queue_wait_ms", medianOrNaN(ph["queue"])*1e3, "ms")
	t.set("serve.dispatch_us", medianOrNaN(ph["dispatch"])*1e6, "us")
	sph, mph := phaseStats(singleSpans), phaseStats(mixedSpans)
	t.set("serve.run_us.reduce", medianOrNaN(sph["run.reduce"])*1e6, "us")
	t.set("serve.run_us.find", medianOrNaN(sph["run.find"])*1e6, "us")
	t.set("serve.run_us.sort", medianOrNaN(mph["run.sort"])*1e6, "us")
	t.set("serve.run_us.scan", medianOrNaN(mph["run.scan"])*1e6, "us")
	for _, k := range []string{"admit", "queue", "dispatch", "run.reduce", "run.find"} {
		t.rep.notef("serve %-10s (%s) %s us", k, serveFrom.spec.Name, fmtDist(ph[k], 1e6))
	}
	for _, k := range []string{"run.sort", "run.scan"} {
		t.rep.notef("serve %-10s (mixed) %s us", k, fmtDist(mph[k], 1e6))
	}
	t.rep.notef("router admit (mixed) %s us; single-server admit %s us", fmtDist(mph["admit"], 1e6), fmtDist(sph["admit"], 1e6))

	f := serveFrom.fixed
	var rtt []float64
	for _, o := range f.Outcomes {
		if o.submitOK {
			rtt = append(rtt, o.SubmitRTT.Seconds())
		}
	}
	t.set("http.submit_rtt_us", medianOrNaN(rtt)*1e6, "us")
	t.set("http.poll_rtt_us", medianOrNaN(f.PollRTT)*1e6, "us")
	t.set("http.polls_per_job", float64(f.Useful)/float64(max(1, f.Polls)), "ratio")
	t.rep.notef("http (%s): submit RTT %s us; poll RTT %s us; %d polls, %d useful", serveFrom.spec.Name, fmtDist(rtt, 1e6), fmtDist(f.PollRTT, 1e6), f.Polls, f.Useful)

	// Spans carry no router-only stamp: on the router, admitted→enqueued
	// is router placement plus shard admission, so the single server's
	// admission is taken off.
	t.set("shard.route_us", (medianOrNaN(mph["admit"])-medianOrNaN(sph["admit"]))*1e6, "us")
	t.set("shard.spills", float64(rst.Spills), "count")
	t.set("shard.migrations", float64(rst.Migrations), "count")
	maxC, sumC := 0.0, 0.0
	for _, s := range rst.PerShard {
		c := float64(s.Completed)
		sumC += c
		maxC = max(maxC, c)
	}
	imb := 0.0
	if sumC > 0 {
		imb = maxC / (sumC / float64(len(rst.PerShard)))
	}
	t.set("shard.imbalance", imb, "ratio")

	t.set("proc.cpu_us_per_job", serveFrom.cpuSec/float64(max(1, serveFrom.jobs))*1e6, "us")
	cycles, pause := gcStats(serveFrom.d.stderr.String())
	t.set("runtime.gc_cycles", float64(cycles), "count")
	t.set("runtime.gc_pause_ms", pause, "ms")
	var late []float64
	for _, o := range f.Outcomes {
		late = append(late, o.LateBy.Seconds())
	}
	ld := summarize(late)
	t.set("loadgen.late_ms", ld.Tail*1e3, "ms")
	t.rep.notef("loadgen lateness (%s): %s ms", serveFrom.spec.Name, fmtDist(late, 1e3))

	// Upper tax rows: reduce jobs, submit to observed completion.
	t.tax.serveRun = medianOrNaN(sph["run.reduce"]) * 1e6
	t.tax.httpRT = medianTurnaround(single.fixed, "reduce") * 1e6
	t.tax.router = medianTurnaround(routerTax.fixed, "reduce") * 1e6
	t.taxTable()

	// Headline overhead for the HTTP workloads: the same fixed phase on an
	// untraced daemon (default span log, no gctrace).
	if t.cfg.workload == "small-jobs" || t.cfg.workload == "mixed" {
		spec := smallJobsSpec
		if t.cfg.workload == "mixed" {
			spec = mixedSpec
		}
		un, err := runHTTP(ctx, t.cfg, spec, nil, nil, own, false)
		if err != nil {
			return nil, err
		}
		scrape := t.scrape(un.d.base)
		un.d.stop()
		t.checkPhase(un.fixed)
		tracedP50 := percentileWithMisses(serveFrom.fixed.Lat, serveFrom.fixed.Misses, 0.5)
		v := tracedP50/percentileWithMisses(un.fixed.Lat, un.fixed.Misses, 0.5) - 1
		overhead = &v
		t.set("obs.scrape_ms", scrape, "ms")
	} else {
		d, _, err := startDaemon(t.cfg.pstld, []string{"-workers", "2"}, nil)
		if err != nil {
			return nil, err
		}
		lc := newLoadClient(d.base)
		t.checkPhase(lc.run(poissonSchedule(t.cfg.seed, 7, 400, 200*time.Millisecond, smallJobsMix), 400, time.Second, 0))
		lc.close()
		t.set("obs.scrape_ms", t.scrape(d.base), "ms")
		d.stop()
	}
	return overhead, nil
}

func (t *traced) scrape(base string) float64 {
	var xs []float64
	for i := 0; i < 5; i++ {
		d, err := scrapeMetrics(base)
		if err == nil {
			xs = append(xs, d.Seconds())
		}
	}
	return stats.Median(xs) * 1e3
}

// checkPhase counts a probe phase's jobs and oracle mismatches.
func (t *traced) checkPhase(p *phaseResult) {
	t.rep.Attempted += len(p.Outcomes)
	t.rep.Failed += p.failed()
	for _, m := range p.Mismatches {
		t.rep.flagf("%s", m) // a mismatched job is one of p.failed()
	}
}

func medianTurnaround(p *phaseResult, kernel string) float64 {
	var xs []float64
	for _, o := range p.Outcomes {
		if o.Job.Kernel == kernel && o.State == "done" {
			xs = append(xs, o.DoneAt.Sub(o.SubmitAt).Seconds())
		}
	}
	return medianOrNaN(xs)
}

// harvest checks a traced daemon's phase, reads its spans, adds them to
// the span set and the Chrome trace, and prints its self-time table.
func (t *traced) harvest(hr *httpRun, tag string) ([]obs.SpanInfo, error) {
	t.checkPhase(hr.fixed)
	spans, err := fetchSpans(hr.d.base)
	if err != nil {
		return nil, err
	}
	byID := map[string]obs.SpanInfo{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var ss []tspan
	var track []trace.ExportEvent
	epoch := t.tr.EpochUnixNano()
	for _, o := range hr.fixed.Outcomes {
		if o.State != "done" {
			continue
		}
		root := len(ss)
		ss = append(ss, tspan{"client", "job", o.DueAbs.UnixNano(), o.DoneAt.UnixNano(), -1})
		ss = append(ss, tspan{"loadgen", "late", o.DueAbs.UnixNano(), o.SubmitAt.UnixNano(), root})
		sub := len(ss)
		ss = append(ss, tspan{"http", "submit", o.SubmitAt.UnixNano(), o.SubmitAt.Add(o.SubmitRTT).UnixNano(), root})
		track = append(track, trace.ExportEvent{Name: "job " + o.Job.Kernel, Start: o.DueAbs.UnixNano() - epoch, End: o.DoneAt.UnixNano() - epoch,
			Args: map[string]any{"id": o.ID, "tenant": o.Job.Tenant, "n": o.Job.N}})
		sp, ok := byID[o.ID]
		if !ok {
			continue
		}
		p := sp.Phases
		adm, enq, st, done := p["admitted"], p["enqueued"], p["started"], p["completed"]
		if adm > 0 && enq >= adm {
			ss = append(ss, tspan{"serve.admit", "admit", adm, enq, sub})
		}
		if enq > 0 && st >= enq {
			ss = append(ss, tspan{"serve.queue", "queue", enq, st, root})
		}
		if st > 0 && done >= st {
			ss = append(ss, tspan{"serve.run", "run", st, done, root})
			track = append(track, trace.ExportEvent{Name: "run " + o.Job.Kernel, Start: st - epoch, End: done - epoch})
		}
		if done > 0 && o.DoneAt.UnixNano() >= done {
			ss = append(ss, tspan{"http", "poll-detect", done, o.DoneAt.UnixNano(), root})
		}
	}
	t.extra = append(t.extra, trace.ExportTrack{Label: "jobs " + tag, Events: track})
	t.selfTable("HTTP jobs, "+tag+" ("+hr.spec.Name+")", ss)
	return spans, nil
}

// phaseStats turns job spans into per-phase duration samples (seconds).
func phaseStats(spans []obs.SpanInfo) map[string][]float64 {
	out := map[string][]float64{}
	add := func(k string, a, b int64) {
		if a > 0 && b >= a {
			out[k] = append(out[k], float64(b-a)/1e9)
		}
	}
	for _, s := range spans {
		p := s.Phases
		add("admit", p["admitted"], p["enqueued"])
		add("queue", p["enqueued"], p["started"])
		add("dispatch", p["started"], p["first-chunk"])
		add("run."+s.Kernel, p["started"], p["completed"])
	}
	return out
}

func (t *traced) taxTable() {
	rows := []struct {
		name string
		v    float64
	}{
		{"plain loop", t.tax.loop}, {"core seq", t.tax.seq}, {"core on pool", t.tax.pool},
		{"serve run", t.tax.serveRun}, {"HTTP round trip", t.tax.httpRT}, {"router", t.tax.router},
	}
	triad := t.rep.Metrics["stream.triad_gbs.w2"].Value
	t.rows = append(t.rows, "per-layer tax, reduce n=4096 (each row minus the row below; us):",
		fmt.Sprintf("  %-16s %10.3f us (STREAM-bound time at triad w2)", "STREAM", 4096*8/triad/1e3))
	prev := 0.0
	for i, r := range rows {
		t.rows = append(t.rows, fmt.Sprintf("  %-16s %10.3f us  tax %+10.3f us", r.name, r.v, r.v-prev))
		if i > 0 {
			name := []string{"", "tax.core_seq_us", "tax.core_pool_us", "tax.serve_run_us", "tax.http_us", "tax.router_us"}[i]
			t.set(name, r.v-prev, "us")
		}
		prev = r.v
	}
	t.set("ladder.loop_us", t.tax.loop, "us")
}

// flowLayer runs the streaming plane traced: the stream workload's own
// fixed phase, or a short probe for the other workloads.
func (t *traced) flowLayer(ctx context.Context, budget func(time.Duration) time.Duration) error {
	spec := streamSpec
	dur := budget(time.Second)
	if t.cfg.workload == "stream" {
		dur = time.Duration(float64(t.cfg.measure()) * streamFixedShare)
	}
	if t.cfg.smoke {
		dur = 200 * time.Millisecond
	}
	fr, err := runFlow(ctx, t.cfg, spec, dur, false, true)
	if err != nil {
		return err
	}
	f := fr.fixed
	t.rep.Attempted += len(f.Lat) + f.Misses
	t.rep.Failed += f.Misses
	for _, m := range f.Mismatch {
		t.rep.flagf("%s", m) // every mismatch is one of f.Misses
	}
	for _, m := range stepMismatches(fr.warm) {
		t.rep.mismatchf("%s", m)
	}
	t.set("flow.push_us", medianOrNaN(f.PushUS), "us")
	t.set("flow.paused", float64(f.Paused), "count")
	t.set("flow.dropped", float64(f.Dropped), "count")
	t.set("flow.late", float64(f.Late), "count")
	t.set("flow.windows_closed", float64(f.Closed), "count")
	t.set("flow.windows_empty", float64(f.Empty), "count")
	t.set("flow.buffered_peak", float64(f.PeakBuf), "count")
	t.set("flow.watermark_lag_ms", medianOrNaN(f.WMLagMS), "ms")
	t.rep.notef("flow: push %s us; window close -> result %s ms; watermark lag %s ms; generator late %s ms",
		fmtDist(f.PushUS, 1), fmtDist(f.Lat, 1e3), fmtDist(f.WMLagMS, 1), fmtDist(f.LateMS, 1))
	epoch := t.tr.EpochUnixNano()
	var ev []trace.ExportEvent
	var ss []tspan
	for _, p := range f.pushSpans {
		ev = append(ev, trace.ExportEvent{Name: "push", Start: p[0] - epoch, End: p[1] - epoch})
		ss = append(ss, tspan{"flow.push", "push", p[0], p[1], -1})
	}
	t.extra = append(t.extra, trace.ExportTrack{Label: "flow pushes (sampled)", Events: ev})
	t.selfTable("flow pushes (sampled)", ss)
	return nil
}

// writeTrace writes every span once as Chrome trace JSON, reads it back
// with trace.ReadChrome, and prints the self-time and tax tables.
func (t *traced) writeTrace() error {
	epoch := t.tr.EpochUnixNano()
	var calls []trace.ExportEvent
	for _, s := range t.spans.spans {
		calls = append(calls, trace.ExportEvent{Name: s.Name, Start: s.Start - epoch, End: s.End - epoch,
			Args: map[string]any{"layer": s.Layer}})
	}
	tracks := append([]trace.ExportTrack{{Label: "benchmark calls", Events: calls}}, t.extra...)
	if err := os.MkdirAll(t.cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(t.cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", t.cfg.workload, t.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeExtra(f, t.tr, tracks); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rf, err := os.Open(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	ct, err := trace.ReadChrome(rf)
	if err != nil {
		return fmt.Errorf("trace.ReadChrome rejected %s: %w", path, err)
	}
	if err := ct.Validate(); err != nil {
		return fmt.Errorf("trace %s invalid: %w", path, err)
	}
	t.rep.notef("chrome trace %s: %d events, accepted by trace.ReadChrome", path, len(ct.TraceEvents))
	t.rep.Notes = append(t.rep.Notes, t.rows...)
	return nil
}
