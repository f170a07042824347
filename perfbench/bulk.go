package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/kernels"
	"pstlbench/internal/native"
	"pstlbench/internal/pipeline"
	"pstlbench/internal/stats"
)

// bulkSizes are the bulk workload's problem sizes.
type bulkSizes struct {
	Big     int // reduce, inclusive_scan, find, fused chain
	ForEach int
	KIt     int
	Sort    int
}

func bulkSizesFor(smoke bool) bulkSizes {
	if smoke {
		return bulkSizes{Big: 1 << 16, ForEach: 1 << 12, KIt: 16, Sort: 1 << 14}
	}
	// 2^27 float64 is 1 GiB per array, 3.4x the 300 MiB L3 of the
	// reference host. The paper's 2^28 would put inclusive_scan's two
	// arrays at 4 GiB on a 7 GiB host, so the size stops one step short.
	return bulkSizes{Big: 1 << 27, ForEach: 1 << 20, KIt: 256, Sort: 1 << 22}
}

// bulkKernels lists the bulk workload's calls in the order they run in
// each closed-loop round.
var bulkKernels = []string{"reduce", "inclusive_scan", "find", "for_each", "sort", "fused_chain"}

// bulkInputs holds the seeded inputs and the oracle expectations computed
// once, sequentially, before anything is timed.
type bulkInputs struct {
	sz        bulkSizes
	in, out   []float64 // big input; scan output (and staged-chain scratch)
	findPos   int
	sum       float64 // core.Sum(Seq) of in
	scanHash  uint64  // digest of the sequential core.InclusiveSum of in
	chain     float64 // staged chain result
	feInit    []float64
	feData    []float64
	sortIn    []float64
	sortRef   []float64 // slices.Sort of sortIn
	sortWork  []float64
	chainF    func(float64) float64
	chainG    func(float64) float64
	forEachFn func(*float64)
}

const findTarget = 16.0 // never produced by the input fill (values 0..15)

func newBulkInputs(seed int64, sz bulkSizes) *bulkInputs {
	b := &bulkInputs{sz: sz}
	r := newRNG(seed, 1)
	b.in = make([]float64, sz.Big)
	// Small integers keep every sum exact in float64, so parallel and
	// sequential results must agree bit for bit.
	var bits uint64
	for i := range b.in {
		if i&15 == 0 {
			bits = r.next()
		}
		b.in[i] = float64(bits & 15)
		bits >>= 4
	}
	// The find target sits at a seeded position in the last 1/64 of the
	// array, so every seed scans nearly the same number of bytes.
	tail := max(1, sz.Big/64)
	b.findPos = sz.Big - tail + r.intn(tail)
	b.in[b.findPos] = findTarget
	b.out = make([]float64, sz.Big)

	b.chainF = func(v float64) float64 { return v*3 + 1 }
	b.chainG = func(v float64) float64 { return v * 0.5 }
	b.forEachFn = kernels.ForEachKernel(sz.KIt)

	b.feInit = make([]float64, sz.ForEach)
	for i := range b.feInit {
		b.feInit[i] = float64(r.intn(1000))
	}
	b.feData = make([]float64, sz.ForEach)

	b.sortIn = make([]float64, sz.Sort)
	for i := range b.sortIn {
		b.sortIn[i] = float64(i + 1)
	}
	for i := len(b.sortIn) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		b.sortIn[i], b.sortIn[j] = b.sortIn[j], b.sortIn[i]
	}
	b.sortWork = make([]float64, sz.Sort)
	return b
}

// computeOracles fills the expected results with sequential core calls
// (and slices.Sort), plus the staged chain on the given policy.
func (b *bulkInputs) computeOracles(par core.Policy) {
	seq := core.Seq()
	b.sum = core.Sum(seq, b.in, 0)
	// Staged chain: each stage materialized through out.
	core.Transform(par, b.out, b.in, b.chainF)
	core.Transform(par, b.out, b.out, b.chainG)
	b.chain = core.Sum(par, b.out, 0)
	core.InclusiveSum(seq, b.out, b.in)
	b.scanHash = digest(b.out)
	b.sortRef = slices.Clone(b.sortIn)
	slices.Sort(b.sortRef)
}

// digest is an order-sensitive hash of a float64 slice's bit patterns.
func digest(s []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range s {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// bulkBytes is the computed bytes moved by one call of a bandwidth
// kernel: reads of every input element plus writes of every output.
func (b *bulkInputs) bulkBytes(kernel string) float64 {
	n := float64(b.sz.Big)
	switch kernel {
	case "reduce":
		return 8 * n
	case "inclusive_scan":
		return 16 * n
	case "find":
		return 8 * float64(b.findPos+1)
	case "fused_chain":
		return float64(pipeline.From(b.in).Transform(b.chainF).Transform(b.chainG).ModelTraffic(8, "reduce").Fused)
	}
	return 0
}

// runBulkCall times one call of kernel under p and checks its output.
// Work that is not part of the call (restoring inputs) happens before the
// clock starts. It returns when the call started, how long it took, and
// an error when the output did not match the oracle.
func (b *bulkInputs) runBulkCall(p core.Policy, kernel string, fullCheck bool) (time.Time, time.Duration, error) {
	var t0 time.Time
	var d time.Duration
	switch kernel {
	case "reduce":
		t0 = time.Now()
		got := core.Sum(p, b.in, 0)
		d = time.Since(t0)
		if got != b.sum {
			return t0, d, fmt.Errorf("reduce = %v, sequential core = %v", got, b.sum)
		}
	case "inclusive_scan":
		b.out[len(b.out)-1] = -1
		t0 = time.Now()
		core.InclusiveSum(p, b.out, b.in)
		d = time.Since(t0)
		if fullCheck {
			if h := digest(b.out); h != b.scanHash {
				return t0, d, fmt.Errorf("inclusive_scan digest %x, sequential core %x", h, b.scanHash)
			}
		} else if last := b.out[len(b.out)-1]; last != b.sum {
			return t0, d, fmt.Errorf("inclusive_scan last = %v, want %v", last, b.sum)
		}
	case "find":
		t0 = time.Now()
		got := core.Find(p, b.in, findTarget)
		d = time.Since(t0)
		if got != b.findPos {
			return t0, d, fmt.Errorf("find = %d, seeded index %d", got, b.findPos)
		}
	case "for_each":
		copy(b.feData, b.feInit)
		t0 = time.Now()
		core.ForEach(p, b.feData, b.forEachFn)
		d = time.Since(t0)
		want := float64(b.sz.KIt)
		for i, v := range b.feData {
			if v != want {
				return t0, d, fmt.Errorf("for_each[%d] = %v, want %v", i, v, want)
			}
		}
	case "sort":
		copy(b.sortWork, b.sortIn)
		t0 = time.Now()
		core.Sort(p, b.sortWork)
		d = time.Since(t0)
		if !slices.Equal(b.sortWork, b.sortRef) {
			return t0, d, fmt.Errorf("sort differs from slices.Sort")
		}
	case "fused_chain":
		t0 = time.Now()
		got := pipeline.Sum(p, pipeline.From(b.in).Transform(b.chainF).Transform(b.chainG), 0)
		d = time.Since(t0)
		if got != b.chain {
			return t0, d, fmt.Errorf("fused chain = %v, staged chain = %v", got, b.chain)
		}
	default:
		return t0, 0, fmt.Errorf("unknown bulk kernel %q", kernel)
	}
	return t0, d, nil
}

// bulkRate turns a kernel's median call time into its throughput metric.
func (b *bulkInputs) bulkRate(kernel string, sec float64) (string, float64, string) {
	switch kernel {
	case "for_each":
		return "for_each_melem_s", float64(b.sz.ForEach) / sec / 1e6, "Melem/s"
	case "sort":
		return "sort_melem_s", float64(b.sz.Sort) / sec / 1e6, "Melem/s"
	case "fused_chain":
		return "fused_chain_gbs", b.bulkBytes(kernel) / sec / 1e9, "GB/s"
	}
	return kernel + "_gbs", b.bulkBytes(kernel) / sec / 1e9, "GB/s"
}

const bulkWorkers = 2

// setupsPerRound is how many pools a bulk run sets up (and closes) per
// closed-loop round; setup_s is the median. One set-up takes tens of
// microseconds, and a run makes about eight rounds.
const setupsPerRound = 13

// smallCallSizes are the sizes of the dispatch-bound closed loop behind
// bulk's max_rate_per_s: the same six calls, each small enough that the
// pool's fork, join and wake-up costs outweigh the kernel work.
var smallCallSizes = bulkSizes{Big: 4096, ForEach: 4096, KIt: 1, Sort: 4096}

// smallCallShare is the share of a bulk run spent on that loop.
const smallCallShare = 0.1

// rateWindow is the length of the windows whose call rates bulk's
// max_rate_per_s takes the median of.
const rateWindow = 100 * time.Millisecond

// runBulk is the bulk workload: a single caller runs a closed loop of
// library calls, one at a time, into a 2-worker stealing pool.
func runBulk(cfg config, rep *report) error {
	sz := bulkSizesFor(cfg.smoke)
	rep.notef("bulk: closed loop, 1 caller, %d-worker stealing pool; n=%d (reduce/scan/find/chain, %d MiB per array), for_each n=%d k_it=%d, sort n=%d",
		bulkWorkers, sz.Big, sz.Big*8>>20, sz.ForEach, sz.KIt, sz.Sort)
	in := newBulkInputs(cfg.seed, sz)
	small := newBulkInputs(cfg.seed, smallCallSizes)
	small.computeOracles(core.Seq())

	// Set-up: pool creation plus one small warm-up call. The first pool is
	// the one under test; more are set up and closed between the rounds
	// below, so that setup_s is a median over the whole run.
	var setups []float64
	setUp := func() *native.Pool {
		t0 := time.Now()
		pool := native.New(bulkWorkers, native.StrategyStealing)
		got := core.Sum(core.Par(pool), small.in, 0)
		setups = append(setups, time.Since(t0).Seconds())
		if got != small.sum {
			rep.mismatchf("bulk set-up reduce = %v, sequential core = %v", got, small.sum)
		}
		return pool
	}
	pool := setUp()
	defer pool.Close()
	p := core.Par(pool)
	in.computeOracles(p)

	// Dispatch-bound closed loop: call rate per window. A window or call
	// during which more than stealMax of the CPU time was stolen is set
	// aside while at least half are clean.
	var rates, rateSteal []float64
	loopEnd := time.Now().Add(time.Duration(float64(cfg.measure()) * smallCallShare))
	for time.Now().Before(loopEnd) {
		calls, w0, m := 0, time.Now(), newStealMeter()
		for time.Since(w0) < rateWindow {
			for _, k := range bulkKernels {
				rep.Attempted++
				if _, _, err := small.runBulkCall(p, k, true); err != nil {
					rep.failf("bulk small %s: %v", k, err)
					continue
				}
				calls++
			}
		}
		rates = append(rates, float64(calls)/time.Since(w0).Seconds())
		rateSteal = append(rateSteal, m.share())
	}

	times, steal := make(map[string][]float64), make(map[string][]float64)
	deadline := time.Now().Add(cfg.measure() - time.Duration(float64(cfg.measure())*smallCallShare))
	for round := 0; round < minBulkRounds || time.Now().Before(deadline); round++ {
		for i := 0; i < setupsPerRound; i++ {
			setUp().Close()
		}
		for _, k := range bulkKernels {
			rep.Attempted++
			m := newStealMeter()
			_, d, err := in.runBulkCall(p, k, round == 0)
			if err != nil {
				rep.failf("bulk %s: %v", k, err)
				continue
			}
			times[k] = append(times[k], d.Seconds())
			steal[k] = append(steal[k], m.share())
		}
	}

	var medians []float64
	slowest, aside, timed := 0.0, 0, 0
	for _, k := range bulkKernels {
		ds := summarize(times[k])
		clean, n := cleanSamples(times[k], steal[k])
		ds.P50, aside, timed = stats.Median(clean), aside+n, timed+len(times[k])
		if ds.N == 0 {
			ds.P50, ds.Max = math.NaN(), math.NaN() // every call mismatched
		}
		name, v, unit := in.bulkRate(k, ds.P50)
		rep.extra(name, v, unit)
		rep.notef("bulk %-15s calls=%d median %.3f ms, max %.3f ms -> %s = %.4g %s", k, ds.N, ds.P50*1e3, ds.Max*1e3, name, v, unit)
		medians = append(medians, ds.P50)
		slowest += ds.Max
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	rep.extra("error_rate", float64(rep.Failed)/float64(max(1, rep.Attempted)), "ratio")
	rep.set("setup_s", stats.Median(setups), "s")
	rep.set("peak_rss_mb", rss, "MB")
	rep.set("p50_ms", stats.GeoMean(medians)*1e3, "ms") // NaN if a kernel has no sample
	rep.extra("p99_ms", slowest*1e3, "ms")
	cleanRates, n := cleanSamples(rates, rateSteal)
	rep.set("max_rate_per_s", medianOrNaN(cleanRates), "1/s")
	rep.notef("bulk steal: set aside %d of %d timed calls and %d of %d rate windows measured with more than %.0f%% of the CPU time stolen",
		aside, timed, n, len(rates), stealMax*100)
	rep.notef("bulk p50_ms = geometric mean of the %d calls' median times, so each kernel weighs the same; p99_ms = sum of their slowest calls", len(bulkKernels))
	rep.notef("bulk max_rate_per_s = median over %d windows of %v of the calls/s a closed loop of the same calls at n=%d (for_each k_it=%d) sustains",
		len(rates), rateWindow, smallCallSizes.Big, smallCallSizes.KIt)
	return nil
}
