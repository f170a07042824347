package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func names(xs []struct{ Name string }) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x.Name)
	}
	return out
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	all := append(append([]string(nil), endToEnd...), perLayer...)
	for _, ex := range extraByWorkload {
		all = append(all, ex...)
	}
	for _, n := range all {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
	}
	seen := map[string]bool{}
	for _, n := range append(append([]string(nil), endToEnd...), perLayer...) {
		if seen[n] {
			t.Errorf("metric %q listed twice", n)
		}
		seen[n] = true
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if got := names(bj.Workloads); !reflect.DeepEqual(got, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, workloads)
	}
	if got := names(bj.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", got, endToEnd)
	}
	if got := names(bj.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", got, perLayer)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, mix := range []mixFunc{smallJobsMix, mixedMix} {
		a := poissonSchedule(7, 1, 500, time.Second, mix)
		b := poissonSchedule(7, 1, 500, time.Second, mix)
		c := poissonSchedule(8, 1, 500, time.Second, mix)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("same seed gave different arrival schedules")
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("different seeds gave the same arrival schedule")
		}
	}
	sz := bulkSizesFor(true)
	x, y, z := newBulkInputs(3, sz), newBulkInputs(3, sz), newBulkInputs(4, sz)
	if digest(x.in) != digest(y.in) || x.findPos != y.findPos || digest(x.sortIn) != digest(y.sortIn) || digest(x.feInit) != digest(y.feInit) {
		t.Fatalf("same seed gave different bulk inputs")
	}
	if digest(x.in) == digest(z.in) {
		t.Fatalf("different seeds gave the same bulk inputs")
	}
	f1, err := newFlowTrace(streamSpec, "s", 1000, 100_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := newFlowTrace(streamSpec, "s", 1000, 100_000, 9)
	if !reflect.DeepEqual(f1.ts, f2.ts) || !reflect.DeepEqual(f1.val, f2.val) || !reflect.DeepEqual(f1.closeAt, f2.closeAt) {
		t.Fatalf("same seed gave different event traces")
	}
}

func TestFixedScheduleSamples(t *testing.T) {
	dur := time.Duration(20 * mixedSpec.FixedShare * float64(time.Second))
	for seed := int64(1); seed <= 50; seed++ {
		light := 0
		for _, j := range fixedSchedule(seed, mixedSpec, dur, minFixedSamples) {
			if !j.Heavy {
				light++
			}
		}
		if light < minFixedSamples {
			t.Errorf("seed %d: %d light jobs in the fixed-rate phase, want >= %d", seed, light, minFixedSamples)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []tspan{
		{"a", "root", 0, 100, -1},
		{"b", "child", 10, 40, 0},
		{"b", "child", 30, 60, 0},
		{"c", "leaf", 35, 45, 1},
	}
	st := selfTimes(spans)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6 }
	// Root: 100 minus the children's union [10,60].
	if got := st["a"][0] * 1e9; !near(got, 50) {
		t.Errorf("root self %v ns, want 50", got)
	}
	// First child: 30 minus the leaf [35,40] clipped to it; second: 30.
	if got := st["b"][0] * 1e9; !near(got, 55) {
		t.Errorf("children self %v ns, want 55", got)
	}
	if got := st["c"][1]; got != 1 {
		t.Errorf("leaf count %v, want 1", got)
	}
}

func TestRateSearch(t *testing.T) {
	// A step's score grows with its rate and crosses 1 at the capacity.
	capacity := func(c float64, calls *int) func(int, float64) (float64, error) {
		return func(_ int, rate float64) (float64, error) {
			*calls++
			return rate / c, nil
		}
	}
	var calls int
	got, err := rateSearch(context.Background(), 500, 0.1, 12800, 5, 3, capacity(5000, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got/5000-1) > 0.01 {
		t.Errorf("capacity 5000 found as %v", got)
	}
	if want := searchSteps(5, 3); calls != want {
		t.Errorf("%d steps, want %d", calls, want)
	}
	// A fixed-rate phase that failed sends the search below the fixed rate.
	if got, _ := rateSearch(context.Background(), 500, 1.25, 12800, 5, 3, capacity(400, new(int))); math.Abs(got/400-1) > 0.01 {
		t.Errorf("capacity 400 below the fixed rate found as %v", got)
	}
	// Nothing passes: 0, after steps halvings.
	calls = 0
	never := func(int, float64) (float64, error) { calls++; return math.Inf(1), nil }
	if got, _ := rateSearch(context.Background(), 500, 2, 12800, 5, 3, never); got != 0 || calls != 5 {
		t.Errorf("nothing passing gave %v after %d steps, want 0 after 5", got, calls)
	}
	// Every step fails outright: only the fixed rate passed.
	allFail := func(int, float64) (float64, error) { return math.Inf(1), nil }
	if got, _ := rateSearch(context.Background(), 500, 0.5, 12800, 5, 3, allFail); got != 500 {
		t.Errorf("only the fixed rate passing gave %v, want 500", got)
	}
	// One round thrown by contention does not decide the result.
	calls = 0
	noisy := func(s int, rate float64) (float64, error) {
		if s < 5 {
			return rate / 2000, nil
		}
		return rate / 5000, nil
	}
	if got, _ := rateSearch(context.Background(), 500, 0.1, 12800, 5, 3, noisy); math.Abs(got/5000-1) > 0.01 {
		t.Errorf("one slow round moved the median to %v", got)
	}
}

func TestRefineSearch(t *testing.T) {
	capacity := func(c float64, rates *[]float64) func(int, float64) (float64, float64, error) {
		return func(_ int, rate float64) (float64, float64, error) {
			*rates = append(*rates, rate)
			return rate / c, 0, nil
		}
	}
	var rates []float64
	got, aside, err := refineSearch(context.Background(), 50e3, 0.01, 16e6, 5, 6, 2, 1.5, capacity(5e6, &rates))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got/5e6-1) > 0.01 || aside != 0 {
		t.Errorf("capacity 5e6 found as %v, %d rounds set aside", got, aside)
	}
	if want := refineSteps(5, 6, 2); len(rates) != want {
		t.Errorf("%d steps, want %d", len(rates), want)
	}
	// After the first round, every step is within the span of the limit.
	for i, r := range rates[5:] {
		if r < 5e6/1.5 || r > 5e6*1.5 {
			t.Errorf("step %d at %v, outside the span around 5e6", 5+i, r)
		}
	}
	// A first round thrown low by contention is walked back from.
	slowFirst := func(s int, rate float64) (float64, float64, error) {
		if s < 5 {
			return rate / 2e6, 0, nil
		}
		return rate / 5e6, 0, nil
	}
	if got, _, _ := refineSearch(context.Background(), 50e3, 0.01, 16e6, 5, 6, 2, 1.5, slowFirst); math.Abs(got/5e6-1) > 0.01 {
		t.Errorf("one slow first round moved the median to %v", got)
	}
	// Rounds measured while CPU time was stolen are set aside: here the
	// last two of five, slowed to 3e6, would otherwise decide the median.
	stolen := func(s int, rate float64) (float64, float64, error) {
		if s >= 5+3*2 {
			return rate / 3e6, 0.2, nil
		}
		return rate / 5e6, 0, nil
	}
	if got, aside, _ := refineSearch(context.Background(), 50e3, 0.01, 16e6, 5, 6, 2, 1.5, stolen); math.Abs(got/5e6-1) > 0.01 || aside != 2 {
		t.Errorf("stolen rounds gave %v with %d set aside, want 5e6 with 2", got, aside)
	}
	// Nothing above the fixed rate passes: the span stops at the fixed rate.
	allFail := func(int, float64) (float64, float64, error) { return math.Inf(1), 0, nil }
	if got, _, _ := refineSearch(context.Background(), 500, 0.5, 12800, 5, 6, 2, 1.5, allFail); got != 500 {
		t.Errorf("only the fixed rate passing gave %v, want 500", got)
	}
}

func TestPercentileWithMisses(t *testing.T) {
	lat := []float64{4, 1, 3, 2}
	if got := percentileWithMisses(lat, 0, 0.5); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := percentileWithMisses(lat, 1, 0.5); got != 3 {
		t.Errorf("median with one miss %v, want 3", got)
	}
	if got := percentileWithMisses(lat, 1, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a miss %v, want +Inf", got)
	}
	if got := percentileWithMisses(nil, 0, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample %v, want NaN", got)
	}
}

func TestStealClean(t *testing.T) {
	xs, steal := []float64{1, 2, 3, 4}, []float64{0, 0.2, 0, 0.01}
	if kept, aside := cleanSamples(xs, steal); !reflect.DeepEqual(kept, []float64{1, 3, 4}) || aside != 1 {
		t.Errorf("kept %v, set aside %d", kept, aside)
	}
	// Fewer than half clean: keep everything.
	if kept, aside := cleanSamples(xs, []float64{1, 1, 1, 0}); len(kept) != 4 || aside != 0 {
		t.Errorf("mostly stolen: kept %v, set aside %d", kept, aside)
	}
	// Latencies and misses take their window's share; the second window
	// (0.25 s to 0.5 s) is stolen.
	lat, misses, aside := stealClean([]float64{5, 6, 7}, []float64{0.1, 0.3, 0.6}, []float64{0.4, 0.7}, []float64{0, 0.5, 0})
	if !reflect.DeepEqual(lat, []float64{5, 7}) || misses != 1 || aside != 2 {
		t.Errorf("kept %v and %d misses, set aside %d", lat, misses, aside)
	}
}

// buildPstld builds the daemon the HTTP workloads drive.
func buildPstld(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pstld")
	cmd := exec.Command("go", "build", "-o", bin, "pstlbench/cmd/pstld")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build pstld: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeWorkloads runs every workload at smoke size, untraced and (for
// one) traced, and requires every oracle to pass and every named metric
// to be present.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs start daemons")
	}
	pstld := buildPstld(t)
	for _, w := range workloads {
		cfg := config{workload: w, seed: 5, seconds: 1.5, smoke: true, root: "..", pstld: pstld, outDir: t.TempDir()}
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.Mismatch != 0 || rep.Attempted == 0 {
			t.Fatalf("%s: %d oracle mismatches in %d operations: %v", w, rep.Mismatch, rep.Attempted, rep.Notes)
		}
		for _, n := range endToEnd {
			if v := rep.Metrics[n].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, n, v)
			}
		}
	}
	cfg := config{workload: "stream", seed: 5, seconds: 1, smoke: true, trace: true, root: "..", pstld: pstld, outDir: t.TempDir()}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if rep.Mismatch != 0 {
		t.Fatalf("traced: %d oracle mismatches: %v", rep.Mismatch, rep.Notes)
	}
	traces, _ := filepath.Glob(filepath.Join(cfg.outDir, "trace-*.json"))
	if len(traces) != 1 {
		t.Fatalf("traced run wrote %d Chrome traces, want 1", len(traces))
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := savedResult{Workload: "bulk", Fingerprint: fingerprint{NProc: 2, CPUModel: "x", Commit: "aaaaaaaaaaaa"}}
	b := a
	b.Fingerprint.NProc = 4
	if err := compareResults(a, b); err == nil {
		t.Fatal("compare accepted results from different hosts")
	}
	b = a
	b.Fingerprint.Commit = "bbbbbbbbbbbb"
	if err := compareResults(a, b); err != nil {
		t.Fatalf("compare refused results from the same host: %v", err)
	}
}
