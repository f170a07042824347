package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pstlbench/internal/stats"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, the human-readable lines printed
// before the final JSON line, and the correctness counters.
type report struct {
	Attempted int
	Failed    int
	Mismatch  int // oracle mismatches; any one fails the run
	// Metrics are the gated metrics of the final JSON line; Extra are the
	// workload's other named metrics, printed and saved but not gated.
	Metrics map[string]metric
	Extra   map[string]metric
	Notes   []string
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, Extra: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) extra(name string, v float64, unit string) {
	r.Extra[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// mismatchf records an oracle mismatch of an operation not otherwise
// counted: it counts as attempted and failed and makes the run incorrect.
func (r *report) mismatchf(format string, args ...any) {
	r.Attempted++
	r.Failed++
	r.flagf(format, args...)
}

// failf records an oracle mismatch of an operation already counted as
// attempted: it counts as failed and makes the run incorrect.
func (r *report) failf(format string, args ...any) {
	r.Failed++
	r.flagf(format, args...)
}

// flagf records an oracle mismatch of an operation already counted as
// attempted and failed; it makes the run incorrect.
func (r *report) flagf(format string, args ...any) {
	r.Mismatch++
	r.notef("ORACLE MISMATCH: "+format, args...)
}

// dist summarizes a sample of durations (or any values).
type dist struct {
	N      int
	P50    float64
	Tail   float64 // highest percentile with >= 10 samples beyond it
	TailPc float64 // that percentile, e.g. 99 or 90
	Max    float64
}

// medianOrNaN is stats.Median, but NaN for an empty sample, so that run
// rejects a metric that got no samples instead of reporting 0.
func medianOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Median(xs)
}

// tailPercentile is the highest of 99.9, 99, 90, 75 and 50 that leaves
// at least ten samples beyond it in a sample of n.
func tailPercentile(n int) float64 {
	for _, pc := range []float64{99.9, 99, 90, 75} {
		if float64(n)*(1-pc/100) >= 10 {
			return pc
		}
	}
	return 50
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pc := tailPercentile(len(s))
	return dist{N: len(s), P50: stats.PercentileSorted(s, 0.5), Tail: stats.PercentileSorted(s, pc/100), TailPc: pc, Max: s[len(s)-1]}
}

// percentileWithMisses returns the q-quantile of latencies where each
// missed (failed or refused) request counts as +Inf, i.e. as missing any
// latency limit. It is NaN for an empty sample.
func percentileWithMisses(lat []float64, misses int, q float64) float64 {
	n := len(lat) + misses
	if n == 0 {
		return math.NaN()
	}
	// The misses sort last; a quantile whose interpolation reaches one of
	// them is +Inf.
	pos := q * float64(n-1)
	if int(math.Ceil(pos)) >= len(lat) {
		return math.Inf(1)
	}
	if len(lat) == 1 {
		return lat[0]
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	return stats.PercentileSorted(s, pos/float64(len(s)-1))
}

// stealMax is the largest share of the host's CPU time that the
// hypervisor may have given to other guests (steal time in /proc/stat)
// while a sample was measured. A sample measured while more was stolen
// tells more about the neighbours on a shared host than about the code,
// so it is set aside, and counted, as long as at least half the samples
// are clean.
const stealMax = 0.05

// cpuTicks reads the host's total and stolen CPU time, in USER_HZ ticks.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i := 1; i < len(f) && i <= 8; i++ {
		n, _ := strconv.ParseUint(f[i], 10, 64)
		total += n
		if i == 8 {
			steal = n
		}
	}
	return total, steal
}

// stealMeter measures the stolen share of CPU time since it was made.
type stealMeter struct{ total, steal uint64 }

func newStealMeter() stealMeter {
	t, s := cpuTicks()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := cpuTicks()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// stealWatch samples the stolen share of CPU time in consecutive windows
// of p99Window until stop is called.
type stealWatch struct {
	shares     []float64
	quit, done chan struct{}
}

func watchSteal() *stealWatch {
	w := &stealWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		m := newStealMeter()
		tk := time.NewTicker(p99Window)
		defer tk.Stop()
		for {
			select {
			case <-w.quit:
				return
			case <-tk.C:
				w.shares = append(w.shares, m.share())
				m = newStealMeter()
			}
		}
	}()
	return w
}

func (w *stealWatch) stop() []float64 {
	close(w.quit)
	<-w.done
	return w.shares
}

// fmtSteal describes a phase's stolen share of CPU time per window.
func fmtSteal(steal []float64) string {
	mean, worst := stats.Mean(steal)*100, 0.0
	for _, v := range steal {
		worst = max(worst, v*100)
	}
	return fmt.Sprintf("CPU time stolen per %v window: mean %.2f%%, max %.2f%% (n=%d)", p99Window, mean, worst, len(steal))
}

// cleanSamples keeps the samples xs[i] whose stolen share steal[i] is at
// most stealMax, or all of them when that would keep fewer than half. It
// also returns how many it set aside.
func cleanSamples(xs, steal []float64) ([]float64, int) {
	var kept []float64
	for i, x := range xs {
		if steal[i] <= stealMax {
			kept = append(kept, x)
		}
	}
	if 2*len(kept) < len(xs) {
		return xs, 0
	}
	return kept, len(xs) - len(kept)
}

// stealClean applies cleanSamples to a phase's latencies and misses, each
// taking the stolen share of the window (of steal, one per p99Window from
// the phase start) that its offset (latT, missT, seconds) falls in. It
// returns the kept latencies, the kept misses and how many it set aside.
func stealClean(lat, latT, missT, steal []float64) ([]float64, int, int) {
	at := func(t float64) float64 {
		if i := int(t / p99Window.Seconds()); i >= 0 && i < len(steal) {
			return steal[i]
		}
		return 0
	}
	xs, st := append([]float64(nil), lat...), make([]float64, 0, len(lat)+len(missT))
	for _, t := range latT {
		st = append(st, at(t))
	}
	for _, t := range missT {
		xs, st = append(xs, math.Inf(1)), append(st, at(t))
	}
	kept, aside := cleanSamples(xs, st)
	var out []float64
	misses := 0
	for _, x := range kept {
		if math.IsInf(x, 1) {
			misses++
		} else {
			out = append(out, x)
		}
	}
	return out, misses, aside
}

// peakRSSMB reads VmHWM of a process (0 = self) in MB (10^6 bytes).
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err != nil {
					return 0, err
				}
				return kb * 1024 / 1e6, nil
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found in %s", path)
}

// cpuSeconds reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return (ut + st) / 100, nil // USER_HZ is 100 on Linux
}

// fingerprint identifies the host and code a result came from. Results
// are only comparable when every host field matches.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	LLC        string `json:"llc"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

// hostKey is the part of the fingerprint that must match for two results
// to be compared; the commit is expected to differ.
func (f fingerprint) hostKey() string {
	return fmt.Sprintf("%d|%d|%s|%s|%s|%s", f.NProc, f.GOMAXPROCS, f.CPUModel, f.LLC, f.GoVersion, f.Kernel)
}

func hostFingerprint(root string) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LLC:        "unknown",
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					fp.CPUModel = strings.TrimSpace(line[i+1:])
					break
				}
			}
		}
	}
	fp.LLC = llcSize()
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	fp.Commit = sourceCommit(root)
	return fp
}

// llcSize reports the largest cache level's size from sysfs.
func llcSize() string {
	best, bestLevel := "unknown", -1
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lb, err1 := os.ReadFile(filepath.Join(d, "level"))
		sb, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		lvl, err := strconv.Atoi(strings.TrimSpace(string(lb)))
		if err == nil && lvl > bestLevel {
			bestLevel, best = lvl, fmt.Sprintf("L%d %s", lvl, strings.TrimSpace(string(sb)))
		}
	}
	return best
}

// sourceCommit names the code under test: the git commit when the tree is
// a repository, else a digest of the Go sources and module file outside
// the benchmark's own directory.
func sourceCommit(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel == "perfbench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(p)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// savedResult is what a run writes beside its output for later comparison.
type savedResult struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Time        string            `json:"time"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
}

func saveResult(path string, r savedResult) error {
	r.Time = time.Now().UTC().Format(time.RFC3339)
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(r.Metrics, n) // no samples: JSON has no NaN
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func loadResult(path string) (savedResult, error) {
	var r savedResult
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("parse %s: %w", path, err)
	}
	return r, nil
}

// compareResults prints the relative change of every shared metric from a
// to b. It refuses results whose host fingerprints differ, since numbers
// from another host are not evidence.
func compareResults(a, b savedResult) error {
	if a.Fingerprint.hostKey() != b.Fingerprint.hostKey() {
		return fmt.Errorf("refusing to compare: host fingerprints differ:\n  %+v\n  %+v", a.Fingerprint, b.Fingerprint)
	}
	if a.Workload != b.Workload {
		return fmt.Errorf("refusing to compare: workloads differ (%s vs %s)", a.Workload, b.Workload)
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-40s %14s %14s %9s\n", "metric", a.Fingerprint.Commit[:min(12, len(a.Fingerprint.Commit))], b.Fingerprint.Commit[:min(12, len(b.Fingerprint.Commit))], "change")
	for _, n := range names {
		va, vb := a.Metrics[n].Value, b.Metrics[n].Value
		ch := "n/a"
		if va != 0 {
			ch = fmt.Sprintf("%+.1f%%", (vb-va)/va*100)
		}
		fmt.Printf("%-40s %14.6g %14.6g %9s %s\n", n, va, vb, ch, a.Metrics[n].Unit)
	}
	return nil
}

// rng is a small deterministic generator (splitmix64) so inputs depend
// only on the seed, never on the Go release's math/rand streams.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }
