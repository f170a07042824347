package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pstlbench/internal/obs"
	"pstlbench/internal/serve"
	"pstlbench/internal/shard"
	"pstlbench/internal/stats"
)

// daemon is one pstld process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *syncBuffer
	done   chan struct{}
}

// syncBuffer is a bytes.Buffer safe for the exec copier and readers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs pstld with args and waits for the first 200 from
// /healthz. It returns the daemon and the time from exec to that answer.
func startDaemon(bin string, args []string, env []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{base: "http://" + addr, stderr: &syncBuffer{}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = d.stderr
	d.cmd.Env = append(os.Environ(), env...)
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start pstld: %w", err)
	}
	go func() { _ = d.cmd.Wait(); close(d.done) }()
	client := &http.Client{Timeout: time.Second}
	deadline := t0.Add(20 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("pstld exited during start-up: %s", d.stderr.String())
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("pstld not healthy after 20s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills after a grace period.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// httpJob is one scheduled request of an open-loop arrival schedule.
type httpJob struct {
	Due    time.Duration // offset from the phase start
	Tenant string
	Kernel string
	N      int
	Heavy  bool
}

// mixFunc draws the class of the i-th arrival, from the seeded generator
// where the mix is random.
type mixFunc func(i int, r *rng) httpJob

// poissonSchedule returns Poisson arrivals at rate per second over dur.
func poissonSchedule(seed int64, stream uint64, rate float64, dur time.Duration, mix mixFunc) []httpJob {
	r := newRNG(seed, stream)
	var jobs []httpJob
	t := 0.0
	for {
		t += r.exp(1 / rate)
		if t >= dur.Seconds() {
			return jobs
		}
		j := mix(len(jobs), r)
		j.Due = time.Duration(t * float64(time.Second))
		jobs = append(jobs, j)
	}
}

// minFixedSamples is the fewest latency samples (light jobs, in mixed) a
// gated fixed-rate phase collects.
const minFixedSamples = 1000

// fixedSchedule is the fixed-rate phase's Poisson arrivals over dur,
// extended past dur until it holds minLight light jobs.
func fixedSchedule(seed int64, spec httpSpec, dur time.Duration, minLight int) []httpJob {
	// A longer schedule from the same seed starts with the same arrivals.
	jobs := poissonSchedule(seed, 1, spec.FixedRate, 2*dur, spec.Mix)
	light := 0
	for i, j := range jobs {
		if j.Due >= dur && light >= minLight {
			return jobs[:i]
		}
		if !j.Heavy {
			light++
		}
	}
	return jobs
}

// smallJobsMix is reduce and find at n=4096, 50/50, over 4 tenants.
func smallJobsMix(_ int, r *rng) httpJob {
	k := "reduce"
	if r.intn(2) == 1 {
		k = "find"
	}
	return httpJob{Tenant: fmt.Sprintf("t%d", r.intn(4)), Kernel: k, N: 4096}
}

// mixedMix is 2 heavy tenants (sort 2^20, scan 2^22) and 4 light tenants
// (reduce 16384) in a fixed mix: every 21st arrival is heavy, sort and
// scan in turn, so 20 light jobs arrive per heavy job.
func mixedMix(i int, r *rng) httpJob {
	if i%21 == 20 {
		if i/21%2 == 0 {
			return httpJob{Tenant: "heavy0", Kernel: "sort", N: 1 << 20, Heavy: true}
		}
		return httpJob{Tenant: "heavy1", Kernel: "scan", N: 1 << 22, Heavy: true}
	}
	return httpJob{Tenant: fmt.Sprintf("light%d", r.intn(4)), Kernel: "reduce", N: 16384}
}

// jobOutcome is the client's record of one request.
type jobOutcome struct {
	Job        httpJob
	ID         string
	SubmitAt   time.Time // when the submit was sent
	SubmitRTT  time.Duration
	DoneAt     time.Time // when the poller saw the terminal state
	State      string
	Checksum   float64
	Err        string
	DueAbs     time.Time
	LateBy     time.Duration
	nextPoll   time.Time
	submitOK   bool
	terminated bool
}

// phaseResult summarizes one open-loop phase.
type phaseResult struct {
	Rate       float64
	Outcomes   []*jobOutcome
	Lat        []float64 // seconds, light (or all) jobs completed
	LatT       []float64 // due offset of each Lat sample, seconds
	MissT      []float64 // due offset of each light (or all) miss
	HeavyLat   []float64
	Misses     int // light (or all) jobs failed, refused or never finished
	HeavyMiss  int
	Mismatches []string
	PollRTT    []float64
	Polls      int
	Useful     int
	// Steal is the stolen share of CPU time in each p99Window from the
	// phase start.
	Steal []float64
	// DrainLag is how long after the last arrival the last job finished,
	// in seconds; +Inf if some job was still unfinished when the phase gave
	// up waiting.
	DrainLag float64
}

func (p *phaseResult) failed() int { return p.Misses + p.HeavyMiss }

// loadClient drives a daemon with one submitting and one polling
// connection.
type loadClient struct {
	base     string
	submit   *http.Client
	poll     *http.Client
	expected map[string]float64 // kernel/n -> serve.ExpectedChecksum
}

func newLoadClient(base string) *loadClient {
	mk := func() *http.Client {
		return &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return &loadClient{base: base, submit: mk(), poll: mk(), expected: map[string]float64{}}
}

func (c *loadClient) close() {
	c.submit.CloseIdleConnections()
	c.poll.CloseIdleConnections()
}

func expectKey(kernel string, n int) string { return kernel + "/" + strconv.Itoa(n) }

// prepareOracle computes serve.ExpectedChecksum for every (kernel, n) a
// schedule uses, before the phase starts.
func (c *loadClient) prepareOracle(jobs []httpJob) {
	for _, j := range jobs {
		k := expectKey(j.Kernel, j.N)
		if _, ok := c.expected[k]; !ok {
			c.expected[k] = serve.ExpectedChecksum(j.Kernel, j.N)
		}
	}
}

// pollBackoff spaces the polls of one job: after a poll that finds it
// unfinished, the poller waits 1/pollBackoff of the job's age before asking
// again. A job is then seen done at most about 3 % of its latency late,
// and the jobs that run long do not lengthen the poll cycle in which the
// short ones are found done. Gaps below minPollGap, shorter than one poll's
// round trip, are not waited for.
const (
	pollBackoff = 32
	minPollGap  = 250 * time.Microsecond
)

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// run executes one open-loop phase: the submitter sends each job at its
// due time (or at once when behind schedule), the poller issues GET
// /jobs/{id} back to back for the outstanding jobs that are due a poll
// (see pollBackoff). Latency runs from the due time to when the poller
// sees the terminal state. Jobs not done drain after the schedule ends are
// counted as missed; the poller keeps watching them until patience has
// passed, to measure the drain lag.
func (c *loadClient) run(jobs []httpJob, rate float64, drain, patience time.Duration) *phaseResult {
	c.prepareOracle(jobs)
	runtime.GC() // the previous phase's garbage is not collected mid-phase
	res := &phaseResult{Rate: rate}
	outs := make([]*jobOutcome, len(jobs))
	for i := range jobs {
		outs[i] = &jobOutcome{Job: jobs[i]}
	}
	res.Outcomes = outs
	handoff := make(chan *jobOutcome, len(jobs)) // sized to every send
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	steal := watchSteal()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(handoff)
		for _, o := range outs {
			o.DueAbs = start.Add(o.Job.Due)
			if wait := time.Until(o.DueAbs); wait > 0 {
				time.Sleep(wait)
			}
			o.SubmitAt = time.Now()
			o.LateBy = o.SubmitAt.Sub(o.DueAbs)
			c.submitOne(o)
			o.SubmitRTT = time.Since(o.SubmitAt)
			if o.submitOK {
				handoff <- o
			} else {
				o.terminated = true
			}
		}
	}()
	var schedEnd time.Time
	if len(jobs) > 0 {
		schedEnd = start.Add(jobs[len(jobs)-1].Due)
	} else {
		schedEnd = start
	}
	drainBy, giveUp := schedEnd.Add(drain), schedEnd.Add(max(drain, patience))
	var pending []*jobOutcome
	open := true
	for open || len(pending) > 0 {
		// Take new submissions; block only when nothing is outstanding.
		if len(pending) == 0 && open {
			o, ok := <-handoff
			if !ok {
				open = false
				continue
			}
			pending = append(pending, o)
		}
		for more := open; more; {
			select {
			case o, ok := <-handoff:
				if !ok {
					open, more = false, false
				} else {
					pending = append(pending, o)
				}
			default:
				more = false
			}
		}
		if !open && time.Now().After(giveUp) {
			break
		}
		kept, polled, next := pending[:0], false, giveUp
		for _, o := range pending {
			if time.Now().Before(o.nextPoll) {
				kept = append(kept, o)
				next = minTime(next, o.nextPoll)
				continue
			}
			polled = true
			if c.pollOne(o, res) {
				continue
			}
			if gap := time.Since(o.SubmitAt) / pollBackoff; gap >= minPollGap {
				o.nextPoll = time.Now().Add(gap)
			}
			kept = append(kept, o)
			next = minTime(next, o.nextPoll)
		}
		pending = kept
		if !polled && len(pending) > 0 {
			// Nothing was due: sleep until the next poll or submission.
			timer := time.NewTimer(time.Until(next))
			if open {
				select {
				case o, ok := <-handoff:
					if !ok {
						open = false
					} else {
						pending = append(pending, o)
					}
				case <-timer.C:
				}
			} else {
				<-timer.C
			}
			timer.Stop()
		}
	}
	wg.Wait()
	res.Steal = steal.stop()
	res.DrainLag = math.Inf(1)
	if len(pending) == 0 {
		res.DrainLag = 0
		for _, o := range outs {
			if o.terminated && !o.DoneAt.IsZero() {
				res.DrainLag = max(res.DrainLag, o.DoneAt.Sub(schedEnd).Seconds())
			}
		}
	}
	for _, o := range pending {
		o.Err = "unfinished at drain deadline"
	}
	for _, o := range outs {
		if o.Err == "" && o.DoneAt.After(drainBy) {
			o.Err = "finished after the drain deadline"
		}
	}
	for _, o := range outs {
		ok := o.terminated && o.State == "done" && o.Err == ""
		if ok {
			if want := c.expected[expectKey(o.Job.Kernel, o.Job.N)]; o.Checksum != want {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf("job %s %s n=%d checksum %v, serve.ExpectedChecksum %v", o.ID, o.Job.Kernel, o.Job.N, o.Checksum, want))
				ok = false
			}
		}
		lat := o.DoneAt.Sub(o.DueAbs).Seconds()
		switch {
		case o.Job.Heavy && ok:
			res.HeavyLat = append(res.HeavyLat, lat)
		case o.Job.Heavy:
			res.HeavyMiss++
		case ok:
			res.Lat = append(res.Lat, lat)
			res.LatT = append(res.LatT, o.Job.Due.Seconds())
		default:
			res.Misses++
			res.MissT = append(res.MissT, o.Job.Due.Seconds())
		}
	}
	return res
}

func (c *loadClient) submitOne(o *jobOutcome) {
	body, _ := json.Marshal(serve.SubmitRequest{Kernel: o.Job.Kernel, N: o.Job.N, Tenant: o.Job.Tenant})
	resp, err := c.submit.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.Err = err.Error()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		o.Err = fmt.Sprintf("submit status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		return
	}
	var info serve.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		o.Err = err.Error()
		return
	}
	o.ID, o.submitOK = info.ID, true
	if terminal(info.State) {
		o.terminated, o.State, o.Checksum, o.DoneAt = true, info.State, info.Checksum, time.Now()
	}
}

func terminal(state string) bool {
	return state == "done" || state == "canceled" || state == "failed"
}

// pollOne issues one GET for o and reports whether o is now terminal.
func (c *loadClient) pollOne(o *jobOutcome, res *phaseResult) bool {
	if o.terminated {
		return true
	}
	t0 := time.Now()
	resp, err := c.poll.Get(c.base + "/jobs/" + o.ID)
	res.Polls++
	if err != nil {
		o.Err, o.terminated = err.Error(), true
		return true
	}
	var info serve.JobInfo
	derr := json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	now := time.Now()
	res.PollRTT = append(res.PollRTT, now.Sub(t0).Seconds())
	if resp.StatusCode != http.StatusOK || derr != nil {
		o.Err, o.terminated = fmt.Sprintf("poll status %d", resp.StatusCode), true
		res.Useful++
		return true
	}
	if !terminal(info.State) {
		return false
	}
	res.Useful++
	o.terminated, o.State, o.Checksum, o.DoneAt = true, info.State, info.Checksum, now
	return true
}

// httpSpec describes one HTTP workload.
type httpSpec struct {
	Name      string
	Args      []string // pstld arguments besides -addr
	Mix       mixFunc
	FixedRate float64       // jobs/s of the fixed-rate phase
	MaxRate   float64       // top of the rate search, which starts at FixedRate
	Limit     time.Duration // p99 latency limit
	Steps     int           // bisection steps per rate-search round
	Rounds    int           // rate-search rounds; max_rate_per_s is their median
	MinJobs   int           // fewest jobs a rate step needs to be judged
	// FixedShare is the share of the measured time spent at FixedRate;
	// it is sized so that phase collects at least 1000 latency samples.
	FixedShare float64
	// GenProcs is the load generator's GOMAXPROCS. With few jobs
	// outstanding (small-jobs) one P leaves the daemon a whole CPU and
	// halves the generator's tail lateness; with a backlog of long jobs
	// (mixed) the poller is always busy and the submitter needs its own P.
	GenProcs int
}

var smallJobsSpec = httpSpec{
	Name: "small-jobs", Args: []string{"-workers", "2"}, Mix: smallJobsMix,
	FixedRate: 500, MaxRate: 12800, Limit: 50 * time.Millisecond, Steps: 5, Rounds: 3, MinJobs: 50, FixedShare: 0.3, GenProcs: 1,
}

var mixedSpec = httpSpec{
	Name: "mixed", Args: []string{"-shards", "2", "-workers", "1"}, Mix: mixedMix,
	FixedRate: 90, MaxRate: 360, Limit: time.Second, Steps: 3, Rounds: 1, MinJobs: 50, FixedShare: 0.6, GenProcs: 2,
}

// httpRun is everything one HTTP workload run measured.
type httpRun struct {
	spec   httpSpec
	setup  []float64
	d      *daemon
	fixed  *phaseResult
	steps  []*phaseResult
	maxOK  float64
	rssMB  float64
	cpuSec float64
	jobs   int
}

// runHTTP starts pstld setupsBefore times (timing each start-up), keeps
// the last, runs the fixed-rate phase and then the rate search, timing
// setupsPerStep more start-ups of a spare daemon before each step.
// On success the caller owns the returned daemon and must stop it.
func runHTTP(ctx context.Context, cfg config, spec httpSpec, extraArgs, env []string, fixedDur time.Duration, search bool) (_ *httpRun, err error) {
	hr := &httpRun{spec: spec}
	defer func() {
		if err != nil {
			hr.d.stop()
		}
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(spec.GenProcs))
	args := append(append([]string(nil), spec.Args...), extraArgs...)
	reps := setupsBefore
	if !search {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if hr.d != nil {
			hr.d.stop()
		}
		d, took, err := startDaemon(cfg.pstld, args, env)
		if err != nil {
			return nil, err
		}
		hr.d = d
		hr.setup = append(hr.setup, took.Seconds())
	}
	spareSetups := func() error {
		for i := 0; i < setupsPerStep; i++ {
			d, took, err := startDaemon(cfg.pstld, args, env)
			if err != nil {
				return err
			}
			d.stop()
			hr.setup = append(hr.setup, took.Seconds())
		}
		return nil
	}
	lc := newLoadClient(hr.d.base)
	defer lc.close()
	// Warm the connections and the server's code paths; not measured.
	warm := poissonSchedule(cfg.seed, 99, spec.FixedRate, 200*time.Millisecond, spec.Mix)
	lc.run(warm, spec.FixedRate, 2*time.Second, 0)

	measureEnd := time.Now().Add(cfg.measure())
	cpu0, _ := cpuSeconds(hr.d.pid())
	minLight := minFixedSamples
	if !search || cfg.smoke {
		minLight = 0
	}
	fixed := fixedSchedule(cfg.seed, spec, fixedDur, minLight)
	// The fixed-rate phase waits five drain times for its last jobs, so
	// only a job that never finishes counts as failed; its drain lag still
	// decides, under the step criteria, whether the fixed rate passed.
	hr.fixed = lc.run(fixed, spec.FixedRate, 5*drainFor(spec), 0)
	hr.jobs = len(fixed)
	cpu1, _ := cpuSeconds(hr.d.pid())
	hr.cpuSec = cpu1 - cpu0
	if search {
		total := searchSteps(spec.Steps, spec.Rounds)
		minStep := (cfg.measure() - fixedDur) / time.Duration(2*total)
		hr.maxOK, err = rateSearch(ctx, spec.FixedRate, stepScore(hr.fixed, spec), spec.MaxRate, spec.Steps, spec.Rounds, func(s int, rate float64) (float64, error) {
			if err := spareSetups(); err != nil {
				return 0, err
			}
			// The steps share what is left of the measured time.
			dur := max(minStep, time.Duration(float64(time.Until(measureEnd))/float64(max(1, total-s))*stepShare))
			jobs := poissonSchedule(cfg.seed, uint64(10+s), rate, dur, spec.Mix)
			// A step waits twice its drain time, so a backlog that missed
			// the deadline still gives a finite score.
			pr := lc.run(jobs, rate, drainFor(spec), 2*drainFor(spec))
			if !stepPasses(pr, spec) {
				// Let a saturated server finish its backlog before the
				// next step.
				waitIdle(hr.d.base, 10*time.Second)
			}
			hr.steps = append(hr.steps, pr)
			return stepScore(pr, spec), nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Peak memory over the whole run: the heavy jobs that overlap in one
	// fixed-rate phase differ from run to run, and the search's steps
	// near capacity bring every run to the same high-water mark.
	if hr.rssMB, err = peakRSSMB(hr.d.pid()); err != nil {
		return nil, err
	}
	return hr, nil
}

// stepShare is the share of a rate step's slice of the remaining measured
// time that the step's arrivals span; the rest covers its drain.
const stepShare = 0.85

// drainFor is how long a phase waits for outstanding jobs after its last
// arrival before counting them as missed.
func drainFor(spec httpSpec) time.Duration { return max(spec.Limit, 500*time.Millisecond) }

// stepScore is the worse of p99 over the limit and the drain lag over the
// drain time (no growing backlog), or +Inf for a phase with too few jobs
// to judge; a phase passes below 1. A search step counts the jobs that
// finished after its drain time as misses, so its p99 is +Inf when it did
// not drain, and the drain lag alone gives the score.
func stepScore(pr *phaseResult, spec httpSpec) float64 {
	if len(pr.Lat)+pr.Misses < spec.MinJobs {
		return math.Inf(1)
	}
	lag := pr.DrainLag / drainFor(spec).Seconds()
	if lag > 1 {
		return lag
	}
	return max(windowedP99(pr.Lat, pr.LatT, pr.MissT)/spec.Limit.Seconds(), lag)
}

func stepPasses(pr *phaseResult, spec httpSpec) bool { return stepScore(pr, spec) < 1 }

// waitIdle polls /healthz until the server reports no backlog.
func waitIdle(base string, max time.Duration) {
	deadline := time.Now().Add(max)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/stats")
		if err == nil {
			var st struct {
				Queued  int `json:"queued"`
				Running int `json:"running"`
				Backlog int `json:"backlog"`
				Shards  []struct {
					Queued  int `json:"queued"`
					Running int `json:"running"`
				} `json:"per_shard"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			busy := st.Queued + st.Running + st.Backlog
			for _, s := range st.Shards {
				busy += s.Queued + s.Running
			}
			if busy == 0 {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runHTTPWorkload is the gated run of small-jobs or mixed.
func runHTTPWorkload(ctx context.Context, cfg config, spec httpSpec, rep *report) error {
	fixedDur := time.Duration(float64(cfg.measure()) * spec.FixedShare)
	if cfg.smoke {
		// A smoke run is too short for full rate steps.
		fixedDur = cfg.measure() / 2
		spec.Steps, spec.Rounds, spec.MinJobs = 2, 1, 5
	}
	hr, err := runHTTP(ctx, cfg, spec, nil, nil, fixedDur, true)
	if err != nil {
		return err
	}
	defer hr.d.stop()
	reportHTTP(spec, hr, rep)
	return nil
}

func reportHTTP(spec httpSpec, hr *httpRun, rep *report) {
	f := hr.fixed
	rep.Attempted += len(f.Outcomes)
	rep.Failed += f.failed()
	for _, m := range f.Mismatches {
		rep.flagf("%s", m) // a mismatched job is one of f.failed()
	}
	for _, s := range hr.steps {
		for _, m := range s.Mismatches {
			rep.mismatchf("%s", m)
		}
	}
	p99 := percentileWithMisses(f.Lat, f.Misses, 0.99)
	who := "all jobs"
	if spec.Name == "mixed" {
		who = "light tenants"
	}
	rep.notef("%s: open loop, Poisson at %.0f jobs/s fixed, 1 submit + 1 poll connection; %s latency from due time %s ms; misses %d; whole-phase p99 %.4g ms",
		spec.Name, spec.FixedRate, who, fmtDist(f.Lat, 1e3), f.Misses, p99*1e3)
	var late []float64
	for _, o := range f.Outcomes {
		late = append(late, o.LateBy.Seconds())
	}
	rep.notef("%s generator lateness %s ms", spec.Name, fmtDist(late, 1e3))
	rep.set("setup_s", stats.Median(hr.setup), "s")
	rep.set("peak_rss_mb", hr.rssMB, "MB")
	lat, misses, aside := stealClean(f.Lat, f.LatT, f.MissT, f.Steal)
	rep.set("p50_ms", percentileWithMisses(lat, misses, 0.5)*1e3, "ms")
	rep.extra("p99_ms", windowedP99(f.Lat, f.LatT, f.MissT)*1e3, "ms")
	rep.set("max_rate_per_s", hr.maxOK, "1/s")
	rep.notef("%s: %s; p50_ms sets aside the %d of %d samples due in windows with more than %.0f%% stolen",
		spec.Name, fmtSteal(f.Steal), aside, len(f.Lat)+len(f.MissT), stealMax*100)
	rep.extra("error_rate", float64(f.failed())/float64(max(1, len(f.Outcomes))), "ratio")
	if spec.Name == "mixed" {
		rep.extra("heavy_p50_ms", percentileWithMisses(f.HeavyLat, f.HeavyMiss, 0.5)*1e3, "ms")
		rep.notef("mixed heavy jobs: %d done, %d missed, p50 %.4g ms", len(f.HeavyLat), f.HeavyMiss, stats.Median(f.HeavyLat)*1e3)
	}
	for i, s := range hr.steps {
		rep.notef("%s search step %d: %.1f jobs/s, %d done, %d missed, p99 %.4g ms, drain lag %.4g s, score %.3g -> pass=%v",
			spec.Name, i, s.Rate, len(s.Lat), s.Misses, windowedP99(s.Lat, s.LatT, s.MissT)*1e3, s.DrainLag, stepScore(s, spec), stepPasses(s, spec))
	}
	rep.notef("%s max_rate_per_s = %.4g (p99 limit %v, fixed-rate score %.3g, search %g..%g, median of %d rounds, %d steps)", spec.Name, hr.maxOK, spec.Limit, stepScore(f, spec), spec.FixedRate, spec.MaxRate, spec.Rounds, len(hr.steps))
}

// fetchSpans reads a daemon's terminal job spans.
func fetchSpans(base string) ([]obs.SpanInfo, error) {
	resp, err := http.Get(base + "/spans")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var spans []obs.SpanInfo
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return nil, fmt.Errorf("decode /spans: %w", err)
	}
	return spans, nil
}

// fetchRouterStats reads a sharded daemon's /stats.
func fetchRouterStats(base string) (shard.Stats, error) {
	var st shard.Stats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// scrapeMetrics times one GET /metrics.
func scrapeMetrics(base string) (time.Duration, error) {
	t0 := time.Now()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(t0), err
}

var gcLine = regexp.MustCompile(`^gc \d+ @[0-9.]+s \d+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock`)

// gcStats parses GODEBUG=gctrace=1 output: cycles and total stop-the-world
// pause (sweep termination + mark termination) in ms.
func gcStats(stderr string) (cycles int, pauseMS float64) {
	sc := bufio.NewScanner(strings.NewReader(stderr))
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		a, _ := strconv.ParseFloat(m[1], 64)
		b, _ := strconv.ParseFloat(m[2], 64)
		cycles++
		pauseMS += a + b
	}
	return cycles, pauseMS
}

// p99Window is the length of the fixed-rate phase's sub-windows.
const p99Window = 250 * time.Millisecond

// windowedP99 is the median over the phase's quarter-second windows (by
// due time) of each window's p99, misses counted as over any limit. A
// burst of contention on the shared host then moves a few windows, not
// the reported figure.
func windowedP99(lat, latT, missT []float64) float64 {
	buckets := map[int][]float64{}
	for i, v := range lat {
		b := int(latT[i] / p99Window.Seconds())
		buckets[b] = append(buckets[b], v)
	}
	for _, t := range missT {
		b := int(t / p99Window.Seconds())
		buckets[b] = append(buckets[b], math.Inf(1))
	}
	var p99s []float64
	for _, xs := range buckets {
		if len(xs) >= 100 {
			p99s = append(p99s, percentileWithMisses(xs, 0, 0.99))
		}
	}
	if len(p99s) == 0 {
		return percentileWithMisses(lat, len(missT), 0.99)
	}
	return stats.Median(p99s)
}

// searchSteps is how many steps rateSearch runs.
func searchSteps(steps, rounds int) int { return steps * rounds }

// rateSearch finds the highest rate in [lo, hi] whose step passes. try
// runs step s at a rate and returns its score: the worst of its criteria,
// each scaled so that 1 is the limit, and +Inf for a step that failed
// outright; a step passes below 1. lo is the workload's fixed rate, and
// loScore the fixed-rate phase's score under the same criteria.
//
// Each of rounds rounds bisects [lo, hi] in log space in steps steps, to a
// resolution of (hi/lo)^(1/2^steps), and interpolates, in log rate, where
// the score crosses 1 between the highest passing and the lowest failing
// rate; it is the highest passing rate when no step failed or the failing
// score is not finite. The search reports the median of the rounds, so
// one round thrown by a burst of contention on the host does not decide
// it. If the fixed rate failed, the search first halves the rate until a
// step passes, and searches between that rate and the lowest failing one;
// if none of steps halvings passes, no rate passed and the result is 0.
func rateSearch(ctx context.Context, lo, loScore, hi float64, steps, rounds int, try func(s int, rate float64) (float64, error)) (float64, error) {
	sr := &searcher{ctx: ctx, try: func(s int, rate float64) (float64, float64, error) {
		score, err := try(s, rate)
		return score, 0, err
	}}
	lo, loScore, hi, ok, err := sr.floor(lo, loScore, hi, steps)
	if !ok || err != nil {
		return 0, err
	}
	var results []float64
	for r := 0; r < rounds; r++ {
		est, _, err := sr.bisect(lo, loScore, hi, math.Inf(1), steps)
		if err != nil {
			return 0, err
		}
		results = append(results, est)
	}
	return stats.Median(results), nil
}

// refineSteps is how many steps refineSearch runs.
func refineSteps(steps, rounds, refine int) int { return steps + (rounds-1)*refine }

// refineSearch is rateSearch for a limit that the host's contention moves
// by a few percent from step to step. Its first round bisects [lo, hi] in
// steps steps, as rateSearch does, to find where to look. Each of the
// other rounds - 1 rounds bisects, in refine steps, the span
// [c/span, c*span] around the previous round's estimate c, clipped to
// [lo, hi], so that the steps after the first round measure only near the
// limit. A round whose steps all pass centres the next one on its span's
// top edge, so a first round thrown low by contention is walked back
// from.
//
// try also returns the share of the host's CPU time stolen during the
// step. The search reports the median of the later rounds, setting aside,
// as cleanSamples does, the rounds with a step during which more than
// stealMax was stolen; with no later round, it reports the first round's
// estimate. It also returns how many rounds it set aside.
func refineSearch(ctx context.Context, lo, loScore, hi float64, steps, rounds, refine int, span float64, try func(s int, rate float64) (float64, float64, error)) (float64, int, error) {
	sr := &searcher{ctx: ctx, try: try}
	lo, loScore, hi, ok, err := sr.floor(lo, loScore, hi, steps)
	if !ok || err != nil {
		return 0, 0, err
	}
	est, _, err := sr.bisect(lo, loScore, hi, math.Inf(1), steps)
	if err != nil {
		return 0, 0, err
	}
	c, results, steal := est, []float64{est}, []float64{sr.steal}
	for r := 1; r < rounds; r++ {
		// The span's edges are not measured (NaN), except where they are
		// lo, which passed, or hi, which counts as failing outright.
		a, aScore, b, bScore := c/span, math.NaN(), c*span, math.NaN()
		if a <= lo {
			a, aScore = lo, loScore
		}
		if b >= hi {
			b, bScore = hi, math.Inf(1)
		}
		sr.steal = 0
		est, top, err := sr.bisect(a, aScore, b, bScore, refine)
		if err != nil {
			return 0, 0, err
		}
		if r == 1 {
			results, steal = results[:0], steal[:0]
		}
		results, steal = append(results, est), append(steal, sr.steal)
		if c = est; top == b {
			c = b
		}
	}
	kept, aside := cleanSamples(results, steal)
	return stats.Median(kept), aside, nil
}

// searcher runs the steps of one rate search and numbers them.
type searcher struct {
	ctx   context.Context
	try   func(s int, rate float64) (score, steal float64, err error)
	s     int
	steal float64 // the largest stolen share of a step since it was reset
}

func (sr *searcher) step(rate float64) (float64, error) {
	if err := sr.ctx.Err(); err != nil {
		return 0, err
	}
	score, steal, err := sr.try(sr.s, rate)
	sr.s++
	sr.steal = max(sr.steal, steal)
	return score, err
}

// floor halves a failing fixed rate lo until a step passes, at most steps
// times, and returns the passing rate and its score with the lowest
// failing rate as the new hi; ok is false when nothing passed.
func (sr *searcher) floor(lo, loScore, hi float64, steps int) (float64, float64, float64, bool, error) {
	for !(loScore < 1) {
		if sr.s == steps {
			return 0, 0, 0, false, nil
		}
		hi, lo = lo, lo/2
		var err error
		if loScore, err = sr.step(lo); err != nil {
			return 0, 0, 0, false, err
		}
	}
	return lo, loScore, hi, true, nil
}

// bisect bisects [a, b] in log space in n steps and interpolates, in log
// rate, where the score crosses 1 between the highest passing rate a and
// the lowest failing rate b. A score of NaN marks an edge that was not
// measured. The estimate is a when b's score is not finite or either
// edge's score is unknown. bisect also returns the final b.
func (sr *searcher) bisect(a, aScore, b, bScore float64, n int) (float64, float64, error) {
	for i := 0; i < n; i++ {
		mid := math.Sqrt(a * b)
		score, err := sr.step(mid)
		if err != nil {
			return 0, 0, err
		}
		if score < 1 {
			a, aScore = mid, score
		} else {
			b, bScore = mid, score
		}
	}
	if math.IsInf(bScore, 0) || math.IsNaN(aScore) || math.IsNaN(bScore) {
		return a, b, nil
	}
	return a * math.Pow(b/a, (1-aScore)/(bScore-aScore)), b, nil
}
