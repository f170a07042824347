package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"pstlbench/internal/counters"
	"pstlbench/internal/flow"
	"pstlbench/internal/obs"
	"pstlbench/internal/serve"
	"pstlbench/internal/stats"
)

// flowSpec describes the stream workload.
type flowSpec struct {
	Streams   int
	Window    time.Duration // tumbling window size
	Lateness  time.Duration
	FixedRate float64       // events/s over all streams
	MaxRate   float64       // top of the rate search, which starts at FixedRate
	Limit     time.Duration // p99 window close -> result
	Steps     int           // bisection steps of the first rate-search round
	Rounds    int           // rate-search rounds; max_rate_per_s is the later ones' median
	MinWins   int           // windows each rate step must close
}

var streamSpec = flowSpec{
	Streams: 16, Window: 10 * time.Millisecond, Lateness: 2 * time.Millisecond,
	FixedRate: 50_000, MaxRate: 16_000_000,
	Limit: 50 * time.Millisecond, Steps: 5, Rounds: 6, MinWins: 1000,
}

// Each rate-search round after the first bisects, in refineRoundSteps
// steps, the span from 1/refineSpan to refineSpan times the previous
// round's estimate (see refineSearch).
const (
	refineRoundSteps = 2
	refineSpan       = 1.5
)

// streamConfigFor is every stream's configuration: Pause backpressure,
// short tumbling windows, the reduce operator.
func streamConfigFor(spec flowSpec, name string) flow.StreamConfig {
	return flow.StreamConfig{
		Name:   name,
		Window: flow.WindowSpec{Size: spec.Window, Lateness: spec.Lateness},
		Op:     flow.OpSpec{Kind: "reduce"},
		Policy: flow.Pause,
	}
}

// flowTrace is one stream's seeded input for one phase: the events'
// times and values in push order and, per non-empty window, the index of
// the push that closes it under the watermark rule. The events are kept
// as two pointer-free arrays, so that the garbage collector does not scan
// the generator's input while the engine runs.
type flowTrace struct {
	cfg     flow.StreamConfig
	ts      []int64
	val     []float64
	closeAt map[int64]int // window start -> index of the closing push
	audit   flow.AuditResult
}

// newFlowTrace builds a stream's trace with flow.SynthTrace: one event
// per stepNS of event time, a little jitter, and every 97th event a
// straggler three windows late.
func newFlowTrace(spec flowSpec, name string, n int, stepNS int64, seed uint64) (*flowTrace, error) {
	w := int64(spec.Window)
	ev := flow.SynthTrace(n, 0, stepNS, stepNS/2, 97, 3*w, 0, seed)
	ft := &flowTrace{cfg: streamConfigFor(spec, name), ts: make([]int64, n), val: make([]float64, n), closeAt: map[int64]int{}}
	for i, e := range ev {
		ft.ts[i], ft.val[i] = e.TS, e.Val
	}
	a, err := flow.Audit(ft.cfg, ev)
	if err != nil {
		return nil, err
	}
	ft.audit = a
	// Replay the watermark: a push that is not late advances maxTS; every
	// window whose end is at or below the new watermark closes there.
	starts := make([]int64, 0, len(a.WindowEvents))
	for st := range a.WindowEvents {
		starts = append(starts, st)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	lateness := int64(spec.Lateness)
	maxTS, seen, next := int64(math.MinInt64), false, 0
	for i, e := range ev {
		wm := int64(math.MinInt64)
		if seen {
			wm = maxTS - lateness
		}
		if floorDivI(e.TS, w)*w+w <= wm {
			continue // late: dropped, watermark unchanged
		}
		if !seen || e.TS > maxTS {
			maxTS, seen = e.TS, true
		}
		wm = maxTS - lateness
		for next < len(starts) && starts[next]+w <= wm {
			ft.closeAt[starts[next]] = i
			next++
		}
	}
	return ft, nil
}

func floorDivI(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// flowResults collects window results from the engine's OnResult hook.
type flowResults struct {
	mu  sync.Mutex
	got map[string]map[int64]flowGot
	n   int
	ch  chan struct{} // closed on the first result (set-up probe)
}

type flowGot struct {
	at    time.Time
	res   flow.WindowResult
	count int
}

func newFlowResults() *flowResults {
	return &flowResults{got: map[string]map[int64]flowGot{}, ch: make(chan struct{})}
}

func (f *flowResults) record(r flow.WindowResult) {
	now := time.Now()
	f.mu.Lock()
	m := f.got[r.Stream]
	if m == nil {
		m = map[int64]flowGot{}
		f.got[r.Stream] = m
	}
	g := m[r.Start]
	g.at, g.res, g.count = now, r, g.count+1
	m[r.Start] = g
	f.n++
	if f.n == 1 {
		close(f.ch)
	}
	f.mu.Unlock()
}

// flowEnv is one in-process engine over a 2-worker server.
type flowEnv struct {
	srv *serve.Server
	eng *flow.Engine
	res *flowResults
}

func newFlowEnv() (*flowEnv, error) {
	fe := &flowEnv{res: newFlowResults()}
	reg, met := counters.NewRegistry(), obs.NewRegistry()
	fe.srv = serve.New(serve.Config{Workers: 2, Registry: reg, Metrics: met})
	eng, err := flow.NewEngine(flow.Config{
		Server: fe.srv, Registry: reg, Metrics: met, ResultCap: -1,
		OnResult: fe.res.record,
	})
	if err != nil {
		fe.srv.Close()
		return nil, err
	}
	fe.eng = eng
	return fe, nil
}

func (fe *flowEnv) close() {
	fe.eng.Close()
	fe.srv.Close()
}

// flowSetup times engine creation to the first window result.
func flowSetup(spec flowSpec) (time.Duration, error) {
	t0 := time.Now()
	fe, err := newFlowEnv()
	if err != nil {
		return 0, err
	}
	defer fe.close()
	s, err := fe.eng.AddStream(streamConfigFor(spec, "setup"))
	if err != nil {
		return 0, err
	}
	w := int64(spec.Window)
	for _, ts := range []int64{1, w + int64(spec.Lateness) + 1} {
		s.Push(flow.Event{TS: ts, Val: 1})
	}
	select {
	case <-fe.res.ch:
		return time.Since(t0), nil
	case <-time.After(5 * time.Second):
		return 0, fmt.Errorf("stream set-up: no window result within 5s")
	}
}

// flowPhase is one rate step's outcome.
type flowPhase struct {
	Rate      float64
	Lat       []float64
	LatT      []float64 // offset of the closing push from the phase start, seconds
	MissT     []float64
	Misses    int
	Paused    int64
	Dropped   int64
	Late      int64
	Closed    int64
	Empty     int64
	PeakBuf   int
	WMLagMS   []float64
	PushUS    []float64
	LateMS    []float64 // pusher lateness per batch
	Achieved  float64   // events/s the generator actually pushed
	Steal     []float64 // stolen share of CPU time per p99Window
	GCs       uint32    // garbage collections while pushing
	Mismatch  []string
	pushSpans [][2]int64
}

// minKeptUp is the share of the offered rate the generator must push for a
// step to count as having no growing backlog. A pusher slower than the
// schedule falls further behind with every event; a short stall that it
// recovers from costs only a few percent.
const minKeptUp = 0.9

// score is +Inf on any pause or drop, else the worse of p99 over the
// limit and the generator's shortfall over the allowed one (no growing
// backlog of events waiting to be pushed); a step passes below 1.
func (p *flowPhase) score(limit time.Duration) float64 {
	if p.Paused > 0 || p.Dropped > 0 || len(p.Lat)+p.Misses < 100 {
		return math.Inf(1)
	}
	shortfall := (1 - p.Achieved/p.Rate) / (1 - minKeptUp)
	return max(windowedP99(p.Lat, p.LatT, p.MissT)/limit.Seconds(), shortfall)
}

// runFlowPhase pushes every stream's seeded trace on its event-time
// schedule (open loop) at rate events/s in total, then closes the streams
// and audits counts and per-window checksums against flow.Audit.
func runFlowPhase(fe *flowEnv, spec flowSpec, seed int64, phase int, rate float64, dur time.Duration, tracePush bool) (*flowPhase, error) {
	perStream := rate / float64(spec.Streams)
	stepNS := int64(1e9 / perStream)
	n := int(dur.Seconds() * perStream)
	if n < 2 {
		n = 2
	}
	traces := make([]*flowTrace, spec.Streams)
	streams := make([]*flow.Stream, spec.Streams)
	for i := range traces {
		name := fmt.Sprintf("p%d-s%d", phase, i)
		ft, err := newFlowTrace(spec, name, n, stepNS, uint64(seed)*1000003+uint64(phase)*101+uint64(i)+1)
		if err != nil {
			return nil, err
		}
		traces[i] = ft
		if streams[i], err = fe.eng.AddStream(ft.cfg); err != nil {
			return nil, err
		}
	}
	fp := &flowPhase{Rate: rate}
	runtime.GC() // the previous phase's garbage is not collected mid-phase
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	// dueOf: event i of every stream is due at start + i*stepNS.
	start := time.Now().Add(time.Millisecond)
	steal := watchSteal()
	pushedAt := make([]time.Duration, n) // offset from start
	sampleEvery := max(1, n*spec.Streams/20000)
	k := 0
	for i := 0; i < n; {
		due := start.Add(time.Duration(int64(i) * stepNS))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		fp.LateMS = append(fp.LateMS, float64(now.Sub(due))/1e6)
		// Push every event now due, in index order across streams.
		upto := int(now.Sub(start)/time.Duration(stepNS)) + 1
		if upto > n {
			upto = n
		}
		if upto <= i {
			upto = i + 1
		}
		for ; i < upto; i++ {
			// Window close happens at the push itself, so latency runs
			// from when the closing push was made, not from its due time;
			// the generator's lateness is reported on its own.
			pushedAt[i] = time.Since(start)
			for si, s := range streams {
				ev := flow.Event{TS: traces[si].ts[i], Val: traces[si].val[i]}
				if k%sampleEvery == 0 {
					t0 := time.Now()
					st := s.Push(ev)
					t1 := time.Now()
					fp.PushUS = append(fp.PushUS, float64(t1.Sub(t0))/1e3)
					if tracePush {
						fp.pushSpans = append(fp.pushSpans, [2]int64{t0.UnixNano(), t1.UnixNano()})
					}
					if st == flow.PushPaused {
						fp.Paused++
					}
				} else if s.Push(ev) == flow.PushPaused {
					fp.Paused++
				}
				k++
			}
		}
		if i%64 == 0 {
			// Event time 0 is the phase start, so the watermark's lag
			// behind the wall clock is elapsed time minus the watermark.
			el := time.Since(start).Nanoseconds()
			for _, s := range streams {
				if wm, ok := s.Watermark(); ok {
					fp.WMLagMS = append(fp.WMLagMS, float64(el-wm)/1e6)
				}
			}
		}
	}
	fp.Achieved = float64(n*spec.Streams) / time.Since(start).Seconds()
	fp.Steal = steal.stop()
	runtime.ReadMemStats(&ms)
	fp.GCs = ms.NumGC - gc0
	for _, s := range streams {
		s.Close()
	}
	fe.res.mu.Lock()
	defer fe.res.mu.Unlock()
	for si, s := range streams {
		ft := traces[si]
		st := s.Stats()
		a := ft.audit
		fp.Late += st.LateEvents
		fp.Dropped += st.WindowsDropped + st.DroppedEvents
		fp.Closed += st.WindowsClosed
		fp.Empty += st.WindowsEmpty
		fp.PeakBuf = max(fp.PeakBuf, st.PeakBuffered)
		if st.Events != a.Accepted || st.LateEvents != a.Late || st.PausedEvents != a.Paused ||
			st.DroppedEvents != a.DroppedEvents || st.WindowsClosed != a.WindowsClosed ||
			st.WindowsEmpty != a.WindowsEmpty || st.PeakBuffered != a.PeakBuffered {
			fp.Misses++ // the stream's accounting is one more checked output
			fp.MissT = append(fp.MissT, 0)
			fp.Mismatch = append(fp.Mismatch, fmt.Sprintf("stream %s counts %+v differ from flow.Audit %+v", s.Name(), st, a))
		}
		got := fe.res.got[s.Name()]
		for ws, want := range a.Checksums {
			g, ok := got[ws]
			switch {
			case !ok:
				fp.Misses++
				fp.MissT = append(fp.MissT, 0)
				fp.Mismatch = append(fp.Mismatch, fmt.Sprintf("stream %s window %d: no result", s.Name(), ws))
				continue
			case g.res.State != "done":
				fp.Misses++
				fp.MissT = append(fp.MissT, 0)
				continue
			case g.res.Checksum != want || g.res.Events != a.WindowEvents[ws] || g.count != 1:
				fp.Mismatch = append(fp.Mismatch, fmt.Sprintf("stream %s window %d: checksum %v events %d (x%d), flow.Audit %v events %d",
					s.Name(), ws, g.res.Checksum, g.res.Events, g.count, want, a.WindowEvents[ws]))
				fp.Misses++
				fp.MissT = append(fp.MissT, 0)
				continue
			}
			if idx, ok := ft.closeAt[ws]; ok && !g.res.Flushed {
				fp.Lat = append(fp.Lat, (g.at.Sub(start) - pushedAt[idx]).Seconds())
				fp.LatT = append(fp.LatT, pushedAt[idx].Seconds())
			}
		}
		delete(fe.res.got, s.Name())
	}
	return fp, nil
}

// flowRun is everything one stream workload run measured.
type flowRun struct {
	setup []float64
	warm  []*flowPhase // untimed phases; only their outputs are checked
	fixed *flowPhase
	steps []*flowPhase
	maxOK float64
	aside int // search rounds set aside for stolen CPU time
	rss   float64
}

// streamFixedShare is the share of the measured time spent at FixedRate.
const streamFixedShare = 0.3

// The rate search starts after searchWarmUps untimed phases, each
// offering MaxRate/2 for searchWarmUp.
const (
	searchWarmUps = 2
	searchWarmUp  = 400 * time.Millisecond
)

// flowStepDur is long enough to close MinWins windows across all streams.
func flowStepDur(spec flowSpec) time.Duration {
	return time.Duration(float64(spec.MinWins)/float64(spec.Streams)*1.05) * spec.Window
}

func runFlow(ctx context.Context, cfg config, spec flowSpec, fixedDur time.Duration, search bool, tracePush bool) (*flowRun, error) {
	fr := &flowRun{}
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := flowSetup(spec)
			if err != nil {
				return err
			}
			fr.setup = append(fr.setup, d.Seconds())
		}
		return nil
	}
	reps := flowSetupsBefore
	if !search {
		reps = 1
	}
	if err := setUp(reps); err != nil {
		return nil, err
	}
	fe, err := newFlowEnv()
	if err != nil {
		return nil, err
	}
	defer fe.close()
	warmUp := func(phase int, rate float64, dur time.Duration) error {
		fp, err := runFlowPhase(fe, spec, cfg.seed, phase, rate, dur, false)
		if err == nil {
			fr.warm = append(fr.warm, fp)
		}
		return err
	}
	if err := warmUp(0, spec.FixedRate, 100*time.Millisecond); err != nil {
		return nil, err
	}
	measureEnd := time.Now().Add(cfg.measure())
	if fr.fixed, err = runFlowPhase(fe, spec, cfg.seed, 1, spec.FixedRate, fixedDur, tracePush); err != nil {
		return nil, err
	}
	// Peak memory of the fixed-rate phase; the search's traces grow with
	// the rate it reaches.
	if fr.rss, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	if search {
		// The first steps near the limit pushed up to a fifth slower than
		// the ones after them, while the process grew its heap to their
		// size: untimed phases at the top of the range grow it first, and
		// the search keeps its share of the measured time.
		t0 := time.Now()
		for w := 0; w < searchWarmUps; w++ {
			if err := warmUp(2+w, spec.MaxRate/2, searchWarmUp); err != nil {
				return nil, err
			}
		}
		measureEnd = measureEnd.Add(time.Since(t0))
		total := refineSteps(spec.Steps, spec.Rounds, refineRoundSteps)
		fr.maxOK, fr.aside, err = refineSearch(ctx, spec.FixedRate, fr.fixed.score(spec.Limit), spec.MaxRate, spec.Steps, spec.Rounds, refineRoundSteps, refineSpan, func(s int, rate float64) (float64, float64, error) {
			if err := setUp(flowSetupsPerStep); err != nil {
				return 0, 0, err
			}
			// The steps share what is left of the measured time.
			dur := max(flowStepDur(spec), time.Duration(float64(time.Until(measureEnd))/float64(max(1, total-s))*stepShare))
			fp, err := runFlowPhase(fe, spec, cfg.seed, 10+s, rate, dur, false)
			if err != nil {
				return 0, 0, err
			}
			fr.steps = append(fr.steps, fp)
			return fp.score(spec.Limit), stats.Mean(fp.Steal), nil
		})
		if err != nil {
			return nil, err
		}
	}
	return fr, nil
}

func runStreamWorkload(ctx context.Context, cfg config, rep *report) error {
	spec := streamSpec
	fixedDur := time.Duration(float64(cfg.measure()) * streamFixedShare)
	if cfg.smoke {
		spec.MinWins, spec.Steps, spec.Rounds = 100, 2, 1
		fixedDur = cfg.measure() / 2
	}
	fr, err := runFlow(ctx, cfg, spec, fixedDur, true, false)
	if err != nil {
		return err
	}
	reportFlow(spec, fr, rep)
	return nil
}

func reportFlow(spec flowSpec, fr *flowRun, rep *report) {
	f := fr.fixed
	rep.Attempted += len(f.Lat) + f.Misses
	rep.Failed += f.Misses
	for _, m := range f.Mismatch {
		rep.flagf("%s", m) // every mismatch is one of f.Misses
	}
	for _, m := range append(stepMismatches(fr.warm), stepMismatches(fr.steps)...) {
		rep.mismatchf("%s", m)
	}
	rep.notef("stream: open loop, %d Pause streams, %v tumbling windows (lateness %v), reduce op, %.0f events/s fixed; window close -> result %s ms; %d windows closed, %d late events, %d paused",
		spec.Streams, spec.Window, spec.Lateness, spec.FixedRate, fmtDist(f.Lat, 1e3), f.Closed, f.Late, f.Paused)
	rep.set("setup_s", stats.Median(fr.setup), "s")
	rep.set("peak_rss_mb", fr.rss, "MB")
	lat, misses, aside := stealClean(f.Lat, f.LatT, f.MissT, f.Steal)
	rep.set("p50_ms", percentileWithMisses(lat, misses, 0.5)*1e3, "ms")
	rep.extra("p99_ms", windowedP99(f.Lat, f.LatT, f.MissT)*1e3, "ms")
	rep.set("max_rate_per_s", fr.maxOK, "1/s")
	rep.notef("stream: %s; p50_ms sets aside the %d of %d samples due in windows with more than %.0f%% stolen",
		fmtSteal(f.Steal), aside, len(f.Lat)+len(f.MissT), stealMax*100)
	rep.extra("error_rate", float64(f.Misses+int(f.Paused)+int(f.Dropped))/float64(max(1, len(f.Lat)+f.Misses)), "ratio")
	for i, s := range fr.steps {
		rep.notef("stream search step %d: %.0f events/s, %d windows closed, %d late, %d paused, %d dropped, p99 %.4g ms, generator pushed %.0f events/s, %d GCs, %s -> pass=%v",
			i, s.Rate, s.Closed, s.Late, s.Paused, s.Dropped, windowedP99(s.Lat, s.LatT, s.MissT)*1e3,
			s.Achieved, s.GCs, fmtSteal(s.Steal), s.score(spec.Limit) < 1)
	}
	rep.notef("stream max_rate_per_s = %.4g events/s (p99 limit %v, no pause or drop; fixed-rate score %.3g, search %g..%g, %d rounds, %d set aside for more than %.0f%% stolen, %d steps)",
		fr.maxOK, spec.Limit, f.score(spec.Limit), spec.FixedRate, spec.MaxRate, spec.Rounds, fr.aside, stealMax*100, len(fr.steps))
}

func stepMismatches(steps []*flowPhase) []string {
	var out []string
	for _, s := range steps {
		out = append(out, s.Mismatch...)
	}
	return out
}
