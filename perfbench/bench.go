package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/analysis"
)

// stream is a fixed sequence of manager write calls with the verdicts
// the recording run got; every later run must reproduce them.
type stream struct {
	packed
	want []verdict
}

// replayCase is a stream laid out as a scenario timeline.
type replayCase struct {
	stream
	opts repro.ScenarioOptions
}

// fixture is one workload's inputs, all made from the seed before any
// timing starts.
type fixture struct {
	pr   repro.Problem
	goal repro.Goal
	pol  repro.AdmissionPolicy
	// streams are driven call by call against fresh managers: the
	// decision figures. replays go through the scenario runtime: the
	// replay figures.
	streams []*stream
	replays []*replayCase
}

// design compiles and designs the fixture's problem.
func (fx *fixture) design() (*repro.CompiledProblem, repro.Config, error) {
	cp, err := repro.Compile(fx.pr)
	if err != nil {
		return nil, repro.Config{}, err
	}
	sol, err := repro.Design(fx.pr, fx.goal)
	if err != nil {
		return nil, repro.Config{}, err
	}
	return cp, sol.Config, nil
}

// workload is one benchmark workload: how to make its inputs, and the
// traced-run property that shows it isolates the layer it was chosen
// for.
type workload struct {
	prepare func(seed int64) (*fixture, error)
	valid   func(l *layers) error
}

var workloads = map[string]workload{
	"churn-grid": {prepareChurn(false), func(l *layers) error {
		if r := l.fallbackRatio(); r >= 0.05 {
			return fmt.Errorf("analysis.fallback_ratio %.4f, want < 0.05: guests leave the period grid", r)
		}
		return nil
	}},
	"churn-offgrid": {prepareChurn(true), func(l *layers) error {
		if r := l.fallbackRatio(); r <= 0.5 {
			return fmt.Errorf("analysis.fallback_ratio %.4f, want > 0.5: guests do not move the hyperperiod", r)
		}
		return nil
	}},
	"replay-storm": {prepareStorm, func(l *layers) error {
		if share := float64(l.replaySelfNs()) / float64(max(l.replayNs, 1)); share <= 0.5 {
			return fmt.Errorf("sim.replay_self_s is %.2f of replay time, want most of it", share)
		}
		return nil
	}},
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// setupReps set-ups start a run. An untraced run also sets up once
// before each later round, so setup_s is a median over set-ups spread
// across the run rather than bunched at its cold start.
const setupReps = 5

// bench is one run in progress.
type bench struct {
	fx  *fixture
	cp  *repro.CompiledProblem
	cfg repro.Config
	rep *report
	tr  *tracer // nil in an untraced run
	buf eventBuf

	// End-to-end samples of the untraced round in progress, and each
	// untraced round's figures by metric name; a run reports the median
	// over rounds, so a burst of noise on the host moves few rounds.
	cur       roundSamples
	perRound  map[string][]float64
	rejected  int // in the first round, over its decisions
	decisions int

	// Per-layer figures, from traced rounds.
	layerRounds []*layers
	pooled      layers // latency samples pooled over traced rounds

	digest      uint64
	roundDigest digest
	first       bool    // the round in progress is the first
	lay         *layers // the traced round in progress
	// heapWall is the round's time spent measuring the heap, which the
	// round's wall time for the tracing overhead leaves out.
	heapWall time.Duration
}

// roundSamples are one untraced round's end-to-end samples.
type roundSamples struct {
	decisionNs    []int64
	decisionWall  time.Duration
	decisionAlloc uint64
	replayNs      []int64
	replayEvents  int
	replayAlloc   uint64
	// Heap retained by the round's finished instances, summed in MB.
	heapSum float64
	heapN   int
}

// figures turns one round's samples into its end-to-end figures.
func (rs *roundSamples) figures() map[string]float64 {
	var replayWall int64
	for _, d := range rs.replayNs {
		replayWall += d
	}
	decisions, events := len(rs.decisionNs), rs.replayEvents
	return map[string]float64{
		"decisions_per_s":          float64(decisions) / rs.decisionWall.Seconds(),
		"decision_p50_us":          quantile(rs.decisionNs, 0.50) / us,
		"decision_p99_us":          quantile(rs.decisionNs, 0.99) / us,
		"replay_events_per_s":      float64(events) / (float64(replayWall) / sec),
		"replay_p50_ms":            quantile(rs.replayNs, 0.50) / ms,
		"replay_p95_ms":            quantile(rs.replayNs, 0.95) / ms,
		"alloc_bytes_per_decision": float64(rs.decisionAlloc) / float64(max(decisions, 1)),
		"alloc_bytes_per_event":    float64(rs.replayAlloc) / float64(max(events, 1)),
		"heap_live_mb":             rs.heapSum / float64(max(rs.heapN, 1)),
	}
}

// layers are one traced round's per-layer figures.
type layers struct {
	decisions                         [numOpKinds]int
	rejected, busy                    int
	shed, evicted                     uint64
	envPatches, envFallbacks, consols uint64
	memRatio                          float64
	keptPairs                         int
	patches, fallbacks                int
	incrNs, fbNs                      int64
	onlineNs, analysisNs              int64
	replayNs, driveNs                 int64
	replays                           int
	epochs, released, completed, late int
	replayAlloc                       uint64

	// Latency samples, pooled across rounds in bench.pooled.
	admit, remove, partial, degrade, read, incr, fb, configFor []int64
	compile, solve, newManager                                 []int64
}

func (l *layers) fallbackRatio() float64 {
	return float64(l.fallbacks) / float64(max(l.patches, 1))
}

func (l *layers) replaySelfNs() int64 { return l.replayNs - l.driveNs }

// measure sets the workload up, then runs rounds until
// o.seconds have passed. A traced run alternates untraced and traced
// rounds, so it can report the tracing overhead.
func measure(fx *fixture, w workload, o options) (*report, error) {
	b := &bench{fx: fx, rep: &report{metrics: map[string]metric{}}, perRound: map[string][]float64{}}
	if o.trace {
		b.tr = newTracer()
		b.rep.tracer = b.tr
		b.lay = &layers{}
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		secs, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, secs)
	}
	if b.tr != nil {
		b.pooled.compile, b.pooled.solve, b.pooled.newManager = b.lay.compile, b.lay.solve, b.lay.newManager
		b.tr.round = b.tr.round[:0]
	}

	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var plainWall, tracedWall []time.Duration
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		traced := b.tr != nil && round%2 == 1
		if traced {
			b.lay = &layers{}
			b.tr.round = b.tr.round[:0]
		}
		if b.tr == nil && round > 0 {
			secs, err := b.setup()
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, secs)
		}
		b.first = round == 0
		t0 := time.Now()
		b.round(traced)
		if wall := time.Since(t0) - b.heapWall; traced {
			tracedWall = append(tracedWall, wall)
			b.pool(b.lay)
			b.layerRounds = append(b.layerRounds, b.lay)
		} else {
			plainWall = append(plainWall, wall)
		}
		if round == 0 {
			b.digest = b.roundDigest.h
		} else if d := b.roundDigest.h; d != b.digest {
			b.rep.broken = true
			b.rep.note("FAIL round %d digest %016x differs from round 0 digest %016x", round, d, b.digest)
		}
	}
	b.rep.note("digest %016x (verdicts and final configurations, one round)", b.digest)

	if b.tr == nil {
		b.endToEnd(setups)
	} else {
		// Pair each traced round with the untraced round before it.
		var plain, traced time.Duration
		for i, d := range tracedWall {
			plain, traced = plain+plainWall[i], traced+d
		}
		b.perLayer(w, plain, traced)
	}
	return b.rep, nil
}

// setup compiles, designs and builds a manager: the set-up a user of
// the admission controller pays once. A user pays it in a fresh process,
// so the garbage of earlier rounds is collected before the clock starts;
// otherwise a collection of the benchmark's own inputs lands in some
// set-ups and not in others.
func (b *bench) setup() (float64, error) {
	runtime.GC()
	t0 := time.Now()
	cp, err := repro.Compile(b.fx.pr)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	sol, err := repro.Design(b.fx.pr, b.fx.goal)
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	m, err := repro.NewOnlineManagerFromCompiled(cp, sol.Config)
	if err != nil {
		return 0, err
	}
	t3 := time.Now()
	runtime.KeepAlive(m)
	if b.tr != nil {
		b.tr.record(0, -1, 0, spanCoreCompile, t0, t1, false)
		b.tr.record(0, -1, 0, spanDesignSolve, t1, t2, false)
		b.tr.record(0, -1, 0, spanOnlineNewManager, t2, t3, false)
		b.lay.compile = append(b.lay.compile, t1.Sub(t0).Nanoseconds())
		b.lay.solve = append(b.lay.solve, t2.Sub(t1).Nanoseconds())
		b.lay.newManager = append(b.lay.newManager, t3.Sub(t2).Nanoseconds())
	}
	b.cp, b.cfg = cp, sol.Config
	return t3.Sub(t0).Seconds(), nil
}

// heapEvery picks the instances whose retained heap an untraced round
// weighs: every heapEvery-th stream and replay. Each weighing costs two
// forced collections.
const heapEvery = 2

// round drives every stream and replays every timeline once.
func (b *bench) round(traced bool) {
	b.roundDigest = newDigest()
	b.cur, b.heapWall = roundSamples{}, 0
	for i, s := range b.fx.streams {
		b.driveStream(s, traced, !traced && i%heapEvery == 0)
	}
	for i, rc := range b.fx.replays {
		b.replay(rc, traced, !traced && i%heapEvery == 0)
	}
	if !traced {
		for name, v := range b.cur.figures() {
			b.perRound[name] = append(b.perRound[name], v)
		}
	}
}

// sink keeps the snapshot reads observable, so none is optimized away.
var sink struct {
	tasks repro.TaskSet
	cfg   repro.Config
}

// driveStream makes the stream's calls against a fresh manager, one at
// a time, each followed by the snapshot read a monitoring caller does,
// then runs the end-of-stream checks.
func (b *bench) driveStream(s *stream, traced, weigh bool) {
	rep := b.rep
	m, err := repro.NewOnlineManagerFromCompiled(b.cp, b.cfg)
	if err != nil {
		rep.fail("new manager: %v", err)
		return
	}
	var (
		reg          *repro.MetricsRegistry
		sh           *shadow
		live, parked map[string]repro.Task
	)
	if traced {
		reg = repro.NewMetricsRegistry()
		m.SetMetrics(repro.NewOnlineMetrics(reg))
		sh = newShadow(b.cp)
		live, parked = liveMap(b.fx.pr.Tasks), map[string]repro.Task{}
	}
	events := s.load(&b.buf)
	lat := make([]int64, len(events))
	got := make([]verdict, len(events))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wall0 := time.Now()
	for i := range events {
		ev := &events[i]
		k := kindOf(ev)
		t0 := time.Now()
		err, ar, dr := call(m, ev, k, b.fx.pol)
		t1 := time.Now()
		sink.tasks, sink.cfg = m.Tasks(), m.Config()
		t2 := time.Now()
		lat[i] = t1.Sub(t0).Nanoseconds()
		if !traced {
			got[i], _ = verdictOf(err, ar)
			continue
		}
		o := classify(ev, k, err, ar, dr, live, parked)
		got[i] = o.v
		op, id := b.tr.newOp(), b.tr.newID()
		b.tr.record(0, id, op, callSpan(k), t0, t1, false)
		b.tr.record(0, id, op, spanOnlineRead, t1, t2, false)
		if o.v != broken {
			b.shadowApply(sh, o, id, op)
		}
		b.tr.record(id, -1, op, spanOp, t0, time.Now(), false)
		b.lay.decisions[k]++
		if o.v == rejected {
			b.lay.rejected++
		}
		if o.busy {
			b.lay.busy++
		}
	}
	wall := time.Since(wall0)
	runtime.ReadMemStats(&ms1)

	rep.attempted += len(events)
	for i, v := range got {
		b.roundDigest.add(uint64(kindOf(&events[i]))<<8 | uint64(v))
		switch {
		case v == broken:
			rep.fail("decision %d (%s): not a typed rejection", i, kindOf(&events[i]))
		case v != s.want[i]:
			rep.fail("decision %d (%s): answered %d, the recorded run %d", i, kindOf(&events[i]), v, s.want[i])
		}
	}
	final := m.Config()
	b.roundDigest.addConfig(final)
	if !traced {
		b.cur.decisionNs = append(b.cur.decisionNs, lat...)
		b.cur.decisionWall += wall
		b.cur.decisionAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		if b.first {
			b.decisions += len(got)
			for _, v := range got {
				if v == rejected {
					b.rejected++
				}
			}
		}
	} else {
		snap := reg.Snapshot()
		l := b.lay
		l.shed += snap.Counters["online.tasks.shed"]
		l.evicted += snap.Counters["online.tasks.evicted"]
		l.envPatches += snap.Counters["online.envelope.patches"]
		l.envFallbacks += snap.Counters["online.envelope.fallbacks"]
		l.consols += snap.Counters["online.consolidations"]
		l.memRatio = max(l.memRatio, snap.Gauges["online.envelope.mem_ratio"])
		l.keptPairs += sh.pairs()
	}

	var heapWith uint64
	if weigh {
		heapWith = b.liveHeap()
	}
	b.checkStream(m, traced)
	runtime.KeepAlive(m)
	if weigh {
		m = nil
		b.retained(heapWith)
	}
}

// retained adds the heap freed since heapWith was read — what the
// instance just dropped held — to the round's sum.
func (b *bench) retained(heapWith uint64) {
	b.cur.heapSum += float64(heapWith-min(heapWith, b.liveHeap())) / 1e6
	b.cur.heapN++
}

// liveHeap collects garbage and returns the bytes still in use.
func (b *bench) liveHeap() uint64 {
	t0 := time.Now()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapWall += time.Since(t0)
	return ms.HeapAlloc
}

// checkStream runs the end-of-stream checks: the manager's own audits,
// bit-identity of the live configuration to a from-scratch solve, and
// a drain that must remove every name.
func (b *bench) checkStream(m *repro.OnlineManager, traced bool) {
	rep := b.rep
	rep.attempted += 4
	var span func(name spanName, start, end time.Time)
	if traced {
		span = func(name spanName, start, end time.Time) { b.tr.record(0, -1, 0, name, start, end, false) }
	}
	t0 := time.Now()
	if err := m.Verify(); err != nil {
		rep.fail("Verify: %v", err)
	}
	t1 := time.Now()
	if err := m.CheckProfiles(); err != nil {
		rep.fail("CheckProfiles: %v", err)
	}
	if span != nil {
		span(spanOnlineVerify, t0, t1)
		span(spanOnlineCheckProfiles, t1, time.Now())
	}
	if err := checkOracle(m.Config(), m.Tasks(), b.fx.pr, span); err != nil {
		rep.fail("%v", err)
	}
	if err := drain(m); err != nil {
		rep.fail("%v", err)
	}
}

// replay replays one timeline against a fresh manager and checks the
// result. A traced replay also drives a second fresh manager through
// the same timeline with the same clock instants, so the replay's own
// share (provisioning and execution) can be told from the manager's.
func (b *bench) replay(rc *replayCase, traced, weigh bool) {
	rep := b.rep
	m, err := repro.NewOnlineManagerFromCompiled(b.cp, b.cfg)
	if err != nil {
		rep.fail("new manager: %v", err)
		return
	}
	events := rc.load(&b.buf)
	sc := repro.Scenario{Events: events}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	res, err := repro.ReplayScenario(m, sc, rc.opts)
	t1 := time.Now()
	runtime.ReadMemStats(&ms1)
	rep.attempted++
	if err != nil {
		rep.fail("replay: %v", err)
		return
	}
	if err := checkVerdicts(res, rc.want); err != nil {
		rep.fail("replay verdicts: %v", err)
	}
	if _, err := checkResidencies(res); err != nil {
		rep.fail("replay residency invariant: %v", err)
	}
	for _, out := range res.Outcomes {
		b.roundDigest.add(uint64(len(out.Joined))<<32 | uint64(len(out.Left)))
	}
	for _, x := range []int{res.Epochs, res.TotalReleased(), res.TotalCompleted(), res.TotalMisses(), res.TotalTransitionLate()} {
		b.roundDigest.add(uint64(x))
	}
	alloc := ms1.TotalAlloc - ms0.TotalAlloc
	if !traced {
		b.cur.replayNs = append(b.cur.replayNs, t1.Sub(t0).Nanoseconds())
		b.cur.replayEvents += len(events)
		b.cur.replayAlloc += alloc
		if weigh {
			heapWith := b.liveHeap()
			runtime.KeepAlive(res)
			runtime.KeepAlive(m)
			res, m = nil, nil
			b.retained(heapWith)
		}
		return
	}
	l := b.lay
	l.replays++
	l.replayAlloc += alloc
	l.epochs += res.Epochs
	l.released += res.TotalReleased()
	l.completed += res.TotalCompleted()
	l.late += res.TotalTransitionLate()
	b.tr.record(0, -1, 0, spanSimReplay, t0, t1, false)

	d, err := repro.NewOnlineManagerFromCompiled(b.cp, b.cfg)
	if err != nil {
		rep.fail("new manager: %v", err)
		return
	}
	t2 := time.Now()
	for i := range events {
		ev := &events[i]
		d.SetNow(ev.At)
		call(d, ev, kindOf(ev), rc.opts.Policy)
		sink.tasks, sink.cfg = d.Tasks(), d.Config()
	}
	b.tr.record(0, -1, 0, spanSimDrive, t2, time.Now(), false)
}

// shadow is a thawed copy of every channel profile, patched with the
// same accepted deltas as the manager's own, so the analysis layer's
// share of a decision can be timed from outside.
type shadow struct {
	profs [3][]*analysis.Profile
}

func newShadow(cp *repro.CompiledProblem) *shadow {
	sh := &shadow{}
	for i, md := range []repro.Mode{repro.FT, repro.FS, repro.NF} {
		for _, pf := range cp.ChannelProfiles(md) {
			sh.profs[i] = append(sh.profs[i], pf.Thawed())
		}
	}
	return sh
}

func (sh *shadow) profile(t repro.Task) *analysis.Profile {
	for i, md := range []repro.Mode{repro.FT, repro.FS, repro.NF} {
		if md == t.Mode {
			return sh.profs[i][t.Channel]
		}
	}
	return nil
}

func (sh *shadow) pairs() int {
	n := 0
	for _, ps := range sh.profs {
		for _, pf := range ps {
			n += pf.Pairs()
		}
	}
	return n
}

// shadowApply patches the shadow profiles with one decision's delta,
// one DropTasks and one AddTasks per touched channel, timing each call
// and noting whether it fell back to a full recompile.
func (b *bench) shadowApply(sh *shadow, o outcome, parent, op int32) {
	for _, batch := range []struct {
		tasks repro.TaskSet
		name  spanName
	}{{o.dropped, spanAnalysisDrop}, {o.added, spanAnalysisAdd}} {
		groups := map[*analysis.Profile]repro.TaskSet{}
		var order []*analysis.Profile
		for _, t := range batch.tasks {
			pf := sh.profile(t)
			if _, ok := groups[pf]; !ok {
				order = append(order, pf)
			}
			groups[pf] = append(groups[pf], t)
		}
		for _, pf := range order {
			fb0 := pf.Fallbacks()
			t0 := time.Now()
			var err error
			if batch.name == spanAnalysisAdd {
				err = pf.AddTasks(groups[pf])
			} else {
				err = pf.DropTasks(groups[pf])
			}
			t1 := time.Now()
			if err != nil {
				b.rep.fail("shadow %s: %v", spanNames[batch.name], err)
				continue
			}
			fb := pf.Fallbacks() != fb0
			b.tr.record(0, parent, op, batch.name, t0, t1, fb)
			b.lay.patches++
			if fb {
				b.lay.fallbacks++
			}
		}
	}
}

// pool folds a traced round's spans into its layer figures and pools
// the latency samples across rounds.
func (b *bench) pool(l *layers) {
	for _, s := range b.tr.round {
		d := s.dur()
		switch s.name {
		case spanOnlineAdmit, spanOnlineAdmitBatch:
			l.admit = append(l.admit, d)
		case spanOnlineRemove, spanOnlineRemoveBatch:
			l.remove = append(l.remove, d)
		case spanOnlinePartial:
			l.partial = append(l.partial, d)
		case spanOnlineRevoke, spanOnlineRestore:
			l.degrade = append(l.degrade, d)
		case spanOnlineRead:
			l.read = append(l.read, d)
		case spanAnalysisAdd, spanAnalysisDrop:
			l.analysisNs += d
			if s.fallback {
				l.fbNs += d
				l.fb = append(l.fb, d)
			} else {
				l.incrNs += d
				l.incr = append(l.incr, d)
			}
		case spanCoreConfigFor:
			l.configFor = append(l.configFor, d)
		case spanSimReplay:
			l.replayNs += d
		case spanSimDrive:
			l.driveNs += d
		}
		if s.name >= spanOnlineAdmit && s.name <= spanOnlineRestore {
			l.onlineNs += d
		}
	}
	p := &b.pooled
	p.admit = append(p.admit, l.admit...)
	p.remove = append(p.remove, l.remove...)
	p.partial = append(p.partial, l.partial...)
	p.degrade = append(p.degrade, l.degrade...)
	p.read = append(p.read, l.read...)
	p.incr = append(p.incr, l.incr...)
	p.fb = append(p.fb, l.fb...)
	p.configFor = append(p.configFor, l.configFor...)
}

// Nanoseconds per reported unit.
const (
	us  = 1e3
	ms  = 1e6
	sec = 1e9
)

// endToEnd reports the untraced run's figures: each is the median
// over rounds of that round's figure.
func (b *bench) endToEnd(setups []float64) {
	r := b.rep
	r.set("setup_s", median(setups), "s")
	for _, m := range []struct{ name, unit string }{
		{"decisions_per_s", "1/s"}, {"decision_p50_us", "us"}, {"decision_p99_us", "us"},
		{"replay_events_per_s", "1/s"}, {"replay_p50_ms", "ms"}, {"replay_p95_ms", "ms"},
		{"alloc_bytes_per_decision", "B"}, {"alloc_bytes_per_event", "B"}, {"heap_live_mb", "MB"},
	} {
		r.set(m.name, median(b.perRound[m.name]), m.unit)
	}
	r.set("reject_ratio", float64(b.rejected)/float64(max(b.decisions, 1)), "ratio")
	decisions := 0
	for _, s := range b.fx.streams {
		decisions += s.len()
	}
	r.note("samples per round: %d decisions (p99 has %d beyond it), %d replays; %d untraced rounds, %d set-ups",
		decisions, decisions/100, len(b.fx.replays), len(b.perRound["heap_live_mb"]), len(setups))
	r.note("failed_ratio %g (%d failed of %d attempted)", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, name := range sortedKeys(r.metrics) {
		r.note("%-26s %14.6g %s", name, r.metrics[name].Value, r.metrics[name].Unit)
	}
}

// perLayer reports the traced run's figures: time sums are medians over
// traced rounds, counts come from the first traced round (every traced
// round must repeat them exactly), and latency quantiles pool all
// traced rounds.
func (b *bench) perLayer(w workload, plainWall, tracedWall time.Duration) {
	r := b.rep
	first := b.layerRounds[0]
	for i, l := range b.layerRounds[1:] {
		if l.decisions != first.decisions || l.rejected != first.rejected || l.patches != first.patches ||
			l.fallbacks != first.fallbacks || l.released != first.released || l.completed != first.completed {
			r.broken = true
			r.note("FAIL traced round %d counts differ from the first traced round", i+1)
		}
	}
	med := func(f func(l *layers) float64) float64 {
		var xs []float64
		for _, l := range b.layerRounds {
			xs = append(xs, f(l))
		}
		return median(xs)
	}
	p := &b.pooled
	r.set("design.solve_s", quantile(p.solve, 0.5)/sec, "s")
	r.set("core.compile_s", quantile(p.compile, 0.5)/sec, "s")
	r.set("online.new_manager_s", quantile(p.newManager, 0.5)/sec, "s")
	r.set("core.config_for_us", quantile(p.configFor, 0.5)/us, "us")

	r.set("analysis.patches", float64(first.patches), "count")
	r.set("analysis.fallback_ratio", first.fallbackRatio(), "ratio")
	r.set("analysis.patch_incr_p50_us", quantile(p.incr, 0.5)/us, "us")
	r.set("analysis.patch_incr_s", med(func(l *layers) float64 { return float64(l.incrNs) / sec }), "s")
	r.set("analysis.patch_fallback_p50_us", quantile(p.fb, 0.5)/us, "us")
	r.set("analysis.patch_fallback_s", med(func(l *layers) float64 { return float64(l.fbNs) / sec }), "s")

	r.set("envelope.patches", float64(first.envPatches), "count")
	r.set("envelope.fallbacks", float64(first.envFallbacks), "count")
	r.set("envelope.consolidations", float64(first.consols), "count")
	r.set("envelope.mem_ratio", first.memRatio, "ratio")
	r.set("envelope.kept_pairs", float64(first.keptPairs), "count")

	for k := opKind(0); k < numOpKinds; k++ {
		r.set("online.decisions."+k.String(), float64(first.decisions[k]), "count")
	}
	r.set("online.admit_p50_us", quantile(p.admit, 0.5)/us, "us")
	r.set("online.admit_p99_us", quantile(p.admit, 0.99)/us, "us")
	r.set("online.remove_p50_us", quantile(p.remove, 0.5)/us, "us")
	r.set("online.partial_p50_us", quantile(p.partial, 0.5)/us, "us")
	r.set("online.degrade_p50_us", quantile(p.degrade, 0.5)/us, "us")
	r.set("online.read_p50_us", quantile(p.read, 0.5)/us, "us")
	r.set("online.self_s", med(func(l *layers) float64 { return float64(l.onlineNs-l.analysisNs) / sec }), "s")
	r.set("online.rejected", float64(first.rejected), "count")
	r.set("online.shed", float64(first.shed), "count")
	r.set("online.evicted", float64(first.evicted), "count")
	r.set("online.busy", float64(first.busy), "count")

	r.set("sim.drive_s", med(func(l *layers) float64 { return float64(l.driveNs) / sec }), "s")
	r.set("sim.replay_self_s", med(func(l *layers) float64 { return float64(l.replaySelfNs()) / sec }), "s")
	r.set("sim.epochs", float64(first.epochs), "count")
	r.set("sim.reshapes", float64(first.epochs-first.replays), "count")
	r.set("sim.jobs_released", float64(first.released), "count")
	r.set("sim.jobs_completed", float64(first.completed), "count")
	r.set("sim.transition_late", float64(first.late), "count")
	r.set("sim.ns_per_job", med(func(l *layers) float64 { return float64(l.replaySelfNs()) / float64(max(l.released, 1)) }), "ns")
	r.set("sim.alloc_bytes_per_replay", med(func(l *layers) float64 { return float64(l.replayAlloc) / float64(max(l.replays, 1)) }), "B")
	r.set("trace.overhead_ratio", tracedWall.Seconds()/plainWall.Seconds(), "ratio")

	if err := w.valid(first); err != nil {
		r.fail("workload validity: %v", err)
	}
	r.note("traced rounds %d, spans kept %d, dropped %d", len(b.layerRounds), len(b.tr.kept), b.tr.dropped)
	for _, name := range sortedKeys(r.metrics) {
		r.note("%-34s %14.6g %s", name, r.metrics[name].Value, r.metrics[name].Unit)
	}
}

func sortedKeys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
