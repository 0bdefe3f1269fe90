package main

import (
	"math"
	"reflect"
	"testing"

	"repro"
	"repro/internal/sim"
)

func mustPrepare(t *testing.T, name string, seed int64) *fixture {
	t.Helper()
	fx, err := workloads[name].prepare(seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return fx
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := mustPrepare(t, name, 3), mustPrepare(t, name, 3)
		if !reflect.DeepEqual(a.streams, b.streams) {
			t.Errorf("%s: two preparations from seed 3 made different streams", name)
		}
		// The options hold a policy function, which DeepEqual never
		// matches, so compare the timelines and the option values apart.
		for i := range a.replays {
			ra, rb := a.replays[i], b.replays[i]
			if !reflect.DeepEqual(ra.stream, rb.stream) || !reflect.DeepEqual(ra.opts.Options, rb.opts.Options) {
				t.Errorf("%s: two preparations from seed 3 made different timeline %d", name, i)
			}
		}
		c := mustPrepare(t, name, 4)
		if reflect.DeepEqual(a.streams, c.streams) {
			t.Errorf("%s: seeds 3 and 4 made the same streams", name)
		}
	}
}

// hyperperiods maps each channel of the base problem to its hyperperiod.
func hyperperiods(t *testing.T, pr repro.Problem) map[[2]int]float64 {
	t.Helper()
	out := map[[2]int]float64{}
	for _, md := range []repro.Mode{repro.FT, repro.FS, repro.NF} {
		for ch, ts := range pr.Tasks.Channels(md) {
			if len(ts) == 0 {
				continue
			}
			h, err := ts.Hyperperiod(1000)
			if err != nil {
				t.Fatal(err)
			}
			out[[2]int{int(md), ch}] = h
		}
	}
	return out
}

func TestGeneratorsEmitValidTasks(t *testing.T) {
	for _, name := range workloadNames() {
		fx := mustPrepare(t, name, 5)
		hp := hyperperiods(t, fx.pr)
		var all []*stream
		all = append(all, fx.streams...)
		for _, rc := range fx.replays {
			all = append(all, &rc.stream)
		}
		for _, s := range all {
			events := s.unpack()
			if len(events) != len(s.want) {
				t.Fatalf("%s: %d events, %d verdicts", name, len(events), len(s.want))
			}
			for _, ev := range events {
				for _, g := range ev.Tasks {
					if err := g.Normalized().Validate(); err != nil {
						t.Errorf("%s: invalid guest: %v", name, err)
					}
					h, ok := hp[[2]int{int(g.Mode), g.Channel}]
					if name == "replay-storm" {
						continue
					}
					if !ok {
						t.Errorf("%s: guest %s on an empty channel", name, g.Name)
					}
					onGrid := math.Mod(h, g.T) == 0
					if onGrid != (name == "churn-grid") {
						t.Errorf("%s: guest %s period %g against channel hyperperiod %g", name, g.Name, g.T, h)
					}
				}
			}
		}
	}
}

// churned returns a manager after the first stream of a churn fixture.
func churned(t *testing.T, fx *fixture) (*repro.OnlineManager, *repro.CompiledProblem, repro.Config) {
	t.Helper()
	cp, cfg, err := fx.design()
	if err != nil {
		t.Fatal(err)
	}
	m, err := repro.NewOnlineManagerFromCompiled(cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := fx.streams[0]
	events := s.unpack()
	for i := range events {
		err, ar, _ := call(m, &events[i], kindOf(&events[i]), fx.pol)
		if v, _ := verdictOf(err, ar); v != s.want[i] {
			t.Fatalf("decision %d answered %d, recorded %d", i, v, s.want[i])
		}
	}
	return m, cp, cfg
}

func TestOracleRejectsPerturbedSlot(t *testing.T) {
	fx := mustPrepare(t, "churn-grid", 6)
	m, _, _ := churned(t, fx)
	cfg, live := m.Config(), m.Tasks()
	if err := checkOracle(cfg, live, fx.pr, nil); err != nil {
		t.Fatalf("live config fails the oracle: %v", err)
	}
	bad := cfg
	bad.Q.FS = math.Nextafter(bad.Q.FS, math.Inf(1))
	if checkOracle(bad, live, fx.pr, nil) == nil {
		t.Error("oracle accepted an FS slot one ulp too long")
	}
	extra := append(live, repro.Task{Name: "extra", C: 1, T: 10, D: 10, Mode: repro.FT})
	if checkOracle(cfg, extra, fx.pr, nil) == nil {
		t.Error("oracle accepted a configuration missing a task's demand")
	}
	if err := drain(m); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestReplayChecksRejectCorruptedResults(t *testing.T) {
	fx := mustPrepare(t, "churn-grid", 7)
	cp, cfg, err := fx.design()
	if err != nil {
		t.Fatal(err)
	}
	rc := fx.replays[0]
	replay := func() *repro.ScenarioResult {
		m, err := repro.NewOnlineManagerFromCompiled(cp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := repro.ReplayScenario(m, repro.Scenario{Events: rc.unpack()}, rc.opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := replay()
	if _, err := checkResidencies(res); err != nil {
		t.Fatalf("clean replay fails the residency check: %v", err)
	}
	if err := checkVerdicts(res, rc.want); err != nil {
		t.Fatalf("clean replay fails the verdict check: %v", err)
	}

	missed := replay()
	for _, rr := range missed.Residencies {
		if rr.Task.Mode != repro.FS && rr.Stats.Released > 0 {
			rr.Stats.Missed++
			missed.Tasks[rr.Task.Name].Missed++
			break
		}
	}
	if _, err := checkResidencies(missed); err == nil {
		t.Error("residency check accepted a missed deadline")
	}

	dropped := replay()
	for i, rr := range dropped.Residencies {
		if rr.Stats.Released > 0 {
			dropped.Residencies = append(dropped.Residencies[:i], dropped.Residencies[i+1:]...)
			break
		}
	}
	if _, err := checkResidencies(dropped); err == nil {
		t.Error("residency check accepted a dropped residency")
	}

	flipped := append([]verdict(nil), rc.want...)
	flipped[0] ^= 1
	if checkVerdicts(res, flipped) == nil {
		t.Error("verdict check accepted a flipped verdict")
	}
}

func TestFailSilentMissesExemptOnlyUnderFaults(t *testing.T) {
	res := &repro.ScenarioResult{}
	res.Tasks = map[string]*sim.TaskStats{}
	st := &sim.TaskStats{Released: 3, Completed: 2, Missed: 1}
	res.Tasks["fs"] = st
	res.Residencies = []repro.Residency{{Task: repro.Task{Name: "fs", Mode: repro.FS}, Stats: st}}
	if _, err := checkResidencies(res); err == nil {
		t.Error("fail-silent miss without faults accepted")
	}
	res.TotalFaults = 1
	if late, err := checkResidencies(res); err != nil || late != 1 {
		t.Errorf("fail-silent miss under faults: late %d, err %v; want 1, nil", late, err)
	}
}

// TestSameSeedSameDigest runs each workload twice from one seed and
// compares the digests, the failed checks and the deterministic
// per-layer counts.
func TestSameSeedSameDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	counts := []string{
		"online.decisions.admit", "online.decisions.partial", "online.decisions.revoke",
		"online.rejected", "analysis.fallback_ratio", "sim.jobs_released", "sim.jobs_completed",
	}
	for _, name := range workloadNames() {
		var digests [2]string
		var layer [2]map[string]metric
		var failures [2][]string
		for i := range digests {
			fx := mustPrepare(t, name, 11)
			rep, err := measure(fx, workloads[name], options{workload: name, seed: 11, seconds: 0.01, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.broken {
				t.Fatalf("%s: rounds disagree: %v", name, rep.notes)
			}
			if rep.failed != 0 {
				t.Errorf("%s: %d failed checks: %q", name, rep.failed, rep.failures)
			}
			failures[i] = rep.failures
			for _, n := range rep.notes {
				if len(n) > 7 && n[:7] == "digest " {
					digests[i] = n
				}
			}
			layer[i] = rep.metrics
		}
		if !reflect.DeepEqual(failures[0], failures[1]) {
			t.Errorf("%s: failures %q then %q", name, failures[0], failures[1])
		}
		if digests[0] == "" || digests[0] != digests[1] {
			t.Errorf("%s: digests %q and %q", name, digests[0], digests[1])
		}
		for _, c := range counts {
			if layer[0][c] != layer[1][c] {
				t.Errorf("%s: %s is %v then %v", name, c, layer[0][c], layer[1][c])
			}
		}
	}
}

// TestPackRoundTrip checks that a packed stream unpacks to the calls it
// was made from, also through a buffer another stream used before.
func TestPackRoundTrip(t *testing.T) {
	fx := mustPrepare(t, "churn-offgrid", 8)
	cp, cfg, err := fx.design()
	if err != nil {
		t.Fatal(err)
	}
	churn, _, err := recordChurn(cp, cfg, true, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	var buf eventBuf
	for _, evs := range [][]repro.WorkloadEvent{stormTimeline(8), churn, stormTimeline(9)} {
		p := pack(evs)
		if got := p.load(&buf); !reflect.DeepEqual(got, evs) {
			t.Fatalf("unpacked %d calls differ from the %d packed", len(got), len(evs))
		}
		if !reflect.DeepEqual(p.unpack(), evs) {
			t.Fatal("unpack differs from the packed calls")
		}
	}
}
