package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro"
)

// The churn workloads run a long closed-loop stream of manager write
// calls against one fixed mixed-mode base system. The base is made
// once, from a fixed workload seed, so -seed varies the op stream and
// not the size of the platform; its periods come from a grid whose
// least common multiple is 120, so every channel hyperperiod divides 120.
const (
	churnBaseSeed = 1
	churnBaseN    = 28
	churnBaseU    = 0.9
	// A round drives churnStreams independent closed-loop streams of
	// churnStreamLen decisions each, enough for the capped live set to
	// reach steady state many times over; many streams per seed keep
	// the figures of one seed close to those of another.
	churnStreams   = 16
	churnStreamLen = 600
	// churnReplays short streams of churnReplayLen decisions are also
	// replayed through the scenario runtime every round, so the churn
	// workloads report replay figures too.
	churnReplays     = 256
	churnReplayLen   = 32
	churnReplayUnits = 60.0
	// slotsPerChannel caps the guests one channel holds at a time; the
	// live set is capped at slotsPerChannel per populated channel.
	slotsPerChannel = 2
)

var churnPeriods = []float64{4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120}

// offgridPeriods holds one period class per guest slot of a channel.
// Every class carries a prime power (9, 16) that divides no base
// hyperperiod, so the first guest of a class moves its channel's
// hyperperiod and the last one to leave moves it back; with one guest
// per class per channel the hyperperiod divides lcm(120, 9, 16) = 720.
var offgridPeriods = [slotsPerChannel][]float64{{9, 18, 36}, {16, 48, 80}}

// churnBase is the churn workloads' base problem.
func churnBase() (repro.Problem, error) {
	base, err := repro.GenerateWorkload(repro.WorkloadConfig{
		N: churnBaseN, TotalUtilization: churnBaseU, Periods: churnPeriods, Seed: churnBaseSeed,
	})
	if err != nil {
		return repro.Problem{}, err
	}
	return repro.NewProblem(base, repro.EDF, repro.PaperOverheadTotal)
}

// guestPolicy values base tasks above guests, so Revoke evicts guests
// and Restore readmits them; base tasks stay put.
var guestPolicy = repro.AdmissionPolicy{Value: func(t repro.Task) float64 {
	if strings.HasPrefix(t.Name, "g") {
		return 1
	}
	return 2
}}

// lane is one populated channel as the churn client sees it.
type lane struct {
	mode    repro.Mode
	ch      int
	periods [slotsPerChannel][]float64
	// occupant names the guest holding each slot ("" when free). A
	// parked guest keeps its slot until it is removed.
	occupant [slotsPerChannel]string
}

type slotRef struct{ lane, slot int }

// churnClient is the closed-loop client behind the churn workloads: it
// picks its next call from the answers to the previous ones, keeping at
// most slotsPerChannel guests per channel.
type churnClient struct {
	rng    *rand.Rand
	period float64
	lanes  []lane
	held   map[string]slotRef
	next   int
	// restore is the capacity the next call gives back: every Revoke is
	// followed at once by the matching Restore.
	restore float64
}

func newChurnClient(pr repro.Problem, cfg repro.Config, offgrid bool, seed int64) *churnClient {
	c := &churnClient{rng: rand.New(rand.NewSource(seed)), period: cfg.P, held: map[string]slotRef{}}
	for _, md := range []repro.Mode{repro.FT, repro.FS, repro.NF} {
		for ch, tasks := range pr.Tasks.Channels(md) {
			if len(tasks) == 0 {
				continue
			}
			l := lane{mode: md, ch: ch}
			for s := range l.periods {
				if offgrid {
					l.periods[s] = offgridPeriods[s]
				} else {
					l.periods[s] = channelPeriods(tasks)
				}
			}
			c.lanes = append(c.lanes, l)
		}
	}
	return c
}

// channelPeriods lists the distinct periods of a channel's tasks in
// first-seen order; each divides the channel hyperperiod.
func channelPeriods(tasks repro.TaskSet) []float64 {
	var out []float64
	for _, t := range tasks {
		seen := false
		for _, p := range out {
			seen = seen || p == t.T
		}
		if !seen {
			out = append(out, t.T)
		}
	}
	return out
}

func (c *churnClient) slots(free bool) []slotRef {
	var out []slotRef
	for i := range c.lanes {
		for s, name := range c.lanes[i].occupant {
			if (name == "") == free {
				out = append(out, slotRef{i, s})
			}
		}
	}
	return out
}

// take draws up to n distinct slots from refs.
func (c *churnClient) take(refs []slotRef, n int) []slotRef {
	c.rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	return refs[:min(n, len(refs))]
}

func (c *churnClient) guest(ref slotRef) repro.Task {
	l := &c.lanes[ref.lane]
	ps := l.periods[ref.slot]
	T := ps[c.rng.Intn(len(ps))]
	u := 0.04 + 0.12*c.rng.Float64()
	name := fmt.Sprintf("g%d", c.next)
	c.next++
	return repro.Task{Name: name, C: u * T, T: T, D: T, Mode: l.mode, Channel: l.ch}
}

// nextEvent picks the client's next call. Admissions only target free
// slots and removals only held ones, so every rejection is a capacity
// verdict and every admitted name is later removable.
func (c *churnClient) nextEvent() repro.WorkloadEvent {
	if c.restore > 0 {
		ev := repro.WorkloadEvent{Kind: repro.EventRestore, Capacity: c.restore}
		c.restore = 0
		return ev
	}
	free, held := c.slots(true), c.slots(false)
	r := c.rng.Intn(100)
	switch {
	case r >= 92:
		c.restore = (0.005 + 0.015*c.rng.Float64()) * c.period
		return repro.WorkloadEvent{Kind: repro.EventRevoke, Capacity: c.restore}
	case r < 54 && len(free) == 0:
		r = 54 // nothing free: remove instead
	case r >= 54 && len(held) == 0:
		r = 0 // nothing held: admit instead
	}
	n := 1
	if (r >= 30 && r < 54) || r >= 80 {
		n = 2 + c.rng.Intn(2)
	}
	if r >= 54 {
		ev := repro.WorkloadEvent{Kind: repro.EventRemove}
		for _, ref := range c.take(held, n) {
			ev.Names = append(ev.Names, c.lanes[ref.lane].occupant[ref.slot])
		}
		return ev
	}
	ev := repro.WorkloadEvent{Kind: repro.EventAdmit}
	if r >= 44 {
		ev.Kind = repro.EventAdmitPartial
	}
	for _, ref := range c.take(free, n) {
		ev.Tasks = append(ev.Tasks, c.guest(ref))
	}
	return ev
}

// observe updates the client's view from the answer to ev: admitted
// guests take their slots, removed ones free them. Evicted guests keep
// their slots, because their names stay claimed while they are parked.
func (c *churnClient) observe(ev *repro.WorkloadEvent, o outcome) {
	for _, t := range o.added {
		if _, ok := c.held[t.Name]; ok || !strings.HasPrefix(t.Name, "g") {
			continue
		}
		for i := range c.lanes {
			l := &c.lanes[i]
			if l.mode != t.Mode || l.ch != t.Channel {
				continue
			}
			for s := range l.occupant {
				if l.occupant[s] == "" && inPeriods(l.periods[s], t.T) {
					l.occupant[s] = t.Name
					c.held[t.Name] = slotRef{i, s}
					break
				}
			}
			break
		}
	}
	if ev.Kind == repro.EventRemove && o.v == accepted {
		for _, name := range ev.Names {
			if ref, ok := c.held[name]; ok {
				c.lanes[ref.lane].occupant[ref.slot] = ""
				delete(c.held, name)
			}
		}
	}
}

func inPeriods(ps []float64, T float64) bool {
	for _, p := range ps {
		if p == T {
			return true
		}
	}
	return false
}

// recordChurn runs the closed-loop client for n decisions against a
// fresh manager and returns the calls it made with the answers it got.
func recordChurn(cp *repro.CompiledProblem, cfg repro.Config, offgrid bool, seed int64, n int) ([]repro.WorkloadEvent, []verdict, error) {
	pr := cp.Problem()
	m, err := repro.NewOnlineManagerFromCompiled(cp, cfg)
	if err != nil {
		return nil, nil, err
	}
	c := newChurnClient(pr, cfg, offgrid, seed)
	live, parked := liveMap(pr.Tasks), map[string]repro.Task{}
	var (
		evs  []repro.WorkloadEvent
		want []verdict
	)
	for i := 0; i < n; i++ {
		ev := c.nextEvent()
		k := kindOf(&ev)
		err, rep, deg := call(m, &ev, k, guestPolicy)
		o := classify(&ev, k, err, rep, deg, live, parked)
		if o.v == broken {
			return nil, nil, fmt.Errorf("decision %d (%s): %w", i, k, o.err)
		}
		c.observe(&ev, o)
		evs = append(evs, ev)
		want = append(want, o.v)
	}
	return evs, want, nil
}

func liveMap(ts repro.TaskSet) map[string]repro.Task {
	out := make(map[string]repro.Task, len(ts))
	for _, t := range ts {
		out[t.Name] = t.Normalized()
	}
	return out
}

// prepareChurn builds a churn workload's inputs: the long decision
// stream and the short streams laid out as scenario timelines.
func prepareChurn(offgrid bool) func(seed int64) (*fixture, error) {
	return func(seed int64) (*fixture, error) {
		pr, err := churnBase()
		if err != nil {
			return nil, err
		}
		fx := &fixture{pr: pr, goal: repro.MaxFlexibility, pol: guestPolicy}
		cp, cfg, err := fx.design()
		if err != nil {
			return nil, err
		}
		for i := 0; i < churnStreams; i++ {
			evs, want, err := recordChurn(cp, cfg, offgrid, seed*1000+int64(i), churnStreamLen)
			if err != nil {
				return nil, err
			}
			fx.streams = append(fx.streams, &stream{pack(evs), want})
		}
		for i := 0; i < churnReplays; i++ {
			evs, want, err := recordChurn(cp, cfg, offgrid, seed*1000+500+int64(i), churnReplayLen)
			if err != nil {
				return nil, err
			}
			spreadEvents(evs, churnReplayUnits)
			fx.replays = append(fx.replays, &replayCase{
				stream: stream{pack(evs), want},
				opts: repro.ScenarioOptions{
					Options: repro.SimOptions{Horizon: repro.FromUnits(churnReplayUnits)},
					Policy:  guestPolicy,
				},
			})
		}
		return fx, nil
	}
}

// spreadEvents times a recorded stream across the middle of a horizon,
// one event per step, so every accepted change executes for a while.
func spreadEvents(evs []repro.WorkloadEvent, horizonUnits float64) {
	start, end := 0.05*horizonUnits, 0.9*horizonUnits
	step := (end - start) / float64(len(evs))
	for i := range evs {
		evs[i].At = repro.FromUnits(start + float64(i)*step)
	}
}
