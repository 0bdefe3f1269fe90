package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro"
)

// checkOracle fails unless cfg is bit-identical to the from-scratch
// solve of live at cfg's period: a fresh Compile of the live set, then
// ConfigFor. pr supplies the algorithm and overheads. A non-nil span
// receives the two steps' times.
func checkOracle(cfg repro.Config, live repro.TaskSet, pr repro.Problem, span func(name spanName, start, end time.Time)) error {
	t0 := time.Now()
	cp, err := repro.Compile(repro.Problem{Tasks: live, Alg: pr.Alg, O: pr.O})
	if err != nil {
		return fmt.Errorf("oracle compile: %w", err)
	}
	t1 := time.Now()
	want, err := cp.ConfigFor(cfg.P)
	if err != nil {
		return fmt.Errorf("oracle solve: %w", err)
	}
	if span != nil {
		span(spanOracleCompile, t0, t1)
		span(spanCoreConfigFor, t1, time.Now())
	}
	return sameConfig(cfg, want)
}

// sameConfig compares two configurations bit for bit.
func sameConfig(got, want repro.Config) error {
	g := []float64{got.P, got.Q.FT, got.Q.FS, got.Q.NF, got.O.FT, got.O.FS, got.O.NF}
	w := []float64{want.P, want.Q.FT, want.Q.FS, want.Q.NF, want.O.FT, want.O.FS, want.O.NF}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return fmt.Errorf("live config %+v differs from the from-scratch solve %+v", got, want)
		}
	}
	return nil
}

// drain removes every live and parked task one name at a time; each
// removal must succeed and the manager must end empty, so nothing
// admitted is left unremovable.
func drain(m *repro.OnlineManager) error {
	names := append(m.Tasks().Names(), m.Parked().Names()...)
	for _, name := range names {
		if err := m.Remove(name); err != nil {
			return fmt.Errorf("drain: remove %q: %w", name, err)
		}
	}
	if n, p := len(m.Tasks()), len(m.Parked()); n != 0 || p != 0 {
		return fmt.Errorf("drain: %d live and %d parked tasks left after removing every name", n, p)
	}
	return nil
}

// checkVerdicts fails unless the replay answered every event the way
// the recorded run did.
func checkVerdicts(res *repro.ScenarioResult, want []verdict) error {
	if len(res.Outcomes) != len(want) {
		return fmt.Errorf("replay reported %d outcomes for %d events", len(res.Outcomes), len(want))
	}
	for i, out := range res.Outcomes {
		got := accepted
		switch {
		case out.Err == nil:
		case errors.Is(out.Err, repro.ErrAdmissionRejected):
			got = rejected
		default:
			return fmt.Errorf("event %d: %w", i, out.Err)
		}
		if got != want[i] {
			return fmt.Errorf("event %d answered %d, the recorded run %d", i, got, want[i])
		}
	}
	return nil
}

// checkResidencies applies the closed-loop residency invariant to a
// replay: no admitted task misses a deadline released during its
// residency, except fail-silent ones while faults are injected (those
// are counted in fsLate). Transition-late jobs are reported apart and
// are not misses. The residency list must also account for every job
// the per-task totals hold, so a dropped residency is caught.
func checkResidencies(res *repro.ScenarioResult) (fsLate int, err error) {
	faulty := res.TotalFaults > 0
	var released, completed, missed, late int
	seen := make(map[string]bool, len(res.Tasks))
	for _, rr := range res.Residencies {
		seen[rr.Task.Name] = true
		released += rr.Stats.Released
		completed += rr.Stats.Completed
		missed += rr.Stats.Missed
		late += rr.Stats.TransitionLate
		if rr.Stats.Missed == 0 {
			continue
		}
		if faulty && rr.Task.Mode == repro.FS {
			fsLate += rr.Stats.Missed
			continue
		}
		return fsLate, fmt.Errorf("%s on %s/%d missed %d deadlines in [%s, %s)",
			rr.Task.Name, rr.Task.Mode, rr.Task.Channel, rr.Stats.Missed, rr.From, rr.To)
	}
	if released != res.TotalReleased() || completed != res.TotalCompleted() ||
		missed != res.TotalMisses() || late != res.TotalTransitionLate() {
		return fsLate, fmt.Errorf("residencies hold %d/%d/%d/%d released/completed/missed/late jobs, the task totals %d/%d/%d/%d",
			released, completed, missed, late, res.TotalReleased(), res.TotalCompleted(), res.TotalMisses(), res.TotalTransitionLate())
	}
	for name := range res.Tasks {
		if !seen[name] {
			return fsLate, fmt.Errorf("task %s has totals but no residency", name)
		}
	}
	return fsLate, nil
}
