package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/region"
	"repro/internal/task"
)

func maxFlexManager(t *testing.T) *Manager {
	t.Helper()
	pr := core.Problem{
		Tasks: task.PaperTaskSet(),
		Alg:   analysis.EDF,
		O:     core.UniformOverheads(task.PaperOverheadTotal),
	}
	sol, err := design.Solve(pr, design.MaxFlexibility, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(pr, sol.Config)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerRejectsBadConfig(t *testing.T) {
	pr := core.Problem{
		Tasks: task.PaperTaskSet(),
		Alg:   analysis.EDF,
		O:     core.UniformOverheads(task.PaperOverheadTotal),
	}
	if _, err := NewManager(pr, core.Config{P: 1}); err == nil {
		t.Error("unverifiable config should be rejected")
	}
	if _, err := NewManager(core.Problem{}, core.Config{}); err == nil {
		t.Error("invalid problem should be rejected")
	}
}

func TestAdmitSmallTask(t *testing.T) {
	m := maxFlexManager(t)
	before := m.Slack()
	// A light task on NF channel 3 — the binding channel (it holds τ5,
	// whose minQ sets the NF slot) — so the slot must actually grow.
	err := m.Admit(task.Task{Name: "newcomer", C: 0.3, T: 12, Mode: task.NF, Channel: 3})
	if err != nil {
		t.Fatalf("small task should be admitted with 12%% slack available: %v", err)
	}
	after := m.Slack()
	if after >= before {
		t.Errorf("slack should shrink: %.4f → %.4f", before, after)
	}
	// Admission onto a non-binding channel can be free: the mode slot is
	// sized by its worst channel.
	if err := m.Admit(task.Task{Name: "free-rider", C: 0.05, T: 12, Mode: task.NF, Channel: 0}); err != nil {
		t.Fatalf("free-rider should be admitted: %v", err)
	}
	if len(m.Tasks()) != 15 {
		t.Errorf("task count %d, want 15", len(m.Tasks()))
	}
	// The new configuration still carries full guarantees.
	pr := core.Problem{Tasks: m.Tasks(), Alg: analysis.EDF, O: core.UniformOverheads(task.PaperOverheadTotal)}
	if err := pr.Verify(m.Config()); err != nil {
		t.Errorf("post-admission configuration unverifiable: %v", err)
	}
}

func TestAdmitHugeTaskRejected(t *testing.T) {
	m := maxFlexManager(t)
	cfgBefore := m.Config()
	err := m.Admit(task.Task{Name: "monster", C: 5, T: 10, Mode: task.FT, Channel: 0})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("monster task should be rejected, got %v", err)
	}
	if m.Config() != cfgBefore {
		t.Error("rejected admission must leave the configuration untouched")
	}
	if len(m.Tasks()) != 13 {
		t.Error("rejected admission must leave the task set untouched")
	}
}

func TestAdmitDuplicateName(t *testing.T) {
	m := maxFlexManager(t)
	err := m.Admit(task.Task{Name: "tau1", C: 0.1, T: 12, Mode: task.NF})
	if !errors.Is(err, ErrRejected) {
		t.Errorf("duplicate name should be rejected, got %v", err)
	}
}

func TestAdmitInvalidTask(t *testing.T) {
	m := maxFlexManager(t)
	if err := m.Admit(task.Task{Name: "bad", C: -1, T: 10, Mode: task.NF}); !errors.Is(err, ErrRejected) {
		t.Errorf("invalid task should be rejected, got %v", err)
	}
}

// TestAdmitNonFiniteTask pins two reproduced bugs: a task with C = NaN
// used to be admitted and could then never be removed (its profile
// entry never compared equal), and one with T = +Inf panicked in the
// hyperperiod fold. Both must come back as typed invalid-task
// rejections that leave the manager untouched.
func TestAdmitNonFiniteTask(t *testing.T) {
	m := maxFlexManager(t)
	before := m.Tasks()
	for _, tk := range []task.Task{
		{Name: "nanC", C: math.NaN(), T: 10, D: 10, Mode: task.NF},
		{Name: "infT", C: 0.1, T: math.Inf(1), Mode: task.NF},
		{Name: "infD", C: 0.1, T: 10, D: math.Inf(1), Mode: task.NF},
	} {
		err := m.Admit(tk)
		var rej *Rejection
		if !errors.As(err, &rej) || len(rej.Verdicts) != 1 || rej.Verdicts[0].Code != VerdictInvalid {
			t.Fatalf("Admit(%s) = %v, want a VerdictInvalid rejection", tk.Name, err)
		}
		if _, found := m.Tasks().Find(tk.Name); found {
			t.Fatalf("%s admitted", tk.Name)
		}
	}
	if got := m.Tasks(); len(got) != len(before) {
		t.Fatalf("rejections changed the task set: %d tasks, want %d", len(got), len(before))
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckProfiles(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitHyperperiodOutOfRange pins two reproduced failures of the
// hyperperiod fold: three nearly coprime periods whose LCM overflows
// int64 panicked inside AdmitBatch, and a period of 1e12 made the
// channel compile enumerate about 1e11 deadlines. Both must come back
// promptly as VerdictInvalid rejections that leave the manager as it
// was, through AdmitBatch and AdmitBatchPartial alike.
func TestAdmitHyperperiodOutOfRange(t *testing.T) {
	m := maxFlexManager(t)
	before := m.Config()
	for _, c := range []struct {
		name  string
		batch []task.Task
	}{
		{"LCM overflow", []task.Task{
			{Name: "p1", C: 0.01, T: 999983, Mode: task.NF},
			{Name: "p2", C: 0.01, T: 999979, Mode: task.NF},
			{Name: "p3", C: 0.01, T: 999961, Mode: task.NF},
		}},
		{"stream cap", []task.Task{{Name: "huge", C: 0.01, T: 1e12, Mode: task.NF}}},
	} {
		start := time.Now()
		err := m.AdmitBatch(c.batch)
		var rej *Rejection
		if !errors.As(err, &rej) || len(rej.Verdicts) == 0 || rej.Verdicts[0].Code != VerdictInvalid ||
			!strings.Contains(rej.Verdicts[0].Detail, "hyperperiod") {
			t.Fatalf("%s: AdmitBatch = %v, want a VerdictInvalid hyperperiod rejection", c.name, err)
		}
		report, err := m.AdmitBatchPartial(c.batch, Policy{})
		if err != nil {
			t.Fatalf("%s: AdmitBatchPartial: %v", c.name, err)
		}
		if len(report.Admitted) != 0 || len(report.Rejected) != len(c.batch) {
			t.Fatalf("%s: partial admitted %d, rejected %d of %d", c.name, len(report.Admitted), len(report.Rejected), len(c.batch))
		}
		for _, v := range report.Rejected {
			if v.Code != VerdictInvalid {
				t.Fatalf("%s: partial verdict %v, want invalid", c.name, v)
			}
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("%s: rejections took %v", c.name, d)
		}
		if got := m.Config(); got != before {
			t.Fatalf("%s: rejections changed the config: %+v, want %+v", c.name, got, before)
		}
		if err := m.CheckProfiles(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	// The names stay free: a valid task under one of them is admitted.
	if err := m.Admit(task.Task{Name: "p1", C: 0.01, T: 12, Mode: task.NF}); err != nil {
		t.Fatalf("name leaked by the rejected batch: %v", err)
	}
}

func TestRemoveReclaimsSlack(t *testing.T) {
	m := maxFlexManager(t)
	before := m.Slack()
	if err := m.Remove("tau9"); err != nil {
		t.Fatal(err)
	}
	if m.Slack() <= before {
		t.Errorf("removing the heaviest FS task should grow slack: %.4f → %.4f", before, m.Slack())
	}
	if _, found := m.Tasks().Find("tau9"); found {
		t.Error("tau9 still present after removal")
	}
	if err := m.Remove("tau9"); err == nil {
		t.Error("removing an absent task should fail")
	}
}

func TestAdmitRemoveRoundTrip(t *testing.T) {
	m := maxFlexManager(t)
	slack0 := m.Slack()
	nt := task.Task{Name: "guest", C: 0.15, T: 10, Mode: task.FS, Channel: 1}
	if err := m.Admit(nt); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("guest"); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Slack()-slack0) > 1e-9 {
		t.Errorf("slack not restored after round trip: %.6f vs %.6f", m.Slack(), slack0)
	}
}

func TestRandomChurnKeepsGuarantees(t *testing.T) {
	// Property: after any sequence of admissions and removals, the live
	// configuration always verifies against the live task set.
	m := maxFlexManager(t)
	rng := rand.New(rand.NewSource(23))
	guests := 0
	for step := 0; step < 60; step++ {
		if rng.Intn(2) == 0 {
			mode := task.Modes()[rng.Intn(3)]
			tk := task.Task{
				Name:    string(rune('A' + step)),
				C:       0.05 + rng.Float64()*0.3,
				T:       []float64{8, 10, 12, 20}[rng.Intn(4)],
				Mode:    mode,
				Channel: rng.Intn(mode.Channels()),
			}
			if err := m.Admit(tk); err == nil {
				guests++
			} else if !errors.Is(err, ErrRejected) {
				t.Fatalf("unexpected error class: %v", err)
			}
		} else if guests > 0 {
			// Remove one guest (paper tasks stay).
			for _, tk := range m.Tasks() {
				if len(tk.Name) == 1 {
					if err := m.Remove(tk.Name); err != nil {
						t.Fatal(err)
					}
					guests--
					break
				}
			}
		}
		pr := core.Problem{Tasks: m.Tasks(), Alg: analysis.EDF, O: core.UniformOverheads(task.PaperOverheadTotal)}
		if err := pr.Verify(m.Config()); err != nil {
			t.Fatalf("step %d: live configuration unverifiable: %v", step, err)
		}
		if m.Slack() < -1e-9 {
			t.Fatalf("step %d: negative slack %g", step, m.Slack())
		}
	}
	if guests == 0 {
		t.Log("note: no guest admissions succeeded; churn exercised removals only")
	}
}

func TestConcurrentAccess(t *testing.T) {
	// The manager serialises reconfigurations; hammer it from several
	// goroutines and rely on the race detector.
	m := maxFlexManager(t)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 20; i++ {
				name := string(rune('a'+g)) + string(rune('0'+i%10))
				if err := m.Admit(task.Task{Name: name, C: 0.05, T: 10, Mode: task.NF, Channel: g}); err == nil {
					_ = m.Remove(name)
				}
				_ = m.Slack()
				_ = m.Config()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	pr := core.Problem{Tasks: m.Tasks(), Alg: analysis.EDF, O: core.UniformOverheads(task.PaperOverheadTotal)}
	if err := pr.Verify(m.Config()); err != nil {
		t.Errorf("configuration unverifiable after concurrent churn: %v", err)
	}
}

// TestAdmitRejectsUnnamedTask pins the admission-semantics fix: an
// anonymous task would bypass the duplicate check and be unremovable
// (Remove addresses tasks by name), so Admit must reject it up front.
func TestAdmitRejectsUnnamedTask(t *testing.T) {
	m := maxFlexManager(t)
	before := len(m.Tasks())
	err := m.Admit(task.Task{C: 0.05, T: 12, Mode: task.NF, Channel: 0})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("unnamed task should be rejected with ErrRejected, got %v", err)
	}
	if len(m.Tasks()) != before {
		t.Error("rejected unnamed task changed the task set")
	}
	if err := m.Remove(""); err == nil {
		t.Error("Remove by empty name should fail rather than pick an arbitrary task")
	}
}

// TestManagerChurnProfilesBitIdentical is the run-time side of the
// incremental-exactness property: after every successful admit/remove,
// each cached channel profile must be bit-identical (pruned pairs) to a
// fresh analysis.Compile of the channel's surviving tasks — including
// remove-then-readmit round trips over the same names.
func TestManagerChurnProfilesBitIdentical(t *testing.T) {
	m := maxFlexManager(t)
	rng := rand.New(rand.NewSource(31))
	check := func(stage string) {
		t.Helper()
		tasks := m.Tasks()
		for _, mode := range task.Modes() {
			for ch, sub := range tasks.Channels(mode) {
				fresh, err := analysis.Compile(sub, m.alg)
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if !m.channels[mode][ch].prof.Equal(fresh) {
					t.Fatalf("%s: mode %s channel %d: cached profile not bit-identical to fresh Compile",
						stage, mode, ch)
				}
			}
		}
	}
	check("initial")
	pool := []task.Task{
		{Name: "g1", C: 0.1, T: 10, Mode: task.NF, Channel: 3},
		{Name: "g2", C: 0.08, T: 8, D: 6, Mode: task.FS, Channel: 1},
		{Name: "g3", C: 0.05, T: 12, Mode: task.NF, Channel: 0},
		{Name: "g4", C: 0.1, T: 7, Mode: task.NF, Channel: 2}, // stretches the channel hyperperiod
		{Name: "g5", C: 0.02, T: 4, D: 3, Mode: task.FS, Channel: 0},
	}
	for step := 0; step < 80; step++ {
		g := pool[rng.Intn(len(pool))]
		if _, present := m.Tasks().Find(g.Name); present {
			if err := m.Remove(g.Name); err != nil {
				t.Fatalf("step %d: remove %s: %v", step, g.Name, err)
			}
			check("remove " + g.Name)
		} else if err := m.Admit(g); err == nil {
			check("admit " + g.Name)
		} else if !errors.Is(err, ErrRejected) {
			t.Fatalf("step %d: unexpected error class: %v", step, err)
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("live configuration fails the theorem oracle after churn: %v", err)
	}
}

// TestReshapeBoundaryToleranceMatchesDesign is the regression test for
// the slot-fit tolerance mismatch: reshape used to reject with a 1e-12
// tolerance while core.ConfigFor, Config.Validate and Problem.Verify
// accept up to core.SlotFitTol = 1e-9, so a boundary configuration the
// design layer accepts was rejected when the identical reshape arrived
// online. The test manufactures an admission whose post-reshape slot
// total lands strictly inside (P + 1e-12, P + SlotFitTol] — accepted by
// design, formerly rejected online — and one beyond the shared
// tolerance, which both layers must reject.
func TestReshapeBoundaryToleranceMatchesDesign(t *testing.T) {
	const P = 2.0
	resident := task.Task{Name: "r1", C: 0.3, T: 3, D: 3, Mode: task.FT, Channel: 0}
	guest := task.Task{Name: "guest", C: 0.2, T: 3, D: 3, Mode: task.FT, Channel: 0}
	curProf, err := analysis.Compile(task.Set{resident}, analysis.EDF)
	if err != nil {
		t.Fatal(err)
	}
	nextProf, err := analysis.Compile(task.Set{resident, guest}, analysis.EDF)
	if err != nil {
		t.Fatal(err)
	}
	curSlot, newSlot := curProf.MinQ(P), nextProf.MinQ(P)
	if newSlot <= curSlot {
		t.Fatal("test construction: guest does not grow the slot")
	}
	// Build a manager whose FS slot is pure filler (no FS/NF tasks, zero
	// overheads) sized so that admitting the guest drives the slot total
	// to exactly P + eps.
	tryAdmit := func(eps float64) (total float64, err error) {
		filler := P + eps - newSlot
		cfg := core.Config{P: P, Q: core.PerMode{FT: curSlot, FS: filler}}
		pr := core.Problem{Tasks: task.Set{resident}, Alg: analysis.EDF}
		m, err := NewManager(pr, cfg)
		if err != nil {
			t.Fatalf("eps=%g: initial manager rejected: %v", eps, err)
		}
		admitErr := m.Admit(guest)
		return newSlot + filler, admitErr
	}
	total, err := tryAdmit(0.5 * core.SlotFitTol)
	if total <= P+1e-12 || total > P+core.SlotFitTol {
		t.Fatalf("test construction: total %x not in the regression window (P=%x)", total, P)
	}
	if err != nil {
		t.Errorf("boundary reshape within SlotFitTol rejected online but accepted by design: %v", err)
	}
	if _, err := tryAdmit(10 * core.SlotFitTol); !errors.Is(err, ErrRejected) {
		t.Errorf("reshape beyond SlotFitTol should be rejected, got %v", err)
	}
	// The rejection must report the requested slot next to the actual
	// maximum the mode could take — P minus the slots held by the other
	// modes — not a meaningless slack+slot sum. With the slot total at
	// P + 0.05, the FT slot's ceiling is exactly newSlot − 0.05.
	_, err = tryAdmit(0.05)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("overfull reshape should be rejected, got %v", err)
	}
	msg := err.Error()
	if want := fmt.Sprintf("mode FT needs slot %.6f", newSlot); !strings.Contains(msg, want) {
		t.Errorf("rejection %q does not report the requested slot (%q)", msg, want)
	}
	if want := fmt.Sprintf("but at most %.6f fits", newSlot-0.05); !strings.Contains(msg, want) {
		t.Errorf("rejection %q does not report the mode's admissible maximum (%q)", msg, want)
	}
}
