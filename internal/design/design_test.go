package design

import (
	"errors"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/region"
	"repro/internal/task"
)

func paperProblem() core.Problem {
	return core.Problem{
		Tasks: task.PaperTaskSet(),
		Alg:   analysis.EDF,
		O:     core.UniformOverheads(task.PaperOverheadTotal),
	}
}

const paperTol = 1e-3

func TestGoalStrings(t *testing.T) {
	if MinOverheadBandwidth.String() != "min-overhead-bandwidth" || MaxFlexibility.String() != "max-flexibility" {
		t.Error("Goal.String mismatch")
	}
	for _, s := range []string{"min-overhead-bandwidth", "max-period", "max-flexibility", "max-slack"} {
		if _, err := ParseGoal(s); err != nil {
			t.Errorf("ParseGoal(%q): %v", s, err)
		}
	}
	if _, err := ParseGoal("nope"); err == nil {
		t.Error("ParseGoal should reject unknown goals")
	}
}

func TestTable2bMaxPeriodSolution(t *testing.T) {
	sol, err := Solve(paperProblem(), MinOverheadBandwidth, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Table 2(b): P = 2.966, O_tot/P = 0.017, Q̃ = 0.820/1.281/0.815,
	// alloc. util. 0.276/0.432/0.275, slack 0.
	if math.Abs(sol.Config.P-2.966) > paperTol {
		t.Errorf("P = %.4f, want 2.966", sol.Config.P)
	}
	if math.Abs(sol.OverheadBandwidth-0.017) > paperTol {
		t.Errorf("overhead bandwidth = %.4f, want 0.017", sol.OverheadBandwidth)
	}
	if math.Abs(sol.Quanta.FT-0.820) > paperTol ||
		math.Abs(sol.Quanta.FS-1.281) > paperTol ||
		math.Abs(sol.Quanta.NF-0.815) > paperTol {
		t.Errorf("quanta = %.3f/%.3f/%.3f, want 0.820/1.281/0.815",
			sol.Quanta.FT, sol.Quanta.FS, sol.Quanta.NF)
	}
	if math.Abs(sol.AllocatedU.FT-0.276) > paperTol ||
		math.Abs(sol.AllocatedU.FS-0.432) > paperTol ||
		math.Abs(sol.AllocatedU.NF-0.275) > paperTol {
		t.Errorf("alloc util = %.3f/%.3f/%.3f, want 0.276/0.432/0.275",
			sol.AllocatedU.FT, sol.AllocatedU.FS, sol.AllocatedU.NF)
	}
	if sol.Slack > 1e-6 || sol.SlackBandwidth > 1e-6 {
		t.Errorf("slack should vanish at the boundary, got %g (%g of bandwidth)", sol.Slack, sol.SlackBandwidth)
	}
}

func TestTable2cMaxFlexibilitySolution(t *testing.T) {
	sol, err := Solve(paperProblem(), MaxFlexibility, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Table 2(c): P = 0.855, O_tot/P = 0.059, Q̃ = 0.230/0.252/0.220,
	// alloc. util. 0.269/0.294/0.257, slack 0.103 (12.1 %).
	if math.Abs(sol.Config.P-0.855) > paperTol {
		t.Errorf("P = %.4f, want 0.855", sol.Config.P)
	}
	if math.Abs(sol.OverheadBandwidth-0.059) > paperTol {
		t.Errorf("overhead bandwidth = %.4f, want 0.059", sol.OverheadBandwidth)
	}
	if math.Abs(sol.Quanta.FT-0.230) > paperTol ||
		math.Abs(sol.Quanta.FS-0.252) > paperTol ||
		math.Abs(sol.Quanta.NF-0.220) > paperTol {
		t.Errorf("quanta = %.3f/%.3f/%.3f, want 0.230/0.252/0.220",
			sol.Quanta.FT, sol.Quanta.FS, sol.Quanta.NF)
	}
	if math.Abs(sol.AllocatedU.FT-0.269) > paperTol ||
		math.Abs(sol.AllocatedU.FS-0.294) > paperTol ||
		math.Abs(sol.AllocatedU.NF-0.257) > paperTol {
		t.Errorf("alloc util = %.3f/%.3f/%.3f, want 0.269/0.294/0.257",
			sol.AllocatedU.FT, sol.AllocatedU.FS, sol.AllocatedU.NF)
	}
	if math.Abs(sol.Slack-0.103) > paperTol {
		t.Errorf("slack = %.4f, want 0.103", sol.Slack)
	}
	if math.Abs(sol.SlackBandwidth-0.121) > paperTol {
		t.Errorf("slack bandwidth = %.4f, want 0.121", sol.SlackBandwidth)
	}
}

func TestTable2aRequiredUtilizations(t *testing.T) {
	sol, err := Solve(paperProblem(), MaxFlexibility, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.RequiredU.FT-0.267) > paperTol ||
		math.Abs(sol.RequiredU.FS-0.267) > paperTol ||
		math.Abs(sol.RequiredU.NF-0.250) > paperTol {
		t.Errorf("required util = %.3f/%.3f/%.3f, want 0.267/0.267/0.250",
			sol.RequiredU.FT, sol.RequiredU.FS, sol.RequiredU.NF)
	}
	// Paper's sanity check: allocated bandwidth covers required bandwidth.
	for _, m := range task.Modes() {
		if sol.AllocatedU.Of(m) < sol.RequiredU.Of(m)-1e-9 {
			t.Errorf("mode %s: allocated %.4f below required %.4f", m, sol.AllocatedU.Of(m), sol.RequiredU.Of(m))
		}
	}
}

func TestBoth(t *testing.T) {
	b, c, err := Both(paperProblem(), region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Goal != MinOverheadBandwidth || c.Goal != MaxFlexibility {
		t.Error("Both returned wrong goals")
	}
	if b.Config.P <= c.Config.P {
		t.Error("max-period solution should have the larger period")
	}
	if c.SlackBandwidth <= b.SlackBandwidth {
		t.Error("max-flexibility solution should have the larger slack bandwidth")
	}
	if b.OverheadBandwidth >= c.OverheadBandwidth {
		t.Error("max-period solution should waste less bandwidth in overhead")
	}
}

func TestSolveWithRM(t *testing.T) {
	pr := paperProblem()
	pr.Alg = analysis.RM
	sol, err := Solve(pr, MinOverheadBandwidth, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// RM needs more bandwidth, so its max period is smaller than EDF's.
	if sol.Config.P >= 2.966 {
		t.Errorf("RM max period %.3f should be below the EDF 2.966", sol.Config.P)
	}
	if err := pr.Verify(sol.Config); err != nil {
		t.Errorf("RM solution fails verification: %v", err)
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(core.Problem{}, MinOverheadBandwidth, region.Options{}); err == nil {
		t.Error("invalid problem should error")
	}
	if _, err := Solve(paperProblem(), Goal(9), region.Options{}); err == nil {
		t.Error("unknown goal should error")
	}
	over := paperProblem()
	over.O = core.UniformOverheads(0.5)
	if _, err := Solve(over, MinOverheadBandwidth, region.Options{}); err == nil {
		t.Error("infeasible overhead should error")
	}
}

func TestAtInfeasiblePeriod(t *testing.T) {
	if _, err := At(paperProblem(), MinOverheadBandwidth, 3.4); err == nil {
		t.Error("infeasible period should error")
	}
}

// TestSolveRejectsHyperperiodOutOfRange: a channel whose hyperperiod
// overflows the integer fold, or spans more deadlines than the analysis
// enumerates, makes Solve fail with analysis.ErrHyperperiod at compile
// time instead of panicking or enumerating for minutes.
func TestSolveRejectsHyperperiodOutOfRange(t *testing.T) {
	for name, extra := range map[string]task.Set{
		"LCM overflow": {
			{Name: "p1", C: 0.01, T: 999983, D: 999983, Mode: task.NF},
			{Name: "p2", C: 0.01, T: 999979, D: 999979, Mode: task.NF},
			{Name: "p3", C: 0.01, T: 999961, D: 999961, Mode: task.NF},
		},
		"stream cap": {{Name: "huge", C: 0.01, T: 1e12, D: 1e12, Mode: task.NF}},
	} {
		pr := paperProblem()
		pr.Tasks = append(append(task.Set(nil), pr.Tasks...), extra...)
		if _, err := Solve(pr, MaxFlexibility, region.Options{}); !errors.Is(err, analysis.ErrHyperperiod) {
			t.Errorf("%s: Solve = %v, want analysis.ErrHyperperiod", name, err)
		}
	}
}
