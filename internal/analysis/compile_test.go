package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/envelope"
	"repro/internal/points"
	"repro/internal/task"
)

// assertMatchesOracles checks a compiled EDF profile of s against the
// from-scratch oracles, none of which shares code with the compile
// kernel: the stream against points.Deadlines, each point's owner count
// against the tasks' own points.TaskDeadlines streams, every prefix row
// against DemandBound of the matching task prefix and the pruned pairs
// against envelope.Prune — all bit for bit.
func assertMatchesOracles(t *testing.T, stage string, pf *Profile, s task.Set) {
	t.Helper()
	if len(s) == 0 {
		if pf.idx != nil || len(pf.pre) != 0 || pf.Pairs() != 0 {
			t.Fatalf("%s: empty set compiled to %d rows, %d pairs", stage, len(pf.pre), pf.Pairs())
		}
		return
	}
	h, err := s.Hyperperiod(HyperperiodDenominator)
	if err != nil {
		t.Fatal(err)
	}
	dls, err := points.Deadlines(s, h)
	if err != nil {
		t.Fatal(err)
	}
	ts, owners := pf.idx.Ts(), pf.idx.Owners()
	if len(ts) != len(dls) {
		t.Fatalf("%s: %d stream points, points.Deadlines has %d", stage, len(ts), len(dls))
	}
	count := map[float64]int32{}
	for _, tk := range s {
		for _, x := range points.TaskDeadlines(tk, h) {
			count[x]++
		}
	}
	if len(count) != len(dls) {
		t.Fatalf("%s: task streams hold %d distinct points, points.Deadlines %d", stage, len(count), len(dls))
	}
	for k, x := range dls {
		if math.Float64bits(ts[k]) != math.Float64bits(x) {
			t.Fatalf("%s: stream point %d is %v, points.Deadlines has %v", stage, k, ts[k], x)
		}
		if owners[k] != count[x] {
			t.Fatalf("%s: point %v has %d owners, the task streams give %d", stage, x, owners[k], count[x])
		}
	}
	if len(pf.pre) != len(s) {
		t.Fatalf("%s: %d prefix rows for %d tasks", stage, len(pf.pre), len(s))
	}
	for r := range s {
		for k, x := range dls {
			if want := DemandBound(s[:r+1], x); math.Float64bits(pf.pre[r][k]) != math.Float64bits(want) {
				t.Fatalf("%s: prefix row %d at t=%v is %v, DemandBound has %v", stage, r, x, pf.pre[r][k], want)
			}
		}
	}
	all := make([]envelope.Pair, len(dls))
	for k, x := range dls {
		all[k] = envelope.Pair{T: x, W: DemandBound(s, x)}
	}
	kept := envelope.Prune(all, false)
	edf := pf.keptEDF()
	if len(kept) != len(edf) {
		t.Fatalf("%s: %d pruned pairs, envelope.Prune keeps %d", stage, len(edf), len(kept))
	}
	for i := range kept {
		if math.Float64bits(edf[i].T) != math.Float64bits(kept[i].T) || math.Float64bits(edf[i].W) != math.Float64bits(kept[i].W) {
			t.Fatalf("%s: pruned pair %d is %+v, envelope.Prune has %+v", stage, i, edf[i], kept[i])
		}
	}
}

// randomGridSet draws n tasks with periods on a divisor grid of 120 and
// constrained deadlines, some off the integer grid.
func randomGridSet(rng *rand.Rand, n int) task.Set {
	periods := []float64{2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120}
	s := make(task.Set, n)
	for i := range s {
		tp := periods[rng.Intn(len(periods))]
		d := tp
		if rng.Intn(2) == 0 {
			d = math.Round(tp*(0.4+0.6*rng.Float64())*4) / 4
		}
		c := math.Max(0.01, math.Round(d*0.3*rng.Float64()*100)/100)
		s[i] = task.Task{Name: fmt.Sprintf("r%d", i), C: c, T: tp, D: d}
	}
	return s
}

// TestCompileMatchesOracles checks the compile kernel on fresh state
// (Compile) against the independent oracles, on the paper's channels
// and on random sets with shared, constrained and off-grid deadlines.
func TestCompileMatchesOracles(t *testing.T) {
	paper := task.PaperTaskSet()
	sets := map[string]task.Set{
		"paper-FT": paper.ByMode(task.FT),
		"paper-FS": paper.ByMode(task.FS),
		"paper-NF": paper.ByMode(task.NF),
		"churn":    churnPool(),
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		sets[fmt.Sprintf("random-%d", i)] = randomGridSet(rng, 1+rng.Intn(12))
	}
	for name, s := range sets {
		pf, err := Compile(s, EDF)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertMatchesOracles(t, name, pf, s)
		if err := pf.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := pf.MemStats().Ratio(); r != 1 {
			t.Fatalf("%s: fresh Compile ratio = %g, want 1", name, r)
		}
	}
}

// horizonBase is a channel on a 120 grid; horizonGuests each move its
// hyperperiod (9 and 36 to 360, 16 and 80 to 240, 9 with 16 to 720).
func horizonBase() task.Set {
	return task.Set{
		{Name: "b10", C: 0.8, T: 10, D: 10},
		{Name: "b12", C: 0.6, T: 12, D: 9},
		{Name: "b24", C: 1.5, T: 24, D: 20},
		{Name: "b40", C: 1.2, T: 40, D: 40},
		{Name: "b120", C: 3, T: 120, D: 100},
	}
}

func horizonGuests() task.Set {
	return task.Set{
		{Name: "g9", C: 0.3, T: 9, D: 9},
		{Name: "g9c", C: 0.2, T: 9, D: 6.5},
		{Name: "g16", C: 0.5, T: 16, D: 16},
		{Name: "g16c", C: 0.4, T: 16, D: 11},
		{Name: "g36", C: 1, T: 36, D: 30},
		{Name: "g80", C: 2, T: 80, D: 80},
	}
}

// TestExclusiveHorizonMoves drives an exclusive profile through random
// AddTasks/DropTasks sequences where most steps move the hyperperiod,
// so the compile kernel recompiles the profile in place over buffers
// sized for other horizons. After every step the profile must pass
// Check (the independent oracles) and match the oracles directly, and
// every patch that moved the horizon must count as a fallback. The
// sequence includes dropping every task and re-adding them, and drops
// whose batch aliases the profile's own task list.
func TestExclusiveHorizonMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	base, guests := horizonBase(), horizonGuests()
	pf, err := CompileMutable(base, EDF)
	if err != nil {
		t.Fatal(err)
	}
	live := append(task.Set(nil), base...)
	has := func(name string) bool {
		for _, tk := range live {
			if tk.Name == name {
				return true
			}
		}
		return false
	}
	without := func(drop task.Set) task.Set {
		var out task.Set
		for _, tk := range live {
			gone := false
			for _, d := range drop {
				gone = gone || d.Name == tk.Name
			}
			if !gone {
				out = append(out, tk)
			}
		}
		return out
	}
	moves := 0
	for step := 0; step < 300; step++ {
		var stage string
		h0, fb0 := pf.horizonInt, pf.Fallbacks()
		trivial := len(live) == 0
		switch op := rng.Intn(12); {
		case op == 0:
			// Drop everything, check the empty profile, re-add it all.
			stage = "drop-all"
			all := pf.Tasks()
			if err := pf.DropTasks(all); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
			assertMatchesOracles(t, stage, pf, nil)
			if err := pf.Check(); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
			stage = "re-add"
			if err := pf.AddTasks(all); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
			trivial = true
		case op == 1 && len(live) >= 2:
			// A batch that aliases pf.tasks, which the patch compacts in
			// place.
			i := rng.Intn(len(live) - 1)
			j := i + 1 + rng.Intn(len(live)-i-1)
			stage = fmt.Sprintf("aliased drop [%d:%d]", i, j)
			survivors := append(append(task.Set(nil), live[:i]...), live[j:]...)
			if err := pf.DropTasks(pf.tasks[i:j]); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
			live = survivors
		case op < 7:
			var add []task.Task
			for _, k := range rng.Perm(len(guests))[:1+rng.Intn(2)] {
				if !has(guests[k].Name) {
					add = append(add, guests[k])
				}
			}
			stage = fmt.Sprintf("add %d", len(add))
			if err := pf.AddTasks(add); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
			live = append(live, add...)
		default:
			if len(live) == 0 {
				continue
			}
			var drop []task.Task
			for _, k := range rng.Perm(len(live))[:1+rng.Intn(min(2, len(live)))] {
				drop = append(drop, live[k])
			}
			stage = fmt.Sprintf("drop %d", len(drop))
			if err := pf.DropTasks(drop); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
			live = without(drop)
		}
		stage = fmt.Sprintf("step %d (%s)", step, stage)
		if err := pf.Check(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		assertMatchesOracles(t, stage, pf, live)
		fresh, err := Compile(live, EDF)
		if err != nil {
			t.Fatal(err)
		}
		assertProfileIdentical(t, stage, pf, fresh)
		if moved := pf.horizonInt != h0 && len(live) > 0 && !trivial; moved {
			moves++
			if pf.Fallbacks() != fb0+1 {
				t.Fatalf("%s: horizon moved but fallbacks went %d → %d", stage, fb0, pf.Fallbacks())
			}
		}
	}
	if moves < 50 {
		t.Fatalf("only %d horizon moves in the sequence; the test no longer exercises the kernel", moves)
	}
}

// TestHorizonMoveZeroAllocs is the allocation guarantee of the in-place
// recompile: once a profile's buffers have held the larger horizon, an
// admit+remove cycle that moves the hyperperiod 240 → 720 → 240
// allocates nothing.
func TestHorizonMoveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	base := task.Set{
		{Name: "b8", C: 0.5, T: 8, D: 8},
		{Name: "b10", C: 0.6, T: 10, D: 9},
		{Name: "b15", C: 0.9, T: 15, D: 15},
		{Name: "b16", C: 0.8, T: 16, D: 12.5},
		{Name: "b48", C: 2, T: 48, D: 40},
		{Name: "b240", C: 4, T: 240, D: 200},
	}
	pf, err := CompileMutable(base, EDF)
	if err != nil {
		t.Fatal(err)
	}
	batch := []task.Task{{Name: "guest", C: 0.3, T: 9, D: 9}}
	cycle := func() {
		if err := pf.AddTasks(batch); err != nil {
			t.Fatal(err)
		}
		if err := pf.DropTasks(batch); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if pf.horizon != 240 {
		t.Fatalf("base horizon %g, want 240", pf.horizon)
	}
	fb := pf.Fallbacks()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("240↔720 cycle allocates %.1f/op, want 0", allocs)
	}
	if got := pf.Fallbacks() - fb; got != 2*51 {
		t.Fatalf("%d fallbacks over 51 cycles, want %d (two hyperperiod moves each)", got, 2*51)
	}
	if err := pf.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestInPlaceLeavesSharedRows: an immutable WithTasks or WithoutTasks
// taken from an exclusive profile shares its prefix rows. The exclusive
// profile's later in-place changes must leave those rows alone — a
// recompile after a release that shrinks the hyperperiod (its rows fit
// the old arena), an admission that widens the rows and a release that
// narrows them.
func TestInPlaceLeavesSharedRows(t *testing.T) {
	base := horizonBase()
	mover := horizonGuests()[0]
	// offgrid keeps the hyperperiod but brings deadlines of its own;
	// twin's deadlines are all b10's, so admitting or releasing it
	// inserts or drops no point and the child shares the rows.
	offgrid := task.Task{Name: "offgrid", C: 0.1, T: 10, D: 7.5}
	twin := task.Task{Name: "twin", C: 0.1, T: 10, D: 10}
	warm := []task.Task{{Name: "warm", C: 0.1, T: 10, D: 6.5}, {Name: "warm2", C: 0.1, T: 10, D: 8.5}}
	plus := func(s task.Set, more ...task.Task) task.Set {
		return append(append(task.Set(nil), s...), more...)
	}
	// Each case runs op on an exclusive profile of start, and of start
	// plus twin; after and afterTwin are the sets that leaves.
	for _, c := range []struct {
		name                    string
		start, after, afterTwin task.Set
		op                      func(*Profile) error
	}{
		{"horizon-shrinking release", plus(base, mover), base, plus(base, twin),
			func(p *Profile) error { return p.DropTasks([]task.Task{mover}) }},
		{"widening admission", base, plus(base, offgrid), plus(base, twin, offgrid),
			func(p *Profile) error { return p.AddTasks([]task.Task{offgrid}) }},
		{"narrowing release", plus(base, offgrid), base, plus(base, twin),
			func(p *Profile) error { return p.DropTasks([]task.Task{offgrid}) }},
	} {
		pf, err := CompileMutable(c.start, EDF)
		if err != nil {
			t.Fatal(err)
		}
		pf2, err := CompileMutable(plus(c.start, twin), EDF)
		if err != nil {
			t.Fatal(err)
		}
		// Leave room in both arenas, so op can work in place.
		for _, p := range []*Profile{pf, pf2} {
			if err := p.AddTasks(warm); err != nil {
				t.Fatal(err)
			}
			if err := p.DropTasks(warm); err != nil {
				t.Fatal(err)
			}
		}
		grown, err := pf.WithTasks([]task.Task{twin})
		if err != nil {
			t.Fatal(err)
		}
		shrunk, err := pf2.WithoutTasks([]task.Task{twin})
		if err != nil {
			t.Fatal(err)
		}
		if !pf.prebShared || !pf2.prebShared {
			t.Fatalf("%s: the immutable children do not share the exclusive rows", c.name)
		}
		if err := c.op(pf); err != nil {
			t.Fatal(err)
		}
		if err := c.op(pf2); err != nil {
			t.Fatal(err)
		}
		assertMatchesOracles(t, c.name+": WithTasks child", grown, plus(c.start, twin))
		assertMatchesOracles(t, c.name+": WithoutTasks child", shrunk, c.start)
		assertMatchesOracles(t, c.name+": exclusive parent", pf, c.after)
		assertMatchesOracles(t, c.name+": exclusive parent with twin", pf2, c.afterTwin)
	}
}
