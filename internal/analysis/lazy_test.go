package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/envelope"
	"repro/internal/task"
)

// keptMinQ is Eq. (11) over a profile's materialized envelope: the
// pruned scan a published profile's MinQ performs.
func keptMinQ(pf *Profile, p float64) float64 {
	q := 0.0
	for _, pr := range pf.keptEDF() {
		if v := qNeeded(pr.T, p, pr.W); v > q {
			q = v
		}
	}
	return q
}

// randomPeriods returns a spread of periods, from far below to far
// above the task periods.
func randomPeriods(rng *rand.Rand) []float64 {
	ps := []float64{1e-6, 1e-3, 1e3, 1e6}
	for i := 0; i < 8; i++ {
		ps = append(ps, 0.05+rng.Float64()*20)
	}
	return ps
}

// crossingPeriods returns, for every pair of nearby kept pairs whose
// qNeeded curves cross at a positive P, that P, its float neighbours
// and the points PruneMargin away on either side — the razor ties
// where a dominated point comes closest to deciding the max.
func crossingPeriods(kept []envelope.Pair) []float64 {
	var ps []float64
	for i := range kept {
		for j := i + 1; j < len(kept) && j < i+4; j++ {
			a, b := kept[i], kept[j]
			// On the crossing, Q = r·P with r = (W_a−W_b)/(t_a−t_b); put
			// it into Q² + (t_a−P)·Q − P·W_a = 0 and solve for P.
			r := (a.W - b.W) / (a.T - b.T)
			den := r*r - r
			if den == 0 {
				continue
			}
			p := (a.W - a.T*r) / den
			if !(p > 0) || math.IsInf(p, 0) {
				continue
			}
			m := envelope.PruneMargin * p
			ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), p-m, p+m)
		}
	}
	return ps
}

// TestExclusiveMinQMatchesEnvelope is the bit-identity property behind
// the lazy envelope: on an exclusive profile, MinQ — one scan of the
// demand row — equals the pruned scan over the materialized envelope,
// which equals the naive oracle MinQ, bit for bit. It runs through
// random add/drop batches on an exclusive lineage, with horizon moves,
// drop-all and re-add, and batches that alias the profile's own task
// list, probing random periods and the crossing points of the kept
// pairs with their razor ties.
func TestExclusiveMinQMatchesEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pool := append(horizonBase(), horizonGuests()...)
	for _, tk := range churnPool() {
		tk.Name = "pool-" + tk.Name
		pool = append(pool, tk)
	}
	pf, err := CompileMutable(horizonBase(), EDF)
	if err != nil {
		t.Fatal(err)
	}
	// live mirrors pf's task list in order: the demand row sums in that
	// order, and so does the oracle.
	live := horizonBase()
	dropOnce := func(drop []task.Task) {
		for _, d := range drop {
			for i, tk := range live {
				if tk == d {
					live = append(live[:i:i], live[i+1:]...)
					break
				}
			}
		}
	}
	probes, moves := 0, 0
	for step := 0; step < 120; step++ {
		h0 := pf.horizonInt
		var stage string
		switch op := rng.Intn(10); {
		case op == 0:
			stage = "drop-all + re-add"
			all := pf.Tasks()
			if err := pf.DropTasks(pf.tasks); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
			if q := pf.MinQ(1); q != 0 {
				t.Fatalf("step %d: empty profile MinQ = %v", step, q)
			}
			if err := pf.AddTasks(all); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
		case op == 1 && len(live) >= 2:
			i := rng.Intn(len(live) - 1)
			j := i + 1 + rng.Intn(len(live)-i-1)
			stage = fmt.Sprintf("aliased drop [%d:%d]", i, j)
			// DropTasks removes the first equal task per entry, which with
			// duplicates admitted need not be the one at the same index.
			dropOnce(append([]task.Task(nil), live[i:j]...))
			if err := pf.DropTasks(pf.tasks[i:j]); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
		case op == 2 && len(live) >= 1 && len(live) < 14:
			// Admit second copies of a run of the profile's own tasks:
			// the batch is read from pf.tasks while AddTasks appends.
			i := rng.Intn(len(live))
			j := i + 1 + rng.Intn(min(2, len(live)-i))
			stage = fmt.Sprintf("aliased add [%d:%d]", i, j)
			live = append(live, live[i:j]...)
			if err := pf.AddTasks(pf.tasks[i:j]); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
		case op < 7:
			var add []task.Task
			for _, k := range rng.Perm(len(pool))[:1+rng.Intn(3)] {
				if _, ok := live.Find(pool[k].Name); !ok {
					add = append(add, pool[k])
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
			for _, k := range rng.Perm(len(live))[:1+rng.Intn(min(3, len(live)))] {
				drop = append(drop, live[k])
			}
			stage = fmt.Sprintf("drop %d", len(drop))
			if err := pf.DropTasks(drop); err != nil {
				t.Fatalf("step %d: %s: %v", step, stage, err)
			}
			dropOnce(drop)
		}
		if pf.horizonInt != h0 {
			moves++
		}
		stage = fmt.Sprintf("step %d (%s)", step, stage)
		if got := pf.Tasks(); len(got) != len(live) {
			t.Fatalf("%s: profile holds %d tasks, want %d", stage, len(got), len(live))
		}
		for i, tk := range pf.Tasks() {
			if tk != live[i] {
				t.Fatalf("%s: task %d is %+v, want %+v", stage, i, tk, live[i])
			}
		}
		// Read the row scan before anything builds the envelope, then
		// again after, and compare both with the envelope and the oracle.
		ps := randomPeriods(rng)
		before := make([]float64, len(ps))
		for i, p := range ps {
			before[i] = pf.MinQ(p)
		}
		ps = append(ps, crossingPeriods(pf.keptEDF())...)
		for i, p := range ps {
			got := pf.MinQ(p)
			if i < len(before) && math.Float64bits(got) != math.Float64bits(before[i]) {
				t.Fatalf("%s: MinQ(%v) changed when the envelope was built: %x → %x", stage, p, before[i], got)
			}
			env := keptMinQ(pf, p)
			want, err := MinQ(live, EDF, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(env) || math.Float64bits(env) != math.Float64bits(want) {
				t.Fatalf("%s: MinQ(%v): row scan %x, envelope %x, oracle %x", stage, p, got, env, want)
			}
			probes++
		}
	}
	t.Logf("%d horizon moves, %d probes", moves, probes)
	if moves < 20 || probes < 3000 {
		t.Fatalf("%d horizon moves and %d probes: the sequence no longer exercises the property", moves, probes)
	}
}

// TestDeferredProfileReads checks every reader that builds the lazy
// envelope on demand — Pairs, Check, Equal and the immutable
// WithTasks/WithoutTasks — against a fresh Compile, on an exclusive
// profile whose envelope has never been built since its last patch.
func TestDeferredProfileReads(t *testing.T) {
	base, guests := horizonBase(), horizonGuests()
	twin := task.Task{Name: "twin", C: 0.1, T: 10, D: 10}
	for _, c := range []struct {
		name string
		add  task.Set
	}{
		{"incremental patch", task.Set{{Name: "off", C: 0.1, T: 10, D: 7.5}}},
		{"horizon move", task.Set{guests[0], guests[2]}},
	} {
		// Each reader gets its own freshly patched profile, so every one
		// of them is the first to read the envelope.
		patched := func() *Profile {
			pf, err := CompileMutable(base, EDF)
			if err != nil {
				t.Fatal(err)
			}
			if err := pf.AddTasks(c.add); err != nil {
				t.Fatal(err)
			}
			return pf
		}
		set := append(append(task.Set(nil), base...), c.add...)
		fresh, err := Compile(set, EDF)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := patched().Pairs(), fresh.Pairs(); got != want {
			t.Fatalf("%s: Pairs = %d, fresh Compile %d", c.name, got, want)
		}
		if err := patched().Check(); err != nil {
			t.Fatalf("%s: Check: %v", c.name, err)
		}
		if !patched().Equal(fresh) || !fresh.Equal(patched()) {
			t.Fatalf("%s: Equal disagrees with fresh Compile", c.name)
		}
		assertProfileIdentical(t, c.name, patched(), fresh)
		assertMatchesOracles(t, c.name, patched(), set)

		grown, err := patched().WithTasks(task.Set{twin})
		if err != nil {
			t.Fatal(err)
		}
		wantGrown, err := Compile(append(append(task.Set(nil), set...), twin), EDF)
		if err != nil {
			t.Fatal(err)
		}
		assertProfileIdentical(t, c.name+": WithTasks", grown, wantGrown)
		if grown.Exclusive() || len(grown.edf) != wantGrown.Pairs() {
			t.Fatalf("%s: WithTasks child is not a published profile with its envelope built", c.name)
		}
		shrunk, err := patched().WithoutTasks(c.add[:1])
		if err != nil {
			t.Fatal(err)
		}
		wantShrunk, err := Compile(append(append(task.Set(nil), base...), c.add[1:]...), EDF)
		if err != nil {
			t.Fatal(err)
		}
		assertProfileIdentical(t, c.name+": WithoutTasks", shrunk, wantShrunk)
		if err := shrunk.Check(); err != nil {
			t.Fatalf("%s: WithoutTasks child: %v", c.name, err)
		}
	}
}

// TestExclusiveCycleZeroAllocs: a warmed exclusive admit+remove cycle
// on the incremental path allocates nothing, MinQ reads included.
// (TestHorizonMoveZeroAllocs pins the 240↔720 recompile cycle.)
func TestExclusiveCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	pf, err := CompileMutable(horizonBase(), EDF)
	if err != nil {
		t.Fatal(err)
	}
	batch := []task.Task{{Name: "guest", C: 0.3, T: 20, D: 15}}
	var sink float64
	cycle := func() {
		if err := pf.AddTasks(batch); err != nil {
			t.Fatal(err)
		}
		sink += pf.MinQ(3)
		if err := pf.DropTasks(batch); err != nil {
			t.Fatal(err)
		}
		sink += pf.MinQ(3)
	}
	cycle()
	fb := pf.Fallbacks()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("admit+remove cycle allocates %.1f/op, want 0", allocs)
	}
	if pf.Fallbacks() != fb {
		t.Fatal("the cycle left the incremental path")
	}
	_ = sink
}

// TestDeferredMemStats: the consolidation trigger reads MemStats after
// every patch, so it must count a lazy index's live state without the
// rank keys and envelope it does not keep — a fresh CompileMutable
// reports a ratio of exactly 1 — and must not build the envelope.
func TestDeferredMemStats(t *testing.T) {
	s := append(horizonBase(), horizonGuests()[:2]...)
	pf, err := CompileMutable(s, EDF)
	if err != nil {
		t.Fatal(err)
	}
	m := pf.MemStats()
	if r := m.Ratio(); r != 1 {
		t.Fatalf("fresh CompileMutable ratio = %g, want 1", r)
	}
	if m.LivePairs != m.RetainedPoints {
		t.Fatalf("LivePairs = %d, want the %d-point row an exclusive MinQ scans", m.LivePairs, m.RetainedPoints)
	}
	// The envelope stays unbuilt through patches and MemStats: the first
	// read after them still finds it stale.
	if err := pf.AddTasks(horizonGuests()[2:3]); err != nil {
		t.Fatal(err)
	}
	_ = pf.MemStats()
	if pf.edf != nil {
		t.Fatal("an exclusive profile holds a published envelope")
	}
	if err := envelopeStaleCheck(pf); err != nil {
		t.Fatal(err)
	}
	// A profile thawed from a published one is lazy too: after a patch
	// its index holds the live state of a fresh CompileMutable of the
	// same set, with no rank keys or envelope.
	thawed := mustCompile(t, s[:len(s)-1]).Thawed()
	if err := thawed.AddTasks(s[len(s)-1:]); err != nil {
		t.Fatal(err)
	}
	fresh, err := CompileMutable(s, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := liveBytes(thawed), liveBytes(fresh); got != want {
		t.Fatalf("thawed profile's index holds %d live bytes, a fresh lazy compile %d", got, want)
	}
	// A published profile of the same set keeps reporting its pruned
	// pairs and a ratio of 1.
	pub, err := Compile(pf.Tasks(), EDF)
	if err != nil {
		t.Fatal(err)
	}
	if m := pub.MemStats(); m.Ratio() != 1 || m.LivePairs != pub.Pairs() {
		t.Fatalf("published profile MemStats %+v, want ratio 1 and %d live pairs", m, pub.Pairs())
	}
}

func mustCompile(t *testing.T, s task.Set) *Profile {
	t.Helper()
	pf, err := Compile(s, EDF)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

func liveBytes(pf *Profile) int {
	live, _ := pf.idx.Footprint()
	return live
}

// envelopeStaleCheck reports an error when the lazy index of an
// exclusive profile already holds a built envelope: its footprint
// counts no kept pairs until something reads them.
func envelopeStaleCheck(pf *Profile) error {
	live, held := pf.idx.Footprint()
	n := pf.idx.Len()
	pf.keptEDF()
	live2, held2 := pf.idx.Footprint()
	if live2 != live || held2 <= held || n == 0 {
		return fmt.Errorf("footprint before the read %d/%d, after %d/%d: the envelope was already built", live, held, live2, held2)
	}
	return nil
}

// TestHyperperiodOutOfRange: a set whose hyperperiod overflows the
// integer fold, or holds more deadlines than the stream cap, is
// rejected with ErrHyperperiod by Compile, by the exclusive and
// immutable patches (leaving the profile as it was) and by the EDF
// oracles — promptly, without enumerating a deadline.
func TestHyperperiodOutOfRange(t *testing.T) {
	start := time.Now()
	coprime := task.Set{
		{Name: "p1", C: 0.01, T: 999983, D: 999983},
		{Name: "p2", C: 0.01, T: 999979, D: 999979},
		{Name: "p3", C: 0.01, T: 999961, D: 999961},
	}
	huge := task.Set{{Name: "huge", C: 0.01, T: 1e12, D: 1e12}}
	// At the base's own hyperperiod 2^20/10^6, a newcomer of period
	// 10^-6 keeps the horizon but brings 2^20 deadlines.
	base := task.Set{{Name: "base", C: 0.1, T: 1.048576, D: 1.048576}}
	dense := task.Set{{Name: "dense", C: 1e-7, T: 1e-6, D: 1e-6}}
	for _, s := range []task.Set{coprime, append(horizonBase(), huge...), append(append(task.Set(nil), base...), dense...)} {
		if _, err := Compile(s, EDF); !errors.Is(err, ErrHyperperiod) {
			t.Fatalf("Compile(%v) = %v, want ErrHyperperiod", s, err)
		}
		if _, err := MinQ(s, EDF, 1); !errors.Is(err, ErrHyperperiod) {
			t.Fatalf("MinQ(%v) = %v, want ErrHyperperiod", s, err)
		}
		if _, err := FeasibleEDF(s, Full); !errors.Is(err, ErrHyperperiod) && s.Utilization() <= 1 {
			t.Fatalf("FeasibleEDF(%v) = %v, want ErrHyperperiod", s, err)
		}
	}
	for _, c := range []struct {
		name      string
		base, add task.Set
	}{
		{"LCM overflow", horizonBase(), coprime},
		{"stream cap, horizon moves", horizonBase(), huge},
		{"stream cap, horizon kept", base, dense},
	} {
		want, err := Compile(c.base, EDF)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := CompileMutable(c.base, EDF)
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.AddTasks(c.add); !errors.Is(err, ErrHyperperiod) {
			t.Fatalf("%s: AddTasks = %v, want ErrHyperperiod", c.name, err)
		}
		assertProfileIdentical(t, c.name+": after AddTasks", pf, want)
		if pf.span != want.span {
			t.Fatalf("%s: span %d after the failed add, want %d", c.name, pf.span, want.span)
		}
		if _, err := want.WithTasks(c.add); !errors.Is(err, ErrHyperperiod) {
			t.Fatalf("%s: WithTasks = %v, want ErrHyperperiod", c.name, err)
		}
		if _, err := pf.WithTasks(c.add); !errors.Is(err, ErrHyperperiod) {
			t.Fatalf("%s: WithTasks on the exclusive profile = %v, want ErrHyperperiod", c.name, err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("rejections took %v", d)
	}
}
