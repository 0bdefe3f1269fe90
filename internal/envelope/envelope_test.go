package envelope

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// qNeeded mirrors analysis.qNeeded: the positive root of
// Q² + (t−P)Q − PW = 0, in the cancellation-safe form. The envelope's
// whole contract is that pruning never changes a max (or min) of this
// function over the point set, so the tests evaluate it directly.
func qNeeded(t, p, w float64) float64 {
	if w <= 0 {
		return 0
	}
	x := t - p
	disc := math.Sqrt(x*x + 4*p*w)
	if x >= 0 {
		return 2 * p * w / (x + disc)
	}
	return (disc - x) / 2
}

// naiveDropped evaluates the canonical dominance predicate by brute
// force — no sorting, no prefix maxima — as an independent oracle for
// Prune and the Index.
func naiveDropped(pairs []Pair, min bool) []bool {
	sign := 1.0
	if min {
		sign = -1
	}
	n := len(pairs)
	r0 := make([]float64, n)
	inf := make([]float64, n)
	for i, pr := range pairs {
		r0[i] = sign * pr.W / pr.T
		inf[i] = sign * (pr.W - pr.T)
	}
	drop := make([]bool, n)
	if n <= 1 {
		return drop
	}
	for i := range pairs {
		thr := packRank(r0[i] + margin(r0[i]))
		best := math.Inf(-1)
		for j := range pairs {
			if packRank(r0[j]) <= thr && inf[j] > best {
				best = inf[j]
			}
		}
		drop[i] = best >= inf[i]+margin(inf[i])
	}
	return drop
}

func naiveKept(pairs []Pair, min bool) []Pair {
	drop := naiveDropped(pairs, min)
	kept := make([]Pair, 0, len(pairs))
	for i, pr := range pairs {
		if !drop[i] {
			kept = append(kept, pr)
		}
	}
	return kept
}

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) || math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return false
		}
	}
	return true
}

// randomPairs draws a point set over a small time grid so rank ties
// and near-ties (within PruneMargin) occur organically, and injects a
// few deliberate razor-edge pairs.
func randomPairs(r *rand.Rand, n int) []Pair {
	seen := map[float64]bool{}
	var pairs []Pair
	for len(pairs) < n {
		t := 1 + float64(r.Intn(8*n))/4
		if seen[t] {
			continue
		}
		seen[t] = true
		w := t * (0.1 + 1.8*r.Float64())
		switch r.Intn(8) {
		case 0:
			// Exact rank0 tie with an earlier point.
			if len(pairs) > 0 {
				o := pairs[r.Intn(len(pairs))]
				w = o.W / o.T * t
			}
		case 1:
			// Within-margin near-tie: perturb by a fraction of PruneMargin.
			if len(pairs) > 0 {
				o := pairs[r.Intn(len(pairs))]
				w = o.W / o.T * (1 + (r.Float64()-0.5)*PruneMargin) * t
			}
		}
		pairs = append(pairs, Pair{T: t, W: w})
	}
	slices.SortFunc(pairs, func(a, b Pair) int {
		switch {
		case a.T < b.T:
			return -1
		case a.T > b.T:
			return 1
		}
		return 0
	})
	return pairs
}

// checkSound verifies the pruning contract: for random periods the
// max (and, in min mode, the min) of qNeeded over the kept points is
// bit-identical to the same extremum over all points.
func checkSound(t *testing.T, r *rand.Rand, all, kept []Pair, min bool) {
	t.Helper()
	for trial := 0; trial < 12; trial++ {
		p := math.Ldexp(1+r.Float64(), r.Intn(16)-8)
		extremum := func(pts []Pair) float64 {
			if min {
				best := math.Inf(1)
				for _, pr := range pts {
					if v := qNeeded(pr.T, p, pr.W); v < best {
						best = v
					}
				}
				return best
			}
			best := 0.0
			for _, pr := range pts {
				if v := qNeeded(pr.T, p, pr.W); v > best {
					best = v
				}
			}
			return best
		}
		if got, want := extremum(kept), extremum(all); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pruned extremum %v != full extremum %v at p=%v (min=%v, %d/%d kept)",
				got, want, p, min, len(kept), len(all))
		}
	}
}

func TestPruneMatchesNaiveOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(60)
		pairs := randomPairs(r, n)
		for _, min := range []bool{false, true} {
			want := naiveKept(pairs, min)
			got := Prune(slices.Clone(pairs), min)
			if !samePairs(got, want) {
				t.Fatalf("trial %d min=%v: Prune kept %d pairs, naive oracle %d", trial, min, len(got), len(want))
			}
			checkSound(t, r, pairs, got, min)
		}
	}
}

func TestPruneActuallyPrunes(t *testing.T) {
	// A harmonic demand staircase has many interior points strictly under
	// the envelope; pruning must remove a decent share of them.
	var pairs []Pair
	for i := 1; i <= 256; i++ {
		t := float64(i)
		pairs = append(pairs, Pair{T: t, W: 0.4*t + 3*math.Sin(t/7)*math.Sin(t/7)})
	}
	kept := Prune(slices.Clone(pairs), false)
	if len(kept) >= len(pairs)/2 {
		t.Fatalf("envelope kept %d of %d pairs: pruning is not biting", len(kept), len(pairs))
	}
}

// churnModel is the reference the index is churned against: the naive
// ordered point list with owner counts.
type churnModel struct {
	ts  []float64
	ws  []float64
	own []int32
}

func (m *churnModel) pairs() []Pair {
	out := make([]Pair, len(m.ts))
	for i := range m.ts {
		out[i] = Pair{T: m.ts[i], W: m.ws[i]}
	}
	return out
}

func (m *churnModel) pos(t float64) int {
	for i, v := range m.ts {
		if v == t {
			return i
		}
	}
	return -1
}

func (m *churnModel) insert(t, w float64, own int32) {
	i := 0
	for i < len(m.ts) && m.ts[i] < t {
		i++
	}
	m.ts = slices.Insert(m.ts, i, t)
	m.ws = slices.Insert(m.ws, i, w)
	m.own = slices.Insert(m.own, i, own)
}

func (m *churnModel) compact() {
	w := 0
	for i := range m.ts {
		if m.own[i] > 0 {
			m.ts[w], m.ws[w], m.own[w] = m.ts[i], m.ws[i], m.own[i]
			w++
		}
	}
	m.ts, m.ws, m.own = m.ts[:w], m.ws[:w], m.own[:w]
}

// verify compares the index against the model and audits invariants.
func verify(t *testing.T, r *rand.Rand, x *Index, m *churnModel) {
	t.Helper()
	if err := Check(x); err != nil {
		t.Fatal(err)
	}
	if x.Len() != len(m.ts) {
		t.Fatalf("index holds %d points, model %d", x.Len(), len(m.ts))
	}
	for i, tv := range m.ts {
		if x.Ts()[i] != tv {
			t.Fatalf("stream diverged at %d: %v != %v", i, x.Ts()[i], tv)
		}
	}
	if ds := x.Demands(); !slices.Equal(ds, m.ws) {
		t.Fatalf("demands diverged: %v vs %v", ds, m.ws)
	}
	if os := x.Owners(); !slices.Equal(os, m.own) {
		t.Fatalf("owners diverged: %v vs %v", os, m.own)
	}
	all := m.pairs()
	want := naiveKept(all, x.Min())
	got := x.Kept()
	if !samePairs(got, want) {
		t.Fatalf("envelope diverged: index kept %d pairs, oracle %d\nindex: %v\noracle: %v", len(got), len(want), got, want)
	}
	checkSound(t, r, all, got, x.Min())
}

func TestIndexChurnBitIdentical(t *testing.T) {
	for _, c := range []struct{ min, lazy bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		min := c.min
		r := rand.New(rand.NewSource(42))
		x := New(min)
		x.SetLazy(c.lazy)
		m := &churnModel{}
		newT := func() float64 {
			for {
				t := 1 + float64(r.Intn(600))/4
				if m.pos(t) < 0 {
					return t
				}
			}
		}
		for step := 0; step < 400; step++ {
			op := r.Intn(10)
			switch {
			case op < 3: // insert a small batch of brand-new points
				k := 1 + r.Intn(4)
				pts := make([]Pair, 0, k)
				for len(pts) < k {
					tv := newT()
					dup := false
					for _, pr := range pts {
						if pr.T == tv {
							dup = true
						}
					}
					if dup {
						continue
					}
					w := tv * (0.1 + 1.8*r.Float64())
					if len(m.ts) > 0 && r.Intn(4) == 0 {
						// Razor-edge newcomer: rank0 within a sliver of an
						// existing point's.
						o := r.Intn(len(m.ts))
						w = m.ws[o] / m.ts[o] * (1 + (r.Float64()-0.5)*PruneMargin) * tv
					}
					pts = append(pts, Pair{T: tv, W: w})
				}
				if err := x.Insert(pts); err != nil {
					t.Fatal(err)
				}
				for _, pr := range pts {
					m.insert(pr.T, pr.W, 1)
				}
			case op < 5: // bump owner counts along an existing sub-stream
				if len(m.ts) == 0 {
					continue
				}
				var stream []float64
				for i := range m.ts {
					if r.Intn(3) == 0 {
						stream = append(stream, m.ts[i])
						m.own[i]++
					}
				}
				if err := x.AddOwners(stream); err != nil {
					t.Fatal(err)
				}
			case op < 8: // release owners, drop points reaching zero
				if len(m.ts) == 0 {
					continue
				}
				var stream []float64
				for i := range m.ts {
					if m.own[i] > 0 && r.Intn(3) == 0 {
						stream = append(stream, m.ts[i])
						m.own[i]--
					}
				}
				if err := x.Remove(stream); err != nil {
					t.Fatal(err)
				}
				m.compact()
			case op < 9: // demand update (profile-style SetDemand)
				if len(m.ts) == 0 {
					continue
				}
				dense := r.Intn(2) == 0
				for i := range m.ws {
					if dense || r.Intn(8) == 0 {
						m.ws[i] = m.ts[i] * (0.1 + 1.8*r.Float64())
					}
				}
				if err := x.SetDemand(slices.Clone(m.ws)); err != nil {
					t.Fatal(err)
				}
			default: // clone: churn continues on the copy, original frozen
				frozen := slices.Clone(x.Kept())
				c := x.Clone()
				if err := c.Insert([]Pair{{T: newT(), W: 1 + r.Float64()}}); err != nil {
					t.Fatal(err)
				}
				if !samePairs(x.Kept(), frozen) {
					t.Fatal("mutating a clone changed the original's envelope")
				}
				continue
			}
			verify(t, r, x, m)
		}
		// Empty recovery: drain everything, then grow again.
		for len(m.ts) > 0 {
			// Remove wants each point listed once per owner release, and the
			// stream ascending: release one owner per point per pass.
			stream := []float64{}
			for i := range m.ts {
				stream = append(stream, m.ts[i])
				m.own[i]--
			}
			if err := x.Remove(stream); err != nil {
				t.Fatal(err)
			}
			m.compact()
			verify(t, r, x, m)
		}
		if x.Len() != 0 {
			t.Fatalf("index not empty after drain: %d points", x.Len())
		}
		if err := x.Insert([]Pair{{T: 2, W: 1}, {T: 3, W: 2.5}}); err != nil {
			t.Fatal(err)
		}
		m.insert(2, 1, 1)
		m.insert(3, 2.5, 1)
		verify(t, r, x, m)
	}
}

func TestIndexMergeSetDemandFlow(t *testing.T) {
	// The profile's admit flow: Merge placeholders, AddOwners, then
	// SetDemand over the full stream.
	r := rand.New(rand.NewSource(7))
	x := New(false)
	m := &churnModel{}
	base := []float64{2, 4, 6, 8, 12, 16, 24}
	ws := make([]float64, len(base))
	for i, tv := range base {
		ws[i] = tv * 0.5
	}
	var err error
	x, err = Build(false, base, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tv := range base {
		m.insert(tv, ws[i], 1)
	}
	verify(t, r, x, m)

	union := []float64{3, 4, 6, 9, 24, 30}
	inserted := x.Merge(union)
	wantPos := []int{1, 5, 9} // 3, 9 and 30 are new
	if !slices.Equal(inserted, wantPos) {
		t.Fatalf("Merge inserted positions %v, want %v", inserted, wantPos)
	}
	if err := x.AddOwners(union); err != nil {
		t.Fatal(err)
	}
	for _, tv := range union {
		if i := m.pos(tv); i >= 0 {
			m.own[i]++
		} else {
			m.insert(tv, 0, 1)
		}
	}
	row := make([]float64, x.Len())
	for p, tv := range x.Ts() {
		row[p] = tv*0.6 + 0.25
	}
	if err := x.SetDemand(row); err != nil {
		t.Fatal(err)
	}
	copy(m.ws, row)
	verify(t, r, x, m)
}

func TestIndexErrors(t *testing.T) {
	x := New(false)
	if err := x.Insert([]Pair{{T: 2, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert([]Pair{{T: 2, W: 1}}); err == nil {
		t.Fatal("duplicate Insert succeeded")
	}
	x = New(false)
	_ = x.Insert([]Pair{{T: 2, W: 1}})
	if err := x.Remove([]float64{3}); err == nil {
		t.Fatal("Remove of absent point succeeded")
	}
	x = New(false)
	_ = x.Insert([]Pair{{T: 2, W: 1}})
	if err := x.RemoveOwners([]float64{2, 2}); err == nil {
		t.Fatal("RemoveOwners below zero succeeded")
	}
	if _, err := Build(false, []float64{1, 1}, []float64{1, 1}, nil); err == nil {
		t.Fatal("Build with duplicate points succeeded")
	}
	if _, err := Build(false, []float64{1, 2}, []float64{1}, nil); err == nil {
		t.Fatal("Build with mismatched demands succeeded")
	}
	y := New(false)
	if err := y.SetDemand([]float64{1}); err == nil {
		t.Fatal("SetDemand with wrong length succeeded")
	}
}

func TestIndexBigFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("big-mode stream is slow under -short")
	}
	// One more point than the packed slot bits can address: the index
	// must promote to big mode and still match the from-scratch Prune
	// (which takes its own comparator fallback at this size).
	n := maxSlots + 1
	ts := make([]float64, n)
	ws := make([]float64, n)
	r := rand.New(rand.NewSource(3))
	for i := range ts {
		ts[i] = float64(i + 1)
		ws[i] = ts[i] * (0.2 + 1.5*r.Float64())
	}
	x, err := Build(false, ts, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !x.big {
		t.Fatalf("index of %d points did not promote to big mode", n)
	}
	all := make([]Pair, n)
	for i := range ts {
		all[i] = Pair{T: ts[i], W: ws[i]}
	}
	want := Prune(slices.Clone(all), false)
	if !samePairs(x.Kept(), want) {
		t.Fatalf("big-mode envelope diverged: %d kept vs %d", len(x.Kept()), len(want))
	}
	if err := Check(x); err != nil {
		t.Fatal(err)
	}
	// Churn still works, just not incrementally.
	if err := x.Insert([]Pair{{T: 0.5, W: 0.9}}); err != nil {
		t.Fatal(err)
	}
	if err := x.Remove([]float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if !samePairs(x.Kept(), want) {
		t.Fatal("big-mode churn round trip changed the envelope")
	}
	checkSound(t, r, all, x.Kept(), false)
}
