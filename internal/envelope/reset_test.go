package envelope

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomStream draws a strictly ascending stream of n points with
// demands and owner counts, on a grid coarse enough for rank ties.
func randomStream(r *rand.Rand, n int) (ts, ws []float64, owners []int32) {
	t := 0.0
	for i := 0; i < n; i++ {
		t += 0.5 * float64(1+r.Intn(4))
		ts = append(ts, t)
		ws = append(ws, math.Round(t*(0.2+r.Float64())*8)/8)
		owners = append(owners, int32(1+r.Intn(3)))
	}
	return ts, ws, owners
}

func modelOf(ts, ws []float64, owners []int32) *churnModel {
	m := &churnModel{}
	for i := range ts {
		m.insert(ts[i], ws[i], owners[i])
	}
	return m
}

// TestResetMatchesBuild re-indexes one index through streams that grow
// and shrink across the small-stream limit, by both Reset and the
// Restream+Reset fill, and checks every state against the model, Check
// and the naive envelope — what a fresh Build of the stream gives.
func TestResetMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, min := range []bool{false, true} {
		x := New(min)
		for step, n := range []int{40, 300, 7, 0, 120, 33, 500, 12} {
			ts, ws, owners := randomStream(r, n)
			if step%2 == 0 {
				if err := x.Reset(ts, ws, owners); err != nil {
					t.Fatal(err)
				}
			} else {
				bt, bo := x.Restream(n)
				copy(bt, ts)
				copy(bo, owners)
				if err := x.Reset(bt, ws, bo); err != nil {
					t.Fatal(err)
				}
			}
			verify(t, r, x, modelOf(ts, ws, owners))
			fresh, err := Build(min, ts, ws, owners)
			if err != nil {
				t.Fatal(err)
			}
			if !samePairs(x.Kept(), fresh.Kept()) {
				t.Fatalf("n=%d: Reset kept %v, Build kept %v", n, x.Kept(), fresh.Kept())
			}
		}
	}
}

// indexState is a deep copy of every buffer an index reads.
type indexState struct {
	ts, wS, rank0S, infS, maxInf []float64
	slot, ownS, free             []int32
	dropS                        []bool
	keys                         []uint64
	kept                         []Pair
}

func stateOf(x *Index) indexState {
	return indexState{
		ts: slices.Clone(x.ts), wS: slices.Clone(x.wS), rank0S: slices.Clone(x.rank0S),
		infS: slices.Clone(x.infS), maxInf: slices.Clone(x.maxInf),
		slot: slices.Clone(x.slot), ownS: slices.Clone(x.ownS), free: slices.Clone(x.free),
		dropS: slices.Clone(x.dropS), keys: slices.Clone(x.keys), kept: slices.Clone(x.kept),
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}

func (s indexState) equal(o indexState) bool {
	return bitsEqual(s.ts, o.ts) && bitsEqual(s.wS, o.wS) && bitsEqual(s.rank0S, o.rank0S) &&
		bitsEqual(s.infS, o.infS) && bitsEqual(s.maxInf, o.maxInf) &&
		slices.Equal(s.slot, o.slot) && slices.Equal(s.ownS, o.ownS) && slices.Equal(s.free, o.free) &&
		slices.Equal(s.dropS, o.dropS) && slices.Equal(s.keys, o.keys) && slices.Equal(s.kept, o.kept)
}

// TestResetOnCloneLeavesParent re-indexes copy-on-write clones — by
// Reset and by Restream+Reset, to longer and shorter streams, then
// churns them — and checks that the parent's buffers, which the clones
// share until they write, never change.
func TestResetOnCloneLeavesParent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ts, ws, owners := randomStream(r, 200)
	parent, err := Build(false, ts, ws, owners)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize everything a clone could share, maxInf included.
	parent.Kept()
	parent.ensureMaxInf()
	before := stateOf(parent)
	for i, n := range []int{50, 200, 400} {
		c := parent.Clone()
		nts, nws, nown := randomStream(r, n)
		if i%2 == 0 {
			if err := c.Reset(nts, nws, nown); err != nil {
				t.Fatal(err)
			}
		} else {
			bt, bo := c.Restream(n)
			copy(bt, nts)
			copy(bo, nown)
			if err := c.Reset(bt, nws, bo); err != nil {
				t.Fatal(err)
			}
		}
		m := modelOf(nts, nws, nown)
		verify(t, r, c, m)
		// Churn the clone through the sparse and dense paths.
		union := []float64{nts[0] + 0.25, nts[len(nts)/2] + 0.25}
		c.Merge(union)
		if err := c.AddOwners(union); err != nil {
			t.Fatal(err)
		}
		for _, tv := range union {
			m.insert(tv, 0, 1)
		}
		grown := slices.Clone(m.ws)
		for k := range grown {
			grown[k] += 0.5
		}
		if err := c.SetDemand(grown); err != nil {
			t.Fatal(err)
		}
		m.ws = grown
		verify(t, r, c, m)
		if !stateOf(parent).equal(before) {
			t.Fatalf("re-indexing clone %d wrote the parent's buffers", i)
		}
	}
	if err := Check(parent); err != nil {
		t.Fatal(err)
	}
	verify(t, r, parent, modelOf(ts, ws, owners))
}

// TestResetAllocationFree: once an index has held the longer of two
// streams, re-indexing back and forth between them — by Reset or by
// Restream+Reset — allocates nothing, and neither does a dense
// merge/compact cycle on it.
func TestResetAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	lts, lws, lown := randomStream(r, 600)
	sts, sws, sown := randomStream(r, 200)
	x, err := Build(false, lts, lws, lown)
	if err != nil {
		t.Fatal(err)
	}
	swing := func() {
		if err := x.Reset(sts, sws, sown); err != nil {
			t.Fatal(err)
		}
		x.Kept()
		bt, bo := x.Restream(len(lts))
		copy(bt, lts)
		copy(bo, lown)
		if err := x.Reset(bt, lws, bo); err != nil {
			t.Fatal(err)
		}
		x.Kept()
	}
	swing()
	if allocs := testing.AllocsPerRun(20, swing); allocs != 0 {
		t.Fatalf("Reset swing allocates %.1f/op, want 0", allocs)
	}

	// A dense merge: more new points than the sparse limit (len/8).
	var union []float64
	for i := 0; i < 100; i++ {
		union = append(union, lts[i*5]+0.25)
	}
	m := modelOf(lts, lws, lown)
	for _, tv := range union {
		m.insert(tv, 0, 1)
	}
	grown := slices.Clone(m.ws)
	for k := range grown {
		grown[k] += 1
	}
	cycle := func() {
		x.Merge(union)
		if err := x.AddOwners(union); err != nil {
			t.Fatal(err)
		}
		if err := x.SetDemand(grown); err != nil {
			t.Fatal(err)
		}
		x.Kept()
		if err := x.RemoveOwners(union); err != nil {
			t.Fatal(err)
		}
		x.Compact()
		if err := x.SetDemand(lws); err != nil {
			t.Fatal(err)
		}
		x.Kept()
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("dense merge/compact cycle allocates %.1f/op, want 0", allocs)
	}
	verify(t, r, x, modelOf(lts, lws, lown))
}

// TestLazyIndex: a lazy index keeps no rank keys or envelope through
// Reset and mutations — its footprint is the stream and slot columns
// alone, exactly held after a fresh Reset — and builds, on the first
// read after any run of mutations, the envelope an eager index holds.
func TestLazyIndex(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, min := range []bool{false, true} {
		for _, n := range []int{0, 5, 40, 300} {
			ts, ws, owners := randomStream(r, n)
			lazy, eager := New(min), New(min)
			lazy.SetLazy(true)
			if err := lazy.Reset(ts, ws, owners); err != nil {
				t.Fatal(err)
			}
			if err := eager.Reset(ts, ws, owners); err != nil {
				t.Fatal(err)
			}
			if live, held := lazy.Footprint(); live != held || cap(lazy.keys) != 0 || cap(lazy.kept) != 0 {
				t.Fatalf("n=%d: fresh lazy Reset holds %d of %d live bytes, %d keys, %d kept", n, held, live, cap(lazy.keys), cap(lazy.kept))
			}
			m := modelOf(ts, ws, owners)
			for step := 0; step < 30; step++ {
				// A run of mutations on both, then one read.
				for k := 0; k < 1+r.Intn(4); k++ {
					switch r.Intn(3) {
					case 0:
						tv := 0.25 + 0.5*float64(r.Intn(2000))
						if m.pos(tv) >= 0 {
							continue
						}
						pt := []Pair{{T: tv, W: tv * r.Float64()}}
						if err := lazy.Insert(pt); err != nil {
							t.Fatal(err)
						}
						if err := eager.Insert(pt); err != nil {
							t.Fatal(err)
						}
						m.insert(pt[0].T, pt[0].W, 1)
					case 1:
						var stream []float64
						for i := range m.ts {
							if r.Intn(4) == 0 {
								stream = append(stream, m.ts[i])
								m.own[i]--
							}
						}
						if err := lazy.Remove(stream); err != nil {
							t.Fatal(err)
						}
						if err := eager.Remove(stream); err != nil {
							t.Fatal(err)
						}
						m.compact()
					default:
						for i := range m.ws {
							if r.Intn(3) == 0 {
								m.ws[i] = m.ts[i] * r.Float64()
							}
						}
						if err := lazy.SetDemand(slices.Clone(m.ws)); err != nil {
							t.Fatal(err)
						}
						if err := eager.SetDemand(slices.Clone(m.ws)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if len(lazy.ts) > smallLimit && !lazy.flagsDirty && !lazy.keptOK {
					t.Fatalf("n=%d step %d: a lazy index maintained its flags", n, step)
				}
				if !samePairs(lazy.Kept(), eager.Kept()) {
					t.Fatalf("n=%d step %d: lazy kept %v, eager %v", n, step, lazy.Kept(), eager.Kept())
				}
				verify(t, r, lazy, m)
			}
		}
	}
}
