package envelope

import (
	"fmt"
	"math"
	"slices"
)

// Check audits every index invariant: slot-table consistency, a
// strictly ascending stream, owner counts ≥ 1, sorted rank keys whose
// truncated bits match the slot rankings, bit-exact maxInf prefix
// maxima (when materialized), drop flags equal to a from-scratch canonical walk, and a
// pruned envelope equal to the from-scratch Prune of the live stream.
// A nil index is trivially valid. Check is read-only up to an internal
// recompute-and-restore in big mode; it must not run concurrently with
// mutations.
func Check(x *Index) error {
	if x == nil {
		return nil
	}
	// Settle any deferred small-stream refresh so the rank-order
	// invariants below are meaningful; a quiescent index (one whose last
	// mutation was followed by Kept) is already clean and this is a
	// no-op.
	if !x.big {
		x.refresh()
	}
	n := len(x.ts)
	if len(x.slot) != n {
		return fmt.Errorf("envelope: check: %d stream points but %d slot refs", n, len(x.slot))
	}
	cols := len(x.wS)
	for name, l := range map[string]int{
		"rank0S": len(x.rank0S), "infS": len(x.infS),
		"ownS": len(x.ownS), "dropS": len(x.dropS),
	} {
		if l != cols {
			return fmt.Errorf("envelope: check: column %s has %d slots, want %d", name, l, cols)
		}
	}
	seen := make([]int8, cols)
	for p, s := range x.slot {
		if s < 0 || int(s) >= cols {
			return fmt.Errorf("envelope: check: stream position %d references slot %d of %d", p, s, cols)
		}
		if seen[s] != 0 {
			return fmt.Errorf("envelope: check: slot %d referenced twice", s)
		}
		seen[s] = 1
		if p > 0 && !(x.ts[p] > x.ts[p-1]) {
			return fmt.Errorf("envelope: check: stream not strictly ascending at position %d", p)
		}
		if x.ownS[s] < 1 {
			return fmt.Errorf("envelope: check: live point t=%v has owner count %d", x.ts[p], x.ownS[s])
		}
		r0, rInf := x.rank(x.ts[p], x.wS[s])
		if math.Float64bits(r0) != math.Float64bits(x.rank0S[s]) || math.Float64bits(rInf) != math.Float64bits(x.infS[s]) {
			return fmt.Errorf("envelope: check: slot %d rankings stale for t=%v", s, x.ts[p])
		}
	}
	for _, s := range x.free {
		if s < 0 || int(s) >= cols {
			return fmt.Errorf("envelope: check: free list references slot %d of %d", s, cols)
		}
		if seen[s] != 0 {
			return fmt.Errorf("envelope: check: slot %d both live and free", s)
		}
		seen[s] = 2
	}
	for s, m := range seen {
		if m == 0 {
			return fmt.Errorf("envelope: check: slot %d leaked (neither live nor free)", s)
		}
	}

	if !x.big {
		if n > maxSlots {
			return fmt.Errorf("envelope: check: %d points in small mode (max %d)", n, maxSlots)
		}
		if len(x.keys) != n || (x.maxInfOK && len(x.maxInf) != n) {
			return fmt.Errorf("envelope: check: %d keys and %d maxInf entries for %d points", len(x.keys), len(x.maxInf), n)
		}
		run := math.Inf(-1)
		for j, key := range x.keys {
			if j > 0 && !(key > x.keys[j-1]) {
				return fmt.Errorf("envelope: check: keys not strictly ascending at %d", j)
			}
			s := key & slotMask
			if int(s) >= cols || seen[s] != 1 {
				return fmt.Errorf("envelope: check: key %d references dead slot %d", j, s)
			}
			if key&^uint64(slotMask) != packRank(x.rank0S[s]) {
				return fmt.Errorf("envelope: check: key %d stale for slot %d", j, s)
			}
			if v := x.infS[s]; v > run {
				run = v
			}
			if x.maxInfOK && math.Float64bits(x.maxInf[j]) != math.Float64bits(run) {
				return fmt.Errorf("envelope: check: maxInf[%d] = %v, want %v", j, x.maxInf[j], run)
			}
		}
		drop := make([]bool, cols)
		walk(x.keys, x.rank0S, x.infS, drop, nil)
		for p, s := range x.slot {
			if drop[s] != x.dropS[s] {
				return fmt.Errorf("envelope: check: drop flag of t=%v diverged from canonical walk (have %v)", x.ts[p], x.dropS[s])
			}
		}
	} else if !x.flagsDirty {
		saved := slices.Clone(x.dropS)
		x.rebuildBig()
		for p, s := range x.slot {
			if saved[s] != x.dropS[s] {
				have := saved[s]
				copy(x.dropS, saved)
				return fmt.Errorf("envelope: check: big-mode drop flag of t=%v diverged (have %v)", x.ts[p], have)
			}
		}
	}

	if x.big && x.flagsDirty {
		return nil // mid-mutation big index: flags not yet meaningful
	}
	pairs := make([]Pair, n)
	for p, s := range x.slot {
		pairs[p] = Pair{T: x.ts[p], W: x.wS[s]}
	}
	oracle := Prune(pairs, x.min)
	kept := make([]Pair, 0, len(oracle))
	for p, s := range x.slot {
		if !x.dropS[s] {
			kept = append(kept, Pair{T: x.ts[p], W: x.wS[s]})
		}
	}
	if len(kept) != len(oracle) {
		return fmt.Errorf("envelope: check: %d kept points, from-scratch prune keeps %d", len(kept), len(oracle))
	}
	for i := range kept {
		if math.Float64bits(kept[i].T) != math.Float64bits(oracle[i].T) || math.Float64bits(kept[i].W) != math.Float64bits(oracle[i].W) {
			return fmt.Errorf("envelope: check: kept point %d = %+v, from-scratch prune has %+v", i, kept[i], oracle[i])
		}
	}
	if x.keptOK {
		if len(x.kept) != len(oracle) {
			return fmt.Errorf("envelope: check: cached envelope has %d points, want %d", len(x.kept), len(oracle))
		}
		for i := range x.kept {
			if math.Float64bits(x.kept[i].T) != math.Float64bits(oracle[i].T) || math.Float64bits(x.kept[i].W) != math.Float64bits(oracle[i].W) {
				return fmt.Errorf("envelope: check: cached envelope point %d = %+v, want %+v", i, x.kept[i], oracle[i])
			}
		}
	}
	return nil
}
