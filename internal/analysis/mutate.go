package analysis

import (
	"fmt"
	"sync"

	"repro/internal/envelope"
	"repro/internal/points"
	"repro/internal/task"
	"repro/internal/timeu"
)

// This file implements the exclusive (mutable) profile mode, the
// allocation-elimination counterpart of incremental.go. The immutable
// constructors there are the right shape for what-if probes — many
// readers share one snapshot — but the online manager's serving loop
// has exactly one live profile per channel, mutated under that
// channel's lock, and paying a full clone of the index and row matrix
// per admission event is pure overhead. An exclusive profile instead
// owns its state outright and is patched in place:
//
//   - the prefix-row matrix lives in one arena (preb) at a uniform
//     stride; width-changing relayouts move the rows within it, so
//     steady-state admit+remove cycles reuse one flat buffer and never
//     allocate;
//   - the envelope index is mutated directly (no Clone) — the index's
//     own copy-on-write machinery privatizes anything still shared
//     with the ancestor the profile was thawed from;
//   - the index is lazy (envelope.Index.SetLazy): a patch keeps only
//     the stream, the owner counts and the demand row current, and
//     never sorts rank keys or builds the envelope. The manager reads
//     each patched profile at one period, and MinQ answers that from
//     the demand row in one scan (Profile.MinQ), so nothing reads the
//     envelope after a patch; Pairs, Check, Equal, MemStats and the
//     immutable constructors build or skip it on demand;
//   - an admission or release that moves the hyperperiod re-ranges
//     every deadline stream, so there is nothing to patch: the profile
//     is recompiled in place by the EDF compile kernel (compileEDF, the
//     same kernel behind Compile), which writes the new stream, prefix
//     rows and index straight into the profile's own buffers and, once
//     they are warmed to the larger horizon, allocates nothing;
//   - rejection rollback is the inverse patch: AddTasks followed by
//     DropTasks of the same tasks restores the profile bit-exactly,
//     because every direction — patch or recompile — performs the
//     identical float64 term accumulation (the same argument that makes
//     the immutable paths bit-identical to their oracle).
//
// Exclusivity is a single-owner contract, not a lock: an exclusive
// profile must only be reached from one goroutine at a time (the
// manager guarantees this with its channel locks), and that includes
// its reads, since a read may build the lazy envelope. The immutable
// WithTasks/WithoutTasks remain callable on an exclusive profile —
// they deep-copy the index instead of CoW-cloning it, make the copy
// eager and latch prebShared so the next in-place patch abandons the
// shared arena — but the hot path never needs them.

// patchScratch holds the per-operation scratch buffers of the mutable
// patch path. Pooled at package level: profiles are patched under
// their channel lock, but distinct channels patch concurrently.
type patchScratch struct {
	scaled []int64
	union  []float64
	dls    []float64
	tmp    []float64
	used   []bool
	// set is the candidate or survivor set a hyperperiod move hands to
	// the compile kernel; rem is DropTasks' private copy of its batch.
	set task.Set
	rem []task.Task
	// Compile kernel scratch: the folded periods, and the per-task
	// stream heads and deadline indices of the k-way merge.
	fold  []int64
	heads []float64
	ks    []int
}

var patchPool = sync.Pool{New: func() any { return new(patchScratch) }}

// Exclusive reports whether the profile is in exclusive (mutable)
// mode, i.e. it was produced by Thawed or CompileMutable and may be
// patched in place with AddTasks/DropTasks.
func (pf *Profile) Exclusive() bool { return pf.exclusive }

// Thawed returns an exclusive deep copy of the profile: same compiled
// state, but owning its arena and free to be patched in place. The
// receiver is unchanged and remains valid. The copy must only be used
// by one goroutine at a time.
func (pf *Profile) Thawed() *Profile {
	c := &Profile{
		alg: pf.alg, horizon: pf.horizon, horizonInt: pf.horizonInt,
		span: pf.span, fallbacks: pf.fallbacks, exclusive: true,
	}
	c.tasks = append(make(task.Set, 0, len(pf.tasks)+4), pf.tasks...)
	if pf.scaled != nil {
		c.scaled = append(make([]int64, 0, len(pf.scaled)+4), pf.scaled...)
	}
	switch {
	case pf.idx != nil:
		c.idx = pf.idxSnapshot(true)
		n, N := len(pf.pre), pf.idx.Len()
		c.preb = make([]float64, n*N, n*N+2*N)
		for r, row := range pf.pre {
			copy(c.preb[r*N:(r+1)*N], row)
		}
		c.setRows(n, N)
	case pf.fp != nil:
		// FP rows are immutable once built; sharing them is safe even
		// across later in-place patches (those replace row pointers,
		// never row contents).
		c.fp = append(make([][]envelope.Pair, 0, len(pf.fp)+4), pf.fp...)
	}
	return c
}

// CompileMutable compiles s and returns the profile already in
// exclusive mode — the starting point for a lineage that will be
// patched in place rather than cloned. It compiles straight into a lazy
// index, so it sorts no rank keys, and lays the rows out in one exactly
// sized arena, so nothing is re-homed: a consolidation that rebuilds
// through CompileMutable reports Ratio 1.0 and the ratio trigger
// converges.
func CompileMutable(s task.Set, alg Alg) (*Profile, error) {
	return compile(s, alg, true)
}

// idxSnapshot is the index snapshot a derived profile takes of this
// one, lazy for an exclusive copy (Thawed) and eager for a published
// one (the immutable constructors). Published profiles never mutate
// again, so the cheap copy-on-write Clone is safe; an exclusive
// profile keeps mutating in place, which would corrupt a CoW child, so
// it pays for a deep copy.
func (pf *Profile) idxSnapshot(lazy bool) *envelope.Index {
	var x *envelope.Index
	if pf.exclusive {
		x = pf.idx.DeepClone()
	} else {
		x = pf.idx.Clone()
	}
	x.SetLazy(lazy)
	return x
}

// AddTasks patches the profile in place, adding every task in add in
// order — after it returns, the profile is bit-identical (retained
// streams included) to a fresh Compile of the extended set, exactly as
// WithTasks would produce, but mutating the receiver instead of
// allocating a sibling. The profile must be exclusive. On error the
// profile is unchanged, except for internal-invariant bails which
// rebuild it from scratch (still to the correct extended state).
func (pf *Profile) AddTasks(add []task.Task) error {
	if !pf.exclusive {
		return fmt.Errorf("analysis: AddTasks: profile is not exclusive (use Thawed or CompileMutable)")
	}
	for _, t := range add {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("analysis: AddTasks: %w", err)
		}
	}
	if len(add) == 0 {
		return nil
	}
	switch pf.alg {
	case EDF:
		return pf.addTasksEDF(add)
	case RM, DM:
		return pf.addTasksFP(add)
	}
	return fmt.Errorf("analysis: AddTasks: unknown algorithm %s", pf.alg)
}

// DropTasks patches the profile in place, removing every task in rem
// (exact field equality; a value listed twice must be present twice).
// After it returns, the profile is bit-identical to a fresh Compile of
// the surviving set — in particular, AddTasks followed by DropTasks of
// the same batch restores the pre-patch state bit for bit, which is
// what the online manager's rejection rollback relies on. The profile
// must be exclusive. A not-present error leaves the profile unchanged.
func (pf *Profile) DropTasks(rem []task.Task) error {
	if !pf.exclusive {
		return fmt.Errorf("analysis: DropTasks: profile is not exclusive (use Thawed or CompileMutable)")
	}
	if len(rem) == 0 {
		return nil
	}
	switch pf.alg {
	case EDF:
		return pf.dropTasksEDF(rem)
	case RM, DM:
		return pf.dropTasksFP(rem)
	}
	return fmt.Errorf("analysis: DropTasks: unknown algorithm %s", pf.alg)
}

// setRows rebuilds the pre row headers over the arena.
func (pf *Profile) setRows(n, width int) {
	pf.pre = rowsOver(pf.pre, pf.preb, n, width)
}

// widenRows lays the arena's first n rows, stored at width
// N-len(inserted), out at width N with a blank column at each of the
// ascending positions inserted, in an arena sized for rows rows. The
// rows move in place, last row first and each right to left, so every
// cell moves up and none is overwritten before it is read; an arena
// that is too small, or that an immutable child shares, is replaced
// (with room to grow) instead.
func (pf *Profile) widenRows(n, rows, N int, inserted []int) {
	old := N - len(inserted)
	need := rows * N
	src, dst := pf.preb, pf.preb
	if pf.prebShared || cap(dst) < need {
		dst = make([]float64, need, need+2*N)
	} else if len(inserted) == 0 {
		pf.preb = dst[:need]
		return
	}
	dst = dst[:need]
	for r := n - 1; r >= 0; r-- {
		s, d := src[r*old:(r+1)*old], dst[r*N:(r+1)*N]
		from, to := old, N
		for j := len(inserted) - 1; j >= 0; j-- {
			p := inserted[j]
			m := to - p - 1
			copy(d[p+1:to], s[from-m:from])
			from, to = from-m, p
		}
		copy(d[:to], s[:from])
	}
	pf.preb, pf.prebShared = dst, false
}

// narrowRows lays the arena's first keep rows, stored at width
// N+len(dropped), out at width N without the columns at the ascending
// positions dropped, in an arena sized for rows rows. The rows move in
// place, first row first and each left to right, so every cell moves
// down and none is overwritten before it is read; an arena an
// immutable child shares is replaced instead.
func (pf *Profile) narrowRows(keep, rows, N int, dropped []int) {
	old := N + len(dropped)
	need := rows * N
	src, dst := pf.preb, pf.preb
	if pf.prebShared {
		dst = make([]float64, need, need+2*N)
	} else if len(dropped) == 0 {
		pf.preb = dst[:need]
		return
	}
	dst = dst[:need]
	for r := 0; r < keep; r++ {
		s, d := src[r*old:(r+1)*old], dst[r*N:(r+1)*N]
		from, at := 0, 0
		for _, p := range dropped {
			copy(d[at:at+(p-from)], s[from:p])
			at += p - from
			from = p + 1
		}
		copy(d[at:], s[from:])
	}
	pf.preb, pf.prebShared = dst, false
}

// adoptCompiled recompiles the receiver in place as the EDF profile of
// s through the compile kernel. It serves every hyperperiod move (an
// admission or release that re-ranges every stream) and the bail-out
// for a violated stream invariant; bump counts the recompile as a
// fallback — one the patch paths could have avoided in principle — as
// opposed to a trivial rebuild of an empty profile or survivor set.
func (pf *Profile) adoptCompiled(s task.Set, bump bool, sc *patchScratch) error {
	if err := pf.compileEDF(s, sc); err != nil {
		return err
	}
	if bump {
		pf.fallbacks++
	}
	return nil
}

func (pf *Profile) addTasksEDF(add []task.Task) error {
	sc := patchPool.Get().(*patchScratch)
	defer patchPool.Put(sc)
	if len(pf.tasks) == 0 {
		return pf.adoptCompiled(add, false, sc)
	}
	// Fold the hyperperiod; the fold is monotone from the current
	// horizon, so the first divergence is permanent and means every
	// stream re-ranges — bail to a rebuild immediately (the kernel checks
	// the new hyperperiod before touching the profile). At the current
	// horizon, the newcomers' deadlines must still fit the stream cap.
	scaledAdd := sc.scaled[:0]
	span := pf.span
	for _, t := range add {
		p, err := timeu.ScaledPeriod(t.T, HyperperiodDenominator)
		if err != nil {
			sc.scaled = scaledAdd
			return err
		}
		scaledAdd = append(scaledAdd, p)
		if pf.horizonInt%p != 0 {
			sc.scaled = scaledAdd
			sc.set = append(append(sc.set[:0], pf.tasks...), add...)
			return pf.adoptCompiled(sc.set, true, sc)
		}
		if span, err = addSpan(span, pf.horizonInt, p); err != nil {
			sc.scaled = scaledAdd
			return err
		}
	}
	sc.scaled = scaledAdd
	n, k := len(pf.tasks), len(add)
	// Union of the newcomers' deadline streams, built on pooled
	// buffers (same values the immutable path's MergeUnique fold
	// produces).
	union := points.AppendTaskDeadlines(sc.union[:0], add[0], pf.horizon)
	for _, t := range add[1:] {
		sc.dls = points.AppendTaskDeadlines(sc.dls[:0], t, pf.horizon)
		union, sc.tmp = points.MergeUniqueInto(union, sc.dls, sc.tmp[:0]), union
	}
	sc.union = union
	inserted := pf.idx.Merge(union)
	N := pf.idx.Len()
	pf.widenRows(n, n+k, N, inserted)
	pf.setRows(n+k, N)
	if len(inserted) > 0 {
		// Brand-new points: accumulate the old set's prefix demand
		// exactly as a fresh Compile would.
		ts := pf.idx.Ts()
		for _, p := range inserted {
			x := ts[p]
			w := 0.0
			for r := 0; r < n; r++ {
				w += demandTerm(pf.tasks[r], x)
				pf.pre[r][p] = w
			}
		}
	}
	for _, t := range add {
		sc.dls = points.AppendTaskDeadlines(sc.dls[:0], t, pf.horizon)
		if err := pf.idx.AddOwners(sc.dls); err != nil {
			// Impossible unless the compiled state is corrupted;
			// degrade to a rebuild rather than panic.
			sc.set = append(append(sc.set[:0], pf.tasks...), add...)
			return pf.adoptCompiled(sc.set, true, sc)
		}
	}
	pf.tasks = append(pf.tasks, add...)
	pf.scaled = append(pf.scaled, scaledAdd...)
	pf.span = span
	// Append the k new prefix rows, each the left-fold continuation of
	// the one before.
	ts := pf.idx.Ts()
	base := pf.pre[n-1]
	for j := 0; j < k; j++ {
		row := pf.pre[n+j]
		t := pf.tasks[n+j]
		for p, x := range ts {
			row[p] = base[p] + demandTerm(t, x)
		}
		base = row
	}
	if err := pf.idx.SetDemand(pf.pre[n+k-1]); err != nil {
		return pf.adoptCompiled(pf.tasks, true, sc)
	}
	return nil
}

func (pf *Profile) dropTasksEDF(rem []task.Task) error {
	n0 := len(pf.tasks)
	sc := patchPool.Get().(*patchScratch)
	defer patchPool.Put(sc)
	// rem may alias pf.tasks, which the patch compacts in place before
	// it walks the departing streams.
	rem = append(sc.rem[:0], rem...)
	sc.rem = rem
	used := sc.used
	if cap(used) < n0 {
		used = make([]bool, n0)
	} else {
		used = used[:n0]
		clear(used)
	}
	sc.used = used
	minIdx := n0
	for _, t := range rem {
		found := -1
		for i := range pf.tasks {
			if !used[i] && pf.tasks[i] == t {
				found = i
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("analysis: DropTasks: task %q not in profile", t.Name)
		}
		used[found] = true
		if found < minIdx {
			minIdx = found
		}
	}
	if len(rem) == n0 {
		return pf.adoptCompiled(nil, false, sc)
	}
	// Re-fold the surviving hyperperiod. Every cached scaled period
	// divides the current horizon and the fold is monotone, so once it
	// reaches the horizon it stays there — stop early.
	hInt := int64(1)
	for i, p := range pf.scaled {
		if !used[i] {
			var err error
			if hInt, err = foldPeriod(hInt, p); err != nil {
				return err
			}
			if hInt == pf.horizonInt {
				break
			}
		}
	}
	if hInt != pf.horizonInt {
		surv := sc.set[:0]
		for i, tk := range pf.tasks {
			if !used[i] {
				surv = append(surv, tk)
			}
		}
		sc.set = surv
		return pf.adoptCompiled(surv, true, sc)
	}
	// Compact tasks and scaled in place.
	w := 0
	for i := 0; i < n0; i++ {
		if used[i] {
			pf.span -= pf.horizonInt / pf.scaled[i]
			continue
		}
		pf.tasks[w] = pf.tasks[i]
		pf.scaled[w] = pf.scaled[i]
		w++
	}
	clear(pf.tasks[w:n0])
	pf.tasks = pf.tasks[:w]
	pf.scaled = pf.scaled[:w]
	n := w
	for _, t := range rem {
		sc.dls = points.AppendTaskDeadlines(sc.dls[:0], t, pf.horizon)
		if err := pf.idx.RemoveOwners(sc.dls); err != nil {
			return pf.adoptCompiled(pf.tasks, true, sc)
		}
	}
	dropped := pf.idx.Compact()
	N := pf.idx.Len()
	keep := minIdx
	if keep > n {
		keep = n
	}
	pf.narrowRows(keep, n, N, dropped)
	pf.setRows(n, N)
	// Re-accumulate the suffix rows in place; each reads the (already
	// final) row above it.
	ts := pf.idx.Ts()
	for r := keep; r < n; r++ {
		tk := pf.tasks[r]
		row := pf.pre[r]
		if r == 0 {
			for p, x := range ts {
				row[p] = demandTerm(tk, x)
			}
		} else {
			base := pf.pre[r-1]
			for p, x := range ts {
				row[p] = base[p] + demandTerm(tk, x)
			}
		}
	}
	if err := pf.idx.SetDemand(pf.pre[n-1]); err != nil {
		return pf.adoptCompiled(pf.tasks, true, sc)
	}
	return nil
}

// addTasksFP / dropTasksFP reuse the immutable suffix-rebuild paths:
// FP rows are immutable once built, so adopting the result's fields
// into the receiver shares state only in the always-safe direction.
func (pf *Profile) addTasksFP(add []task.Task) error {
	next, err := pf.withTasksFP(add)
	if err != nil {
		return err
	}
	pf.tasks, pf.fp, pf.fallbacks = next.tasks, next.fp, next.fallbacks
	return nil
}

func (pf *Profile) dropTasksFP(rem []task.Task) error {
	next, err := pf.withoutTasksFP(rem)
	if err != nil {
		return err
	}
	pf.tasks, pf.fp, pf.fallbacks = next.tasks, next.fp, next.fallbacks
	return nil
}
