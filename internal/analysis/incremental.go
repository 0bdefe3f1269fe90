package analysis

import (
	"fmt"
	"sort"

	"repro/internal/envelope"
	"repro/internal/points"
	"repro/internal/task"
	"repro/internal/timeu"
)

// This file implements incremental profile updates, the run-time
// counterpart of Compile. An admission controller (internal/online)
// touches one channel per event; recompiling that channel from scratch
// makes the event cost scale with the channel — hyperperiod, deadline
// merge, demand values and envelope are all rebuilt even though a single
// task changed. WithTasks and WithoutTasks instead patch the compiled
// state (WithTask and WithoutTask are the one-task special case of the
// same batch paths):
//
//   - EDF: the profile's envelope.Index retains the pre-pruning deadline
//     stream with per-point owner counts, and the profile keeps, per
//     task, the prefix demand rows pre[i] (the exact partial sums
//     DemandBound accumulates in set order). Admitting tasks clones the
//     index snapshot, merges the newcomers' deadline streams into it
//     (Merge), extends existing prefix rows only at the brand-new
//     points, appends the newcomers' rows, and hands the patched demand
//     row back to the index (SetDemand), which re-ranks only the points
//     whose demand changed. Releasing tasks walks owner counts down
//     (RemoveOwners), compacts the solely-owned points out of the stream
//     (Compact) and re-accumulates only the suffix rows at or after the
//     first removed position. Because the retained rows are the partial
//     sums of the very accumulation a fresh Compile performs — and
//     float64 addition of an identical term sequence is deterministic —
//     the patched demand row, and therefore the maintained envelope, is
//     bit-identical to a fresh Compile of the same set.
//
//   - RM/DM: priority levels above the changed task keep their
//     higher-priority sets, so their rows are shared unchanged; only the
//     suffix from the task's priority position down is rebuilt, through
//     the same compileFPRow used by Compile.
//
// The retained streams are the memory-for-latency trade called out in
// the package comment: one float64 per task per deadline point, private
// to the profile. Both operations fall back to a fresh Compile when
// patching has no advantage (empty profiles, or an EDF hyperperiod
// change, where every stream would extend anyway); each such bail bumps
// the profile's fallback counter (Fallbacks), and the fallback is also
// the property-test oracle (see incremental_test.go).

// WithTask returns a new profile for the compiled set plus t, equivalent
// to Compile(append(set, t), alg) — bit-identical in its retained pairs —
// at a cost that scales with t's own deadline count (EDF) or priority
// suffix (RM/DM) rather than the whole set. The receiver is unchanged
// and shares unmodified state with the result.
func (pf *Profile) WithTask(t task.Task) (*Profile, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: WithTask: %w", err)
	}
	switch pf.alg {
	case EDF:
		return pf.withTasksEDF([]task.Task{t})
	case RM, DM:
		return pf.withTasksFP([]task.Task{t})
	}
	return nil, fmt.Errorf("analysis: WithTask: unknown algorithm %s", pf.alg)
}

// WithoutTask returns a new profile for the compiled set minus t,
// equivalent to Compile of the surviving set. The task must be present
// (exact field equality); the receiver is unchanged.
func (pf *Profile) WithoutTask(t task.Task) (*Profile, error) {
	switch pf.alg {
	case EDF:
		return pf.withoutTasksEDF([]task.Task{t})
	case RM, DM:
		return pf.withoutTasksFP([]task.Task{t})
	}
	return nil, fmt.Errorf("analysis: WithoutTask: unknown algorithm %s", pf.alg)
}

// WithTasks returns a new profile for the compiled set plus every task
// in add, in order — bit-identical (retained streams included) to
// folding WithTask over add — but the batch pays the expensive steps
// once instead of len(add) times: the newcomers' deadline streams are
// merged into the retained index in one pass, the prefix-row matrix is
// extended once, and the envelope re-ranks once (EDF); for RM/DM the
// priority suffix below the highest-priority newcomer is rebuilt once
// instead of once per insertion. The receiver is unchanged and shares
// unmodified state with the result. An empty batch returns the receiver.
func (pf *Profile) WithTasks(add []task.Task) (*Profile, error) {
	for _, t := range add {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("analysis: WithTasks: %w", err)
		}
	}
	if len(add) == 0 {
		return pf, nil
	}
	switch pf.alg {
	case EDF:
		return pf.withTasksEDF(add)
	case RM, DM:
		return pf.withTasksFP(add)
	}
	return nil, fmt.Errorf("analysis: WithTasks: unknown algorithm %s", pf.alg)
}

// WithoutTasks returns a new profile for the compiled set minus every
// task in rem, equivalent to folding WithoutTask over rem but with one
// owner-count walk, one stream compaction, one suffix re-accumulation
// and one envelope re-rank for the whole batch. Every task must be
// present (exact field equality; a value listed twice must be present
// twice). The receiver is unchanged; an empty batch returns it.
func (pf *Profile) WithoutTasks(rem []task.Task) (*Profile, error) {
	if len(rem) == 0 {
		return pf, nil
	}
	switch pf.alg {
	case EDF:
		return pf.withoutTasksEDF(rem)
	case RM, DM:
		return pf.withoutTasksFP(rem)
	}
	return nil, fmt.Errorf("analysis: WithoutTasks: unknown algorithm %s", pf.alg)
}

// Tasks returns a copy of the compiled task set: in declaration order
// for EDF, in priority order for RM/DM.
func (pf *Profile) Tasks() task.Set {
	return append(task.Set(nil), pf.tasks...)
}

// Equal reports whether two profiles retain bit-identical pruned pairs
// for the same algorithm — the exactness guarantee of the incremental
// constructors relative to a fresh Compile.
func (pf *Profile) Equal(o *Profile) bool {
	a, b := pf.keptEDF(), o.keptEDF()
	if pf.alg != o.alg || len(a) != len(b) || len(pf.fp) != len(o.fp) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	for i := range pf.fp {
		if len(pf.fp[i]) != len(o.fp[i]) {
			return false
		}
		for k := range pf.fp[i] {
			if pf.fp[i][k] != o.fp[i][k] {
				return false
			}
		}
	}
	return true
}

// recompile is the incremental paths' bail-out: a fresh Compile of s
// that carries the receiver's fallback count forward, bumping it when
// the bail is a genuine fallback (patching was possible in principle
// but had no advantage or hit a violated invariant) rather than a
// trivial case (empty profile, empty survivor set).
func (pf *Profile) recompile(s task.Set, bump bool) (*Profile, error) {
	next, err := Compile(s, pf.alg)
	if err != nil {
		return nil, err
	}
	next.fallbacks = pf.fallbacks
	if bump {
		next.fallbacks++
	}
	return next, nil
}

func (pf *Profile) withTasksEDF(add []task.Task) (*Profile, error) {
	cand := append(append(make(task.Set, 0, len(pf.tasks)+len(add)), pf.tasks...), add...)
	if len(pf.tasks) == 0 {
		return pf.recompile(cand, false)
	}
	scaledAdd := make([]int64, len(add))
	hInt := pf.horizonInt
	for i, t := range add {
		p, err := timeu.ScaledPeriod(t.T, HyperperiodDenominator)
		if err == nil {
			hInt, err = foldPeriod(hInt, p)
		}
		if err != nil {
			return nil, err
		}
		scaledAdd[i] = p
	}
	if hInt != pf.horizonInt {
		// A newcomer stretches the hyperperiod, so every existing stream
		// extends and patching has no advantage — the same fallback the
		// sequential fold takes when it reaches that task. (Integer LCM is
		// order-independent, so the folded hyperperiod matches a fresh
		// Compile of the whole candidate.)
		return pf.recompile(cand, true)
	}
	span := pf.span
	for _, p := range scaledAdd {
		var err error
		if span, err = addSpan(span, hInt, p); err != nil {
			return nil, err
		}
	}
	n, k := len(pf.tasks), len(add)
	next := &Profile{
		alg: EDF, tasks: cand, horizon: pf.horizon, horizonInt: pf.horizonInt,
		span: span, fallbacks: pf.fallbacks,
	}
	next.scaled = append(append(make([]int64, 0, n+k), pf.scaled...), scaledAdd...)
	// Union of the newcomers' deadline streams: the single merge input.
	var union []float64
	for _, t := range add {
		union = points.MergeUnique(union, points.TaskDeadlines(t, pf.horizon))
	}
	// The published profile's index is an immutable snapshot: patch a
	// clone (a deep copy if the receiver is exclusive and will keep
	// mutating). Merge splices the brand-new scheduling points in as
	// zero-demand, zero-owner placeholders and reports their positions.
	idx := pf.idxSnapshot(false)
	inserted := idx.Merge(union)
	N := idx.Len()
	if len(inserted) == 0 {
		// Every newcomer deadline already is a scheduling point: share
		// all existing prefix rows, append k new rows. If the receiver
		// is exclusive its next in-place patch must abandon the shared
		// arena instead of writing through it.
		next.pre = make([][]float64, n+k)
		copy(next.pre, pf.pre)
		if pf.exclusive {
			pf.prebShared = true
		}
		rows := rowsOver(nil, make([]float64, k*N), k, N)
		for j := range rows {
			next.pre[n+j] = rows[j]
		}
		next.pinned = pf.pinned + k*N
	} else {
		next.pre = rowsOver(nil, make([]float64, (n+k)*N), n+k, N)
		next.pinned = (n + k) * N
		// Inserted points get fresh prefix columns; runs of retained
		// points get block copies per row.
		for r := 0; r < n; r++ {
			dst, src := next.pre[r], pf.pre[r]
			from, at := 0, 0
			for _, p := range inserted {
				copy(dst[at:p], src[from:from+(p-at)])
				from += p - at
				at = p + 1
			}
			copy(dst[at:], src[from:])
		}
		ts := idx.Ts()
		for _, p := range inserted {
			// A brand-new point: accumulate the old set's prefix demand
			// exactly as a fresh Compile would.
			x := ts[p]
			w := 0.0
			for r, tk := range pf.tasks {
				w += demandTerm(tk, x)
				next.pre[r][p] = w
			}
		}
	}
	// Bump owner counts for each newcomer's own stream; every inserted
	// placeholder belongs to at least one newcomer, so no zero-owner
	// point survives.
	for _, t := range add {
		if err := idx.AddOwners(points.TaskDeadlines(t, pf.horizon)); err != nil {
			// Impossible unless the compiled state is corrupted; degrade
			// to the oracle rather than panic.
			return pf.recompile(cand, true)
		}
	}
	// Append the k new prefix rows, each the left-fold continuation of
	// the one before — the exact partial sums a sequential fold builds.
	ts := idx.Ts()
	base := next.pre[n-1]
	for j, t := range add {
		row := next.pre[n+j]
		for p, x := range ts {
			row[p] = base[p] + demandTerm(t, x)
		}
		base = row
	}
	// Hand the patched demand row to the index: it re-ranks exactly the
	// points whose demand changed bitwise and maintains the envelope.
	if err := idx.SetDemand(next.pre[n+k-1]); err != nil {
		return pf.recompile(cand, true)
	}
	next.idx = idx
	next.edf = idx.Kept()
	return next, nil
}

func (pf *Profile) withoutTasksEDF(rem []task.Task) (*Profile, error) {
	// Locate every departing task; a value listed twice must match two
	// distinct (identical-valued) entries.
	used := make([]bool, len(pf.tasks))
	minIdx := len(pf.tasks)
	for _, t := range rem {
		found := -1
		for i := range pf.tasks {
			if !used[i] && pf.tasks[i] == t {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("analysis: WithoutTasks: task %q not in profile", t.Name)
		}
		used[found] = true
		if found < minIdx {
			minIdx = found
		}
	}
	surv := make(task.Set, 0, len(pf.tasks)-len(rem))
	for i, tk := range pf.tasks {
		if !used[i] {
			surv = append(surv, tk)
		}
	}
	if len(surv) == 0 {
		return pf.recompile(nil, false)
	}
	// Re-fold the surviving hyperperiod from the cached scaled periods;
	// integer LCM is order-independent, so this matches what a fresh
	// Compile of surv computes.
	hInt := int64(1)
	span := pf.span
	for i, p := range pf.scaled {
		if used[i] {
			span -= pf.horizonInt / p
			continue
		}
		var err error
		if hInt, err = foldPeriod(hInt, p); err != nil {
			return nil, err
		}
	}
	if hInt != pf.horizonInt {
		// A departing task carried the hyperperiod; the whole stream
		// re-ranges, so patching has no advantage.
		return pf.recompile(surv, true)
	}
	n := len(surv)
	next := &Profile{
		alg: EDF, tasks: surv, horizon: pf.horizon, horizonInt: hInt,
		span: span, fallbacks: pf.fallbacks,
	}
	next.scaled = make([]int64, 0, n)
	for i, p := range pf.scaled {
		if !used[i] {
			next.scaled = append(next.scaled, p)
		}
	}
	// Walk owner counts down once per departing stream on a clone of
	// the index snapshot, then compact: points owned solely by the
	// departing tasks drop out of the stream, and Compact reports their
	// pre-compaction positions. A violated invariant (a deadline not in
	// the stream — impossible unless the compiled state is corrupted)
	// degrades to the oracle instead of panicking.
	idx := pf.idxSnapshot(false)
	for _, t := range rem {
		if err := idx.RemoveOwners(points.TaskDeadlines(t, pf.horizon)); err != nil {
			return pf.recompile(surv, true)
		}
	}
	dropped := idx.Compact()
	N := idx.Len()
	// Rows strictly above the first removed position keep their prefix
	// sets and are shared (or block-copied around dropped points); the
	// suffix re-accumulates once for the whole batch.
	keep := minIdx
	if keep > n {
		keep = n
	}
	next.pre = make([][]float64, n)
	if len(dropped) == 0 {
		copy(next.pre, pf.pre[:keep])
		if pf.exclusive && keep > 0 {
			pf.prebShared = true
		}
		next.pinned = pf.pinned + (n-keep)*N
	} else {
		rows := rowsOver(nil, make([]float64, keep*N), keep, N)
		from, at := 0, 0
		flush := func(until int) {
			for r := 0; r < keep; r++ {
				copy(rows[r][at:], pf.pre[r][from:until])
			}
			at += until - from
			from = until
		}
		for _, p := range dropped {
			flush(p)
			from = p + 1 // skip the dropped point
		}
		flush(len(pf.pre[0]))
		copy(next.pre, rows)
		next.pinned = n * N
	}
	suffix := rowsOver(nil, make([]float64, (n-keep)*N), n-keep, N)
	ts := idx.Ts()
	for r := keep; r < n; r++ {
		row := suffix[r-keep]
		tk := surv[r]
		if r == 0 {
			for p, x := range ts {
				row[p] = demandTerm(tk, x)
			}
		} else {
			base := next.pre[r-1]
			for p, x := range ts {
				row[p] = base[p] + demandTerm(tk, x)
			}
		}
		next.pre[r] = row
	}
	if err := idx.SetDemand(next.pre[n-1]); err != nil {
		return pf.recompile(surv, true)
	}
	next.idx = idx
	next.edf = idx.Kept()
	return next, nil
}

func (pf *Profile) withTasksFP(add []task.Task) (*Profile, error) {
	// Sort the newcomers by priority (stable, so equal-priority newcomers
	// keep their batch order, matching the sequential upper-bound
	// insertions), then merge into the priority-ordered compiled set with
	// existing tasks first on exact ties — the position sequence a fold
	// of single-task inserts produces.
	sorted := append(make(task.Set, 0, len(add)), add...)
	sort.SliceStable(sorted, func(i, j int) bool { return pf.alg.priorityLess(sorted[i], sorted[j]) })
	ordered := make(task.Set, 0, len(pf.tasks)+len(sorted))
	first := -1
	i, j := 0, 0
	for i < len(pf.tasks) || j < len(sorted) {
		if j == len(sorted) || (i < len(pf.tasks) && !pf.alg.priorityLess(sorted[j], pf.tasks[i])) {
			ordered = append(ordered, pf.tasks[i])
			i++
		} else {
			if first < 0 {
				first = len(ordered)
			}
			ordered = append(ordered, sorted[j])
			j++
		}
	}
	next := &Profile{alg: pf.alg, tasks: ordered, fallbacks: pf.fallbacks}
	next.fp = make([][]envelope.Pair, len(ordered))
	// Levels above the highest-priority newcomer keep their
	// higher-priority sets: share; rebuild the suffix once.
	copy(next.fp, pf.fp[:first])
	for i := first; i < len(ordered); i++ {
		next.fp[i] = compileFPRow(ordered[:i], ordered[i])
	}
	return next, nil
}

func (pf *Profile) withoutTasksFP(rem []task.Task) (*Profile, error) {
	used := make([]bool, len(pf.tasks))
	first := len(pf.tasks)
	for _, t := range rem {
		found := -1
		for i := range pf.tasks {
			if !used[i] && pf.tasks[i] == t {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("analysis: WithoutTasks: task %q not in profile", t.Name)
		}
		used[found] = true
		if found < first {
			first = found
		}
	}
	ordered := make(task.Set, 0, len(pf.tasks)-len(rem))
	for i, tk := range pf.tasks {
		if !used[i] {
			ordered = append(ordered, tk)
		}
	}
	next := &Profile{alg: pf.alg, tasks: ordered, fallbacks: pf.fallbacks}
	next.fp = make([][]envelope.Pair, len(ordered))
	copy(next.fp, pf.fp[:first])
	for i := first; i < len(ordered); i++ {
		next.fp[i] = compileFPRow(ordered[:i], ordered[i])
	}
	return next, nil
}

// priorityLess is the strict priority order of a fixed-priority Alg —
// the comparator task.SortedRM / SortedDM sort by.
func (a Alg) priorityLess(x, y task.Task) bool {
	if a == RM {
		return task.LessRM(x, y)
	}
	return task.LessDM(x, y)
}
