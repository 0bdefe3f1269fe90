package analysis

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/envelope"
	"repro/internal/points"
	"repro/internal/task"
	"repro/internal/timeu"
)

// This file implements the compiled-analysis layer. The design-space
// searches of internal/region evaluate minQ(T, alg, P) for the same task
// set at thousands of periods P, yet everything except the final quantum
// inversion — the hyperperiod, the scheduling-point sets and the demand
// values W(t) — is independent of P. Compile hoists all of that work out
// of the loop once, and Profile.MinQ performs only the P-dependent part:
// a flat scan of precompiled (t, W(t)) pairs through qNeeded, with zero
// allocations, no maps, no sorting and no recursion.
//
// On top of hoisting, the profile prunes pairs that can never decide
// the result. The dominance argument — two qNeeded curves cross at most
// once on P > 0, so a pair ranked at or below another at both the P → 0⁺
// and P → ∞ extremes is below it for every P — lives in
// internal/envelope, together with the machinery that maintains the
// surviving set under churn. The profile holds an envelope.Index over
// its pre-pruning EDF demand stream: Compile builds it once, and the
// incremental constructors (incremental.go) patch it in place of the
// full re-prune they used to perform, so the envelope cost of an
// admission event tracks the touched points, not the stream. Dominance
// is applied with a relative margin (envelope.PruneMargin) far above
// float64 noise, so the pruned scan returns bit-identical results to
// the naive oracle MinQ.
//
// The envelope pays off when one profile is asked for MinQ at many
// periods. An exclusive profile (mutate.go) is asked at one: the online
// manager's period is fixed, and it reads MinQ once per patch. There
// the envelope would be rebuilt after every patch to be read once, so
// an exclusive profile keeps its index lazy (envelope.Index.SetLazy)
// and answers MinQ with Eq. (11) as written — one max of qNeeded over
// the whole demand row, the deadline scan minQEDF performs. Pruning
// never decides that max, so the answer is the pruned scan's bit for
// bit; Pairs, Check, Equal and the immutable constructors build the
// envelope when they need it.

// Profile is a task set's demand structure compiled for one scheduling
// algorithm: everything minQ needs that does not depend on the period P.
// A Profile is immutable after Compile and safe for concurrent use; the
// incremental constructors WithTask(s) and WithoutTask(s)
// (incremental.go) return new profiles and share unchanged state with
// the receiver.
type Profile struct {
	alg Alg
	// edf holds the surviving (t, W(t)) pairs of Eq. (11), ascending in
	// t — the materialized envelope of idx. Used when alg == EDF on a
	// published profile; an exclusive profile leaves it nil and builds
	// the envelope only on demand (keptEDF).
	edf []envelope.Pair
	// fp holds, per task in priority order, the surviving
	// (t, W_i(t)) pairs of that task's scheduling-point search in
	// Eq. (6), ascending in t. Used when alg is RM or DM.
	fp [][]envelope.Pair

	// idx is the incremental envelope index over the pre-pruning EDF
	// deadline stream: the stream itself, per-point owner counts, the
	// demand row W(t) and the maintained dominance envelope (lazy on an
	// exclusive profile). nil for FP and empty profiles. The index is
	// treated as immutable once the profile is published; incremental
	// updates Clone it first, so what-if probes share one snapshot.
	idx *envelope.Index

	// The fields below are the incremental-update state: the prefix
	// demand rows retained alongside the index, a deliberate
	// memory-for-latency trade (see incremental.go) that stays private
	// to the profile. tasks is the compiled set — in declaration order
	// for EDF (the order the demand sum accumulates in) and in priority
	// order for RM/DM (the order the fp rows are built in).
	tasks task.Set
	// horizon is the EDF hyperperiod the deadline stream was enumerated
	// to (horizonInt its integer numerator over HyperperiodDenominator,
	// for O(1) change detection); pre[i][k] is the prefix demand
	// Σ_{j ≤ i} contribution of tasks[j] at the k-th stream point, so
	// pre[i] is the exact partial sum DemandBound(tasks[:i+1], ·)
	// accumulates and pre[len(tasks)-1] is the full W(t) row the index
	// prunes. scaled[i] is tasks[i].T as an integer numerator over
	// HyperperiodDenominator, cached so a departure can re-fold the
	// hyperperiod with pure integer LCMs.
	horizon    float64
	horizonInt int64
	scaled     []int64
	pre        [][]float64
	// span is Σ horizon/T_i over tasks, the deadline count (repeats
	// included) the stream was enumerated from, held under
	// maxStreamSpan by every path that grows the set.
	span int64
	// fallbacks counts how many times this profile's incremental
	// lineage bailed to a full recompile (hyperperiod change, or a
	// violated stream invariant); carried across updates so online
	// managers can report the incremental path's hit rate.
	fallbacks uint64
	// pinned counts the prefix-row cells reachable through an immutable
	// profile's row backings — including cells that only a shared
	// ancestor still addresses. An exclusive profile's rows are its
	// arena, counted at its capacity instead. MemStats adds every
	// other buffer the profile keeps; the ratio of all of it to the
	// state in use drives consolidation.
	pinned int

	// Exclusive-mode state (mutate.go). An exclusive profile is owned by
	// a single goroutine (the online manager holds it under a channel
	// lock) and is patched in place by AddTasks/DropTasks instead of
	// cloned: preb is the arena backing every pre row at a uniform
	// stride, and prebShared latches that an immutable WithTasks/
	// WithoutTasks shared rows of preb into a child, forcing the next
	// in-place relayout or recompile to abandon it.
	exclusive  bool
	preb       []float64
	prebShared bool
}

// Compile builds the profile of s under alg. It performs all the
// P-independent work of MinQ — hyperperiods, scheduling-point sets,
// demand evaluation and dominance pruning — exactly once. An empty set
// compiles to a profile whose MinQ is identically zero.
func Compile(s task.Set, alg Alg) (*Profile, error) {
	return compile(s, alg, false)
}

// compile is Compile into a profile of the given mode: an exclusive
// EDF profile compiles straight into a lazy index, so it pays for no
// envelope it will not read.
func compile(s task.Set, alg Alg, exclusive bool) (*Profile, error) {
	pf := &Profile{alg: alg, exclusive: exclusive}
	if len(s) == 0 {
		return pf, nil
	}
	switch alg {
	case EDF:
		sc := patchPool.Get().(*patchScratch)
		err := pf.compileEDF(s, sc)
		patchPool.Put(sc)
		if err != nil {
			return nil, err
		}
	case RM, DM:
		ordered := alg.sorted(s)
		pf.tasks = ordered
		pf.fp = make([][]envelope.Pair, len(ordered))
		for i, tk := range ordered {
			pf.fp[i] = compileFPRow(ordered[:i], tk)
		}
	default:
		return nil, fmt.Errorf("analysis: Compile: unknown algorithm %s", alg)
	}
	return pf, nil
}

// compileEDF is the one EDF compile kernel: it recompiles pf in place
// as the EDF profile of s. Compile runs it on a new profile, so every
// buffer comes out exactly sized; the exclusive patch paths run it on
// the live profile when the hyperperiod moves (adoptCompiled), so it
// reuses the profile's buffers and, once they hold the larger horizon,
// allocates nothing. The kernel
//
//   - folds the scaled periods into the hyperperiod — the integer fold
//     task.Set.Hyperperiod performs — keeping them for incremental
//     horizon updates, and rejects an overflowing fold or a hyperperiod
//     holding more than maxStreamSpan deadlines before enumerating any;
//   - k-way-merges the tasks' deadline streams (the expression and
//     merge order of points.Deadlines) straight into the envelope
//     index's own stream and owner buffers (envelope.Index.Restream),
//     counting a point's owners as the stream heads equal to it;
//   - fills the prefix rows row-major straight into the preb arena as
//     pre[r][k] = pre[r-1][k] + demandTerm(tasks[r], t_k): at every
//     point the same float64 additions in the same order as
//     DemandBound, so each row is bit-identical to its partial sum;
//   - re-indexes the envelope over that stream and the full demand row
//     with envelope.Index.Reset, which reuses the index's slabs — and,
//     on an exclusive profile, whose index is lazy, builds no envelope.
//
// s may alias pf.tasks. An invalid period or hyperperiod is reported
// before pf is touched.
func (pf *Profile) compileEDF(s task.Set, sc *patchScratch) error {
	n := len(s)
	fold := sc.fold[:0]
	hInt := int64(1)
	for _, tk := range s {
		p, err := timeu.ScaledPeriod(tk.T, HyperperiodDenominator)
		if err == nil {
			hInt, err = foldPeriod(hInt, p)
		}
		if err != nil {
			sc.fold = fold
			return err
		}
		fold = append(fold, p)
	}
	sc.fold = fold
	span := int64(0)
	for _, p := range fold {
		var err error
		if span, err = addSpan(span, hInt, p); err != nil {
			return err
		}
	}
	h := float64(hInt) / float64(HyperperiodDenominator)
	if n == 0 {
		h, hInt = 0, 0
	}

	// Merge straight into the index's own stream buffers, which after a
	// first recompile at this horizon already have room; only a stream
	// longer than any the index held before (always, for a new index)
	// takes a second pass into buffers of the exact merged length.
	heads, ks := resize(sc.heads, n), resize(sc.ks, n)
	sc.heads, sc.ks = heads, ks
	if pf.idx == nil && n > 0 {
		pf.idx = envelope.New(false)
		pf.idx.SetLazy(pf.exclusive)
	}
	var ts []float64
	var owners []int32
	N := 0
	if n > 0 {
		ts, owners = pf.idx.Restream(0)
		room := min(cap(ts), cap(owners))
		ts, owners = ts[:room], owners[:room]
		if N = mergeDeadlines(s, h, heads, ks, ts, owners); N > room {
			ts, owners = pf.idx.Restream(N)
			mergeDeadlines(s, h, heads, ks, ts, owners)
		}
		ts, owners = ts[:N], owners[:N]
	}

	// Commit. s is read for the last time here: it may alias pf.tasks,
	// and copy has memmove semantics.
	pf.tasks = resize(pf.tasks, n)
	copy(pf.tasks, s)
	clear(pf.tasks[n:cap(pf.tasks)])
	pf.scaled = resize(pf.scaled, n)
	copy(pf.scaled, fold)
	pf.horizon, pf.horizonInt, pf.span = h, hInt, span

	need := n * N
	a := pf.preb
	if pf.prebShared || cap(a) < need {
		// Too small, or an immutable child reads these rows: leave them.
		a = make([]float64, need)
	}
	pf.preb, pf.prebShared = a[:need], false
	pf.pinned = need
	pf.setRows(n, N)
	for r, tk := range pf.tasks {
		row := pf.pre[r]
		if r == 0 {
			for k, x := range ts {
				row[k] = demandTerm(tk, x)
			}
			continue
		}
		base := pf.pre[r-1]
		for k, x := range ts {
			row[k] = base[k] + demandTerm(tk, x)
		}
	}

	if n == 0 {
		// The empty profile Compile(nil) returns: no index. The row
		// arena stays, as the profile may grow again.
		pf.idx, pf.edf = nil, nil
		return nil
	}
	if err := pf.idx.Reset(ts, pf.pre[n-1], owners); err != nil {
		return err
	}
	if !pf.exclusive {
		pf.edf = pf.idx.Kept()
	}
	return nil
}

// mergeDeadlines k-way-merges the tasks' deadline streams in (0, h]
// — the merge points.Deadlines performs — and returns the number of
// distinct points. It writes each point, and its owner count (the
// number of stream heads equal to it), to ts and owners while they
// have room; both must have the same length. heads and ks are scratch
// of length len(s).
func mergeDeadlines(s task.Set, h float64, heads []float64, ks []int, ts []float64, owners []int32) int {
	live := 0
	for i, tk := range s {
		ks[i] = 0
		if heads[i] = nextDeadline(tk, &ks[i], h); !math.IsInf(heads[i], 1) {
			live++
		}
	}
	N := 0
	for live > 0 {
		next := math.Inf(1)
		for _, hd := range heads {
			if hd < next {
				next = hd
			}
		}
		var c int32
		for i, hd := range heads {
			if hd == next {
				c++
				if heads[i] = nextDeadline(s[i], &ks[i], h); math.IsInf(heads[i], 1) {
					live--
				}
			}
		}
		if N < len(ts) {
			ts[N], owners[N] = next, c
		}
		N++
	}
	return N
}

// nextDeadline returns task t's next absolute deadline in (0, horizon]
// at or after deadline index *k, advancing *k past it, or +Inf once the
// stream is exhausted. It evaluates k·T + D exactly as points.Deadlines
// and points.TaskDeadlines do, so the merged stream is bit-identical to
// theirs.
func nextDeadline(t task.Task, k *int, horizon float64) float64 {
	for {
		dl := float64(*k)*t.T + t.D
		*k++
		if dl > horizon {
			return math.Inf(1)
		}
		if dl > 0 {
			return dl
		}
	}
}

// rowsOver lays n rows of the given width over buf as row headers,
// reusing hdrs' backing when large enough. Each header is
// full-slice-capped, so an append through it can never clobber the
// next row, and the headers past n are cleared so they pin no retired
// arena.
func rowsOver(hdrs [][]float64, buf []float64, n, width int) [][]float64 {
	hdrs = resize(hdrs, n)
	clear(hdrs[n:cap(hdrs)])
	for r := range hdrs {
		hdrs[r] = buf[r*width : (r+1)*width : (r+1)*width]
	}
	return hdrs
}

// resize returns buf at length n, reusing its backing when large
// enough and allocating exactly n otherwise. Contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// demandTerm is task tk's contribution to the EDF demand bound at x —
// the summand DemandBound accumulates. Adding the 0.0 it returns outside
// the task's deadline range is a bitwise no-op (w ≥ 0 throughout), so
// prefix rows accumulated with it are bit-identical to DemandBound.
func demandTerm(tk task.Task, x float64) float64 {
	if n := math.Floor((x + tk.T - tk.D) / tk.T); n > 0 {
		return n * tk.C
	}
	return 0
}

// compileFPRow builds one priority level of the FP profile: the pruned
// (t, W_i(t)) pairs of task tk's scheduling-point search under the
// higher-priority set hp. Compile and the incremental suffix rebuilds
// share this path, so their rows are bit-identical by construction.
func compileFPRow(hp task.Set, tk task.Task) []envelope.Pair {
	pts := points.FixedPriority(hp, tk.D)
	all := make([]envelope.Pair, len(pts))
	for k, t := range pts {
		all[k] = envelope.Pair{T: t, W: RequestBound(tk.C, hp, t)}
	}
	return envelope.Prune(all, true)
}

// Alg returns the algorithm the profile was compiled for.
func (pf *Profile) Alg() Alg { return pf.alg }

// Pairs returns the total number of (t, w) pairs retained after
// pruning — the work MinQ performs per call on a published profile. On
// an exclusive EDF profile it builds the envelope to count it.
func (pf *Profile) Pairs() int {
	n := len(pf.keptEDF())
	for _, pts := range pf.fp {
		n += len(pts)
	}
	return n
}

// keptEDF returns the pruned EDF pairs. A published profile holds them
// in edf; an exclusive profile builds them from its lazy index on the
// first read after a patch, under the profile's single-owner contract.
func (pf *Profile) keptEDF() []envelope.Pair {
	if pf.exclusive && pf.idx != nil {
		return pf.idx.Kept()
	}
	return pf.edf
}

// Fallbacks returns how many times this profile's lineage was
// recompiled from scratch instead of patched: an admission or release
// that moved the EDF hyperperiod (every deadline stream re-ranges, so
// there is nothing to patch), or a violated stream invariant. The
// exclusive paths recompile in place through the compile kernel and the
// immutable ones through Compile, so a fallback costs a full compile's
// work but, on an exclusive profile, no allocation. A fresh Compile
// starts at zero; every update carries the count forward and
// increments it on each recompile.
func (pf *Profile) Fallbacks() uint64 { return pf.fallbacks }

// MemStats describes the memory retained by a profile, in 8-byte cells
// so that sharing waste and high-water slack show against the state the
// profile actually uses.
type MemStats struct {
	// RetainedPoints is the pre-pruning scheduling-point count (the
	// envelope index's stream length; 0 for FP profiles).
	RetainedPoints int
	// LivePairs is the pair count MinQ scans per call: the pruned pairs
	// (Profile.Pairs), or on an exclusive EDF profile, which scans its
	// whole demand row, RetainedPoints.
	LivePairs int
	// OwnerTable is the per-point owner-count table size.
	OwnerTable int
	// LiveCells is the state the profile actually reads. For EDF: the
	// prefix-row cells, the envelope index at the size a fresh Build of
	// its stream holds, the task and scaled-period lists and the row
	// headers; for RM/DM: the fixed-priority pair cells.
	LiveCells int
	// PinnedCells is every cell the profile keeps reachable: the
	// capacity of each buffer behind LiveCells, the spare row arena,
	// the index's recycled slots and scratch, and whatever shared
	// ancestors' row backings the row headers still pin. It equals
	// LiveCells for a fresh Compile.
	PinnedCells int
}

// Ratio is PinnedCells over LiveCells: 1 when the profile's buffers
// hold exactly its own state, growing as incremental updates accumulate
// references into ancestors' backings or as a shrinking stream leaves
// high-water capacity behind. online.Manager consolidates a channel
// when this crosses its configured threshold.
func (m MemStats) Ratio() float64 {
	if m.LiveCells <= 0 {
		return 1
	}
	return float64(m.PinnedCells) / float64(m.LiveCells)
}

const (
	cellBytes   = 8
	taskBytes   = int(unsafe.Sizeof(task.Task{}))
	headerBytes = int(unsafe.Sizeof([]float64(nil)))
)

// MemStats reports the profile's retained-memory shape. It is a cheap
// O(rows) accounting pass that never builds a lazy envelope, safe for
// concurrent use on a published profile.
func (pf *Profile) MemStats() MemStats {
	var m MemStats
	if pf.alg != EDF {
		m.LivePairs = pf.Pairs()
		for _, row := range pf.fp {
			m.LiveCells += len(row)
			m.PinnedCells += cap(row)
		}
		return m
	}
	m.LivePairs = len(pf.edf)
	var idxLive, idxHeld int
	if pf.idx != nil {
		m.RetainedPoints = pf.idx.Len()
		m.OwnerTable = pf.idx.Len()
		idxLive, idxHeld = pf.idx.Footprint()
		if pf.exclusive {
			m.LivePairs = m.RetainedPoints
		}
	}
	rows := pf.pinned
	if pf.exclusive {
		rows = cap(pf.preb)
	}
	live := len(pf.pre)*m.RetainedPoints*cellBytes + idxLive +
		len(pf.tasks)*taskBytes + len(pf.scaled)*cellBytes + len(pf.pre)*headerBytes
	held := rows*cellBytes + idxHeld +
		cap(pf.tasks)*taskBytes + cap(pf.scaled)*cellBytes + cap(pf.pre)*headerBytes
	m.LiveCells, m.PinnedCells = live/cellBytes, held/cellBytes
	return m
}

// Check audits the profile against the from-scratch oracles, none of
// which shares code with the compile kernel or the patch paths: the
// envelope index's own invariants (envelope.Check); for EDF the
// hyperperiod against task.Set.Hyperperiod, the retained stream against
// points.Deadlines, each point's owner count against the tasks'
// points.TaskDeadlines streams, every prefix row against the
// DemandBound partial sums and the pruned pairs against envelope.Prune
// of the demand row, all bit for bit; for RM/DM the pruned pairs
// against a fresh Compile. It is the profile-level quiescent-point
// audit internal/chaos runs.
func (pf *Profile) Check() error {
	if err := envelope.Check(pf.idx); err != nil {
		return fmt.Errorf("analysis: profile check: %w", err)
	}
	if pf.alg == EDF {
		if err := pf.checkEDF(); err != nil {
			return fmt.Errorf("analysis: profile check: %w", err)
		}
		return nil
	}
	fresh, err := Compile(pf.tasks, pf.alg)
	if err != nil {
		return fmt.Errorf("analysis: profile check: recompile: %w", err)
	}
	if !pf.Equal(fresh) {
		return fmt.Errorf("analysis: profile check: pruned pairs differ from fresh Compile (%d vs %d)", pf.Pairs(), fresh.Pairs())
	}
	return nil
}

func (pf *Profile) checkEDF() error {
	var ts []float64
	if pf.idx != nil {
		ts = pf.idx.Ts()
	}
	edf := pf.keptEDF()
	if len(pf.tasks) == 0 {
		if len(ts) != 0 || len(pf.pre) != 0 || len(edf) != 0 {
			return fmt.Errorf("empty profile retains %d points, %d rows, %d pairs", len(ts), len(pf.pre), len(edf))
		}
		return nil
	}
	h, err := pf.tasks.Hyperperiod(HyperperiodDenominator)
	if err != nil {
		return err
	}
	if math.Float64bits(h) != math.Float64bits(pf.horizon) {
		return fmt.Errorf("horizon %v, hyperperiod is %v", pf.horizon, h)
	}
	dls, err := points.Deadlines(pf.tasks, h)
	if err != nil {
		return err
	}
	if len(ts) != len(dls) {
		return fmt.Errorf("%d stream points, points.Deadlines has %d", len(ts), len(dls))
	}
	for k := range ts {
		if math.Float64bits(ts[k]) != math.Float64bits(dls[k]) {
			return fmt.Errorf("stream point %d is %v, points.Deadlines has %v", k, ts[k], dls[k])
		}
	}
	want := make([]int32, len(dls))
	for _, tk := range pf.tasks {
		i := 0
		for _, x := range points.TaskDeadlines(tk, h) {
			for i < len(dls) && dls[i] != x {
				i++
			}
			if i == len(dls) {
				return fmt.Errorf("task %q deadline %v missing from points.Deadlines", tk.Name, x)
			}
			want[i]++
			i++
		}
	}
	owners := pf.idx.Owners()
	for k := range owners {
		if owners[k] != want[k] {
			return fmt.Errorf("owner count at point %d is %d, the task streams give %d", k, owners[k], want[k])
		}
	}
	if len(pf.pre) != len(pf.tasks) {
		return fmt.Errorf("%d prefix rows for %d tasks", len(pf.pre), len(pf.tasks))
	}
	all := make([]envelope.Pair, len(dls))
	for k, x := range dls {
		// DemandBound's own accumulation, one partial sum per row.
		w := 0.0
		for r, tk := range pf.tasks {
			if m := math.Floor((x + tk.T - tk.D) / tk.T); m > 0 {
				w += m * tk.C
			}
			if len(pf.pre[r]) != len(dls) || math.Float64bits(pf.pre[r][k]) != math.Float64bits(w) {
				return fmt.Errorf("prefix row %d point %d diverged from the DemandBound partial sum", r, k)
			}
		}
		if d := DemandBound(pf.tasks, x); math.Float64bits(d) != math.Float64bits(w) {
			return fmt.Errorf("demand at point %d is %v, DemandBound has %v", k, w, d)
		}
		all[k] = envelope.Pair{T: x, W: w}
	}
	kept := envelope.Prune(all, false)
	if len(kept) != len(edf) {
		return fmt.Errorf("%d pruned pairs, envelope.Prune keeps %d", len(edf), len(kept))
	}
	for i := range kept {
		if edf[i] != kept[i] {
			return fmt.Errorf("pruned pair %d is %+v, envelope.Prune has %+v", i, edf[i], kept[i])
		}
	}
	return nil
}

// MinQ computes minQ(T, alg, P) from the compiled profile: the same
// value the reference MinQ(s, alg, p) returns, bit for bit, but as a
// single pass over the precompiled pairs with zero allocations. p must
// be positive (as validated by the naive MinQ); MinQ returns 0 for
// non-positive p.
//
// An exclusive EDF profile, whose envelope is left unbuilt, evaluates
// Eq. (11) over its whole retained stream instead: the max of qNeeded
// over every deadline and its demand W(t), the scan minQEDF performs,
// read from the full prefix row. The envelope's dominated points lie
// below a kept point at every P by the pruning margin, so they never
// decide the max and the result equals the pruned scan bit for bit.
// The published profile's pruned scan comes first and the row scan is
// written out rather than called, so the design-time path is the loop
// it always was, in a frameless leaf.
func (pf *Profile) MinQ(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if pf.alg == EDF {
		q := 0.0
		for _, pr := range pf.edf {
			if v := qNeeded(pr.T, p, pr.W); v > q {
				q = v
			}
		}
		if q != 0 || !pf.exclusive || len(pf.pre) == 0 {
			return q
		}
		// An exclusive profile holds no pruned pairs: scan its row. The
		// row and the stream have one length by construction (Check
		// audits it); the double loop bound only spares MinQ the
		// bounds-check panic path, and with it a stack frame.
		ts, w := pf.idx.Ts(), pf.pre[len(pf.pre)-1]
		for k := 0; k < len(ts) && k < len(w); k++ {
			if v := qNeeded(ts[k], p, w[k]); v > q {
				q = v
			}
		}
		return q
	}
	q := 0.0
	for _, pts := range pf.fp {
		best := math.Inf(1)
		for _, pr := range pts {
			if v := qNeeded(pr.T, p, pr.W); v < best {
				best = v
			}
		}
		if best > q {
			q = best
		}
	}
	return q
}
