// Package envelope maintains the two-extreme Pareto order that the
// analysis layer's dominance pruning rests on, incrementally, under
// point insertion and removal.
//
// # The Pareto-maintenance argument
//
// A scheduling point is a pair (t, W(t)). For a fixed point, the
// quantum requirement Q(P) = qNeeded(t, P, W) is a curve in the period
// P, and two such curves cross at most once on P > 0: subtracting
// their defining quadratics Q² + (t−P)Q − PW = 0 gives
// (t_i−t_j)·Q = P·(W_i−W_j), a ray through the origin whose
// intersection with either quadratic has at most one positive root.
// The curves' order at the two extremes is closed form —
//
//	P → 0⁺: qNeeded(t, P, W) ≈ P·W/t      (ranked by rank0  = W/t)
//	P → ∞ : qNeeded(t, P, W) → P − t + W   (ranked by rankInf = W−t)
//
// — so a point that ranks at least as high as another at both
// extremes dominates it for every P > 0: the dominated point can never
// decide a max (or, with both rankings negated, a min) over the set,
// and pruning it leaves every MinQ result bit-identical. Dominance is
// only applied with the relative margin PruneMargin on both rankings,
// far above float64 rounding noise, so razor-edge points are kept.
//
// # Incremental maintenance
//
// The Index stores each live point once in columnar per-slot arrays
// and keeps two orders over the slots: the time order (ts ascending,
// the order the pruned envelope is read in) and the rank order — a
// sorted array of packed uint64 keys, the order-preserving bit
// transform of rank0 inverted for descending order with the slot id in
// the low bits. Alongside the rank order it maintains maxInf, the
// running prefix maximum of rankInf in rank-key order.
//
// Whether a point is dominated is decided by a canonical predicate in
// truncated-key space: point i is dropped iff the maximum rankInf over
// the whole prefix of points whose truncated key is at most
// trunc(pack(rank0_i + margin_i)) reaches rankInf_i + margin_i. The
// prefix always ends at a truncated-key group boundary, so the
// predicate is independent of slot numbering and of the order
// mutations were applied in — the Index's state is a pure function of
// its point multiset, which is what Check verifies and what makes the
// incremental path bit-identical to the from-scratch Prune by
// construction. Truncation widens the fold by at most one key granule
// (2¹⁶ ulps, ~1.5e-11 relative), ~70× inside PruneMargin, so every
// folded point is still a genuine dominator at both extremes and
// pruning stays sound.
//
// Because rank0 + margin is strictly above rank0 by far more than a
// granule, a point never folds itself or its exact-tie peers, and the
// fold boundary is monotone (up to granule jitter) along the rank
// order. An insertion or removal therefore touches one key position,
// a contiguous maxInf absorption span, and the points whose fold
// boundary lands in that span — O(touched points + affected envelope
// span), not O(stream length). Demand changes that touch most of the
// stream take a dense path instead: remap the keys in place (a
// near-sorted seed), re-sort, and re-run the canonical walk.
//
// Indexes longer than 2¹⁶ points fall back to a comparator-ordered
// from-scratch walk per refresh (big mode): correctness is preserved,
// incrementality is not. Real channels sit orders of magnitude below
// the threshold.
//
// # Deferral
//
// Key maintenance is only worth its cost when the envelope is read
// between mutations. Two things decide when it is skipped: stream
// length (at or below smallLimit points one sort per read beats the
// sparse bookkeeping) and the index's owner (SetLazy). A lazy index
// never maintains the rank order: Reset and every mutator only keep the
// stream and the slot columns current and leave the flags dirty, and
// the first read (Kept, Check) rebuilds keys and flags with one
// canonical sort-and-walk — the same predicate, so the same envelope.
// Owners that read the envelope after every mutation (published,
// immutable profiles) stay eager; owners that answer their queries
// from the stream itself (exclusive profiles at one fixed period) go
// lazy and pay for the envelope only when something asks for it.
package envelope

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// PruneMargin is the relative margin required on both dominance
// rankings before a point is discarded. It is far above float64
// rounding noise (~1e-16) yet small enough that essentially every
// off-envelope point is still pruned.
const PruneMargin = 1e-9

const (
	// slotBits is the slot-id width of packed rank keys.
	slotBits = 16
	// maxSlots bounds the incremental (small) mode; beyond it the index
	// degrades to from-scratch walks.
	maxSlots = 1 << slotBits
	slotMask = maxSlots - 1

	// smallLimit is the stream length at or below which the index stops
	// maintaining the rank order incrementally and instead marks the
	// flags dirty, rebuilding keys + maxInf with one sort-and-walk at the
	// next read. For tiny streams one O(n log n) refresh per batch of
	// mutations beats per-point insertKey/removeKey bookkeeping. The
	// refresh runs the same canonical walk over the same packed keys, so
	// the resulting flags are bit-identical to the incremental path.
	smallLimit = 32
)

// Pair is one scheduling point: the time T and the demand (or request
// bound) W at T.
type Pair struct {
	T, W float64
}

// Index maintains the pruned dominance envelope of a point set under
// insertion and removal. The zero value is not ready; use New or
// Build. An Index is not safe for concurrent mutation; once quiescent
// (after Kept), it is safe for concurrent reads.
type Index struct {
	min bool

	// Time order: ts is the point stream ascending, slot[p] the slot id
	// of the point at stream position p.
	ts   []float64
	slot []int32

	// Columnar per-slot state, indexed by slot id. Slots of departed
	// points are recycled through free. A slot's time is not stored: the
	// columns are only ever reached with the point's stream position (or
	// its time) at hand, and the rankings cache everything the rank
	// order needs.
	wS     []float64
	rank0S []float64
	infS   []float64
	ownS   []int32
	dropS  []bool
	free   []int32

	// Rank order (small mode only): keys sorted ascending — descending
	// in rank0 — and the prefix maximum of rankInf in that order.
	// maxInf is only read by the sparse key updates (insertKey,
	// removeKey): a re-sort fills it when it already has room and
	// otherwise leaves it stale (maxInfOK false) for ensureMaxInf to
	// rebuild on demand, so an index only ever rebuilt wholesale never
	// holds it.
	keys     []uint64
	maxInf   []float64
	maxInfOK bool

	// big marks degraded mode (> maxSlots slots were needed): no keys,
	// flags recomputed from scratch when dirty. flagsDirty is also the
	// deferral latch: on a lazy index (owner-driven, see SetLazy) or at
	// or below smallLimit points the mutators skip incremental key
	// maintenance and refresh rebuilds the rank order wholesale at the
	// next read.
	big        bool
	flagsDirty bool
	lazy       bool

	// Copy-on-write latches. A Clone shares every array with the
	// receiver and sets these on the clone only; each mutator privatizes
	// the group it writes through the ensure* helpers. The clone
	// contract: once an index has been cloned, the RECEIVER must not be
	// mutated again (published profiles are immutable, so the codebase
	// only mutates clones or never-cloned exclusive indexes).
	sharedStream bool // ts, slot
	sharedSlabs  bool // wS, rank0S, infS, ownS, dropS, free
	sharedRank   bool // keys, maxInf
	sharedKept   bool // kept

	// posBuf is reused scratch for SetDemand's changed-position list;
	// retBuf backs the position lists Merge and Compact return (valid
	// until the next mutation). Cleared on Clone so siblings never share
	// scratch.
	posBuf []int
	retBuf []int

	// kept caches the pruned envelope in time order.
	kept   []Pair
	keptOK bool
}

// New returns an empty index. min selects the min-envelope (keep
// candidates for the minimum, FP's inner search) instead of the
// max-envelope (EDF).
func New(min bool) *Index {
	return &Index{min: min, keptOK: true}
}

// Build indexes a prepared stream: ts strictly ascending, ws the
// demand at each point, owners how many tasks own each point (nil for
// all-ones). The inputs are copied. Build is Reset on a new index.
func Build(min bool, ts, ws []float64, owners []int32) (*Index, error) {
	x := New(min)
	if err := x.Reset(ts, ws, owners); err != nil {
		return nil, err
	}
	return x, nil
}

// Reset re-indexes x as the prepared stream (ts, ws, owners), with the
// inputs and the resulting state exactly as Build would produce them
// (on a lazy index: the stream and slot columns, with the envelope left
// to the next read), but reusing the index's own slabs, keys and kept buffer instead of
// allocating — so a recompile that lands on a stream no longer than
// one the index held before allocates nothing. A buffer a copy-on-write
// Clone still shares is discarded, never written. On error the index
// is unchanged.
func (x *Index) Reset(ts, ws []float64, owners []int32) error {
	n := len(ts)
	if len(ws) != n {
		return fmt.Errorf("envelope: Build: %d points but %d demands", n, len(ws))
	}
	if owners != nil && len(owners) != n {
		return fmt.Errorf("envelope: Build: %d points but %d owner counts", n, len(owners))
	}
	for p := 1; p < n; p++ {
		if !(ts[p] > ts[p-1]) {
			return fmt.Errorf("envelope: Build: points not strictly ascending at %d", p)
		}
	}
	if x.sharedStream {
		x.ts, x.slot = nil, nil
	}
	if x.sharedSlabs {
		x.wS, x.rank0S, x.infS, x.ownS, x.dropS, x.free = nil, nil, nil, nil, nil, nil
	}
	if x.sharedRank {
		x.keys, x.maxInf = nil, nil
	}
	if x.sharedKept {
		x.kept = nil
	}
	x.sharedStream, x.sharedSlabs, x.sharedRank, x.sharedKept = false, false, false, false
	x.ts = resize(x.ts, n)
	x.slot = resize(x.slot, n)
	x.wS = resize(x.wS, n)
	x.rank0S = resize(x.rank0S, n)
	x.infS = resize(x.infS, n)
	x.ownS = resize(x.ownS, n)
	x.dropS = resize(x.dropS, n)
	x.free = x.free[:0]
	copy(x.ts, ts)
	copy(x.wS, ws)
	for p := range ts {
		x.slot[p] = int32(p)
		x.rank0S[p], x.infS[p] = x.rank(ts[p], ws[p])
		own := int32(1)
		if owners != nil {
			own = owners[p]
		}
		x.ownS[p] = own
		x.dropS[p] = false
	}
	x.big, x.flagsDirty, x.keptOK = false, false, false
	if n > maxSlots {
		x.promote()
		return nil
	}
	if x.lazy {
		// No keys until something reads the envelope.
		x.flagsDirty = true
		return nil
	}
	x.keys = resize(x.keys, n)
	for p := range x.keys {
		x.keys[p] = packRank(x.rank0S[p]) | uint64(p)
	}
	x.resort()
	return nil
}

// Restream hands a caller that prepares the next stream for Reset the
// index's own stream and owner-count buffers at length n, to fill with
// the points and their owner counts: Reset then re-indexes from them
// without a copy, and the caller needs no scratch of its own. Buffers
// too short for n are replaced by exactly sized ones; capacity past n
// is the index's own too, for a caller that learns the stream length
// while filling. A buffer a copy-on-write Clone still shares is
// replaced, never handed out. The index is unusable from Restream until
// the Reset.
func (x *Index) Restream(n int) (ts []float64, owners []int32) {
	if x.sharedStream {
		x.ts, x.slot, x.sharedStream = nil, nil, false
	}
	if x.sharedSlabs {
		x.wS, x.rank0S, x.infS, x.ownS, x.dropS, x.free = nil, nil, nil, nil, nil, nil
		x.sharedSlabs = false
	}
	x.ts, x.ownS = resize(x.ts, n), resize(x.ownS, n)
	return x.ts, x.ownS
}

// resize returns buf at length n, reusing its backing when large
// enough and allocating exactly n otherwise. Contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Min reports whether the index keeps the min-envelope.
func (x *Index) Min() bool { return x.min }

// SetLazy selects owner-driven deferral. A lazy index skips all rank
// order and drop-flag maintenance in Reset and every mutator and builds
// the envelope only when it is read (Kept, Check), with one
// sort-and-walk over the whole stream. The envelope it then returns is
// the one an eager index holds. Clones inherit the setting.
func (x *Index) SetLazy(on bool) { x.lazy = on }

// Len returns the number of live points.
func (x *Index) Len() int { return len(x.ts) }

// Ts returns the live point stream, ascending. The slice is the
// index's own storage: callers must not modify it and must not retain
// it across mutations.
func (x *Index) Ts() []float64 { return x.ts }

// Pos returns the stream position of t, or -1 when absent.
func (x *Index) Pos(t float64) int {
	p := sort.SearchFloat64s(x.ts, t)
	if p < len(x.ts) && x.ts[p] == t {
		return p
	}
	return -1
}

// Demands returns a copy of the per-point demands in stream order.
func (x *Index) Demands() []float64 {
	out := make([]float64, len(x.ts))
	for p, s := range x.slot {
		out[p] = x.wS[s]
	}
	return out
}

// Owners returns a copy of the per-point owner counts in stream order.
func (x *Index) Owners() []int32 {
	out := make([]int32, len(x.ts))
	for p, s := range x.slot {
		out[p] = x.ownS[s]
	}
	return out
}

// Footprint reports the index's memory in bytes: live is what a fresh
// Build of the current stream holds once its envelope is materialized
// (on a lazy index, which keeps no envelope state between reads, the
// stream and slot columns alone), held is the capacity of every buffer
// the index keeps reachable, recycled slots and scratch included. held
// equals live for a fresh Build or a fresh lazy Reset and grows as
// mutations, Resets and reads leave capacity behind.
func (x *Index) Footprint() (live, held int) {
	const (
		f64  = 8
		i32  = 4
		pair = 16
	)
	// Per point: ts, slot, the three float slabs, ownS, dropS and
	// (outside big and lazy mode) keys; plus the kept envelope. maxInf,
	// rebuilt on demand, only counts as held.
	perPoint := f64 + i32 + 3*f64 + i32 + 1
	if !x.big && !x.lazy {
		perPoint += f64
	}
	live = len(x.ts) * perPoint
	if !x.lazy {
		live += len(x.kept) * pair
	}
	held = cap(x.ts)*f64 + cap(x.slot)*i32 +
		(cap(x.wS)+cap(x.rank0S)+cap(x.infS))*f64 +
		cap(x.ownS)*i32 + cap(x.dropS) + cap(x.free)*i32 +
		(cap(x.keys)+cap(x.maxInf))*f64 + cap(x.kept)*pair +
		(cap(x.posBuf)+cap(x.retBuf))*f64
	return live, held
}

// Clone returns a copy-on-write copy: every columnar slab is shared
// with the receiver until the clone first writes it, at which point the
// touched group (stream order, slot columns, or rank order) is
// privatized. The receiver is left untouched — Clone never writes the
// receiver, so concurrent Clones of one quiescent snapshot are safe —
// but the receiver MUST NOT be mutated after being cloned: published
// profiles treat their indexes as immutable snapshots and only ever
// mutate the clone, which is exactly the contract this relies on.
func (x *Index) Clone() *Index {
	c := *x
	c.sharedStream = true
	c.sharedSlabs = true
	c.sharedRank = true
	c.sharedKept = true
	c.posBuf = nil
	c.retBuf = nil
	return &c
}

// DeepClone returns a deep copy sharing no mutable state with the
// receiver. Unlike Clone, the receiver remains free to mutate
// afterwards — this is the snapshot to take when the RECEIVER (not the
// copy) is the long-lived mutable side.
func (x *Index) DeepClone() *Index {
	c := *x
	// Pack the float and int32 columns into one backing allocation
	// each; the full slice expressions cap every column at its length,
	// so a later append on the copy reallocates instead of clobbering
	// its neighbour.
	n, m, k := len(x.ts), len(x.wS), len(x.maxInf)
	fb := make([]float64, n+3*m+k)
	c.ts = fb[:n:n]
	c.wS = fb[n : n+m : n+m]
	c.rank0S = fb[n+m : n+2*m : n+2*m]
	c.infS = fb[n+2*m : n+3*m : n+3*m]
	c.maxInf = fb[n+3*m : n+3*m+k : n+3*m+k]
	copy(c.ts, x.ts)
	copy(c.wS, x.wS)
	copy(c.rank0S, x.rank0S)
	copy(c.infS, x.infS)
	copy(c.maxInf, x.maxInf)
	f := len(x.free)
	ib := make([]int32, n+m+f)
	c.slot = ib[:n:n]
	c.ownS = ib[n : n+m : n+m]
	c.free = ib[n+m : n+m+f : n+m+f]
	copy(c.slot, x.slot)
	copy(c.ownS, x.ownS)
	copy(c.free, x.free)
	c.dropS = slices.Clone(x.dropS)
	c.keys = slices.Clone(x.keys)
	c.kept = slices.Clone(x.kept)
	c.sharedStream, c.sharedSlabs, c.sharedRank, c.sharedKept = false, false, false, false
	c.posBuf = nil
	c.retBuf = nil
	return &c
}

// ensureStream privatizes the stream-order arrays (ts, slot) before an
// in-place write.
func (x *Index) ensureStream() {
	if !x.sharedStream {
		return
	}
	x.ts = slices.Clone(x.ts)
	x.slot = slices.Clone(x.slot)
	x.sharedStream = false
}

// ensureSlabs privatizes the per-slot columns before an in-place write.
// The float columns share one backing allocation; the full slice
// expressions cap each column at its length so a later append
// reallocates instead of clobbering its neighbour.
func (x *Index) ensureSlabs() {
	if !x.sharedSlabs {
		return
	}
	m := len(x.wS)
	fb := make([]float64, 3*m)
	wS := fb[0*m : 1*m : 1*m]
	rank0S := fb[1*m : 2*m : 2*m]
	infS := fb[2*m : 3*m : 3*m]
	copy(wS, x.wS)
	copy(rank0S, x.rank0S)
	copy(infS, x.infS)
	x.wS, x.rank0S, x.infS = wS, rank0S, infS
	f := len(x.free)
	ib := make([]int32, m+f)
	ownS := ib[:m:m]
	free := ib[m : m+f : m+f]
	copy(ownS, x.ownS)
	copy(free, x.free)
	x.ownS, x.free = ownS, free
	x.dropS = slices.Clone(x.dropS)
	x.sharedSlabs = false
}

// ensureRank privatizes the rank-order arrays (keys, maxInf) before an
// in-place write.
func (x *Index) ensureRank() {
	if !x.sharedRank {
		return
	}
	x.keys = slices.Clone(x.keys)
	x.maxInf = slices.Clone(x.maxInf)
	x.sharedRank = false
}

// deferSmall reports whether key maintenance is deferred to the next
// refresh: the owner made the index lazy, a deferral is already pending
// (the rank order is stale), or the stream is small enough that one sort per refresh beats
// incremental bookkeeping. Only meaningful when !big.
func (x *Index) deferSmall() bool {
	return x.lazy || x.flagsDirty || len(x.ts) <= smallLimit
}

// refresh settles any deferred flag maintenance: big mode re-walks with
// the comparator order, small mode rebuilds the packed keys from the
// slots and re-runs the canonical sort-and-walk — the same predicate
// the incremental path evaluates, so the flags come out bit-identical.
func (x *Index) refresh() {
	if !x.flagsDirty {
		return
	}
	if x.big {
		x.rebuildBig()
		return
	}
	if x.sharedRank {
		// Rebuilding wholesale: drop the shared arrays instead of
		// cloning their stale contents.
		x.keys = make([]uint64, 0, len(x.slot))
		x.maxInf = nil
		x.sharedRank = false
	}
	x.keys = x.keys[:0]
	for _, s := range x.slot {
		x.keys = append(x.keys, packRank(x.rank0S[s])|uint64(s))
	}
	x.resort()
	x.flagsDirty = false
}

// Kept materializes the pruned envelope in time order. The result is
// cached until the next mutation; the returned slice must be treated
// as immutable and must not be read across a later mutation of the
// index (a mutating owner's rebuild may reuse the buffer in place).
func (x *Index) Kept() []Pair {
	if x.keptOK {
		return x.kept
	}
	x.refresh()
	k := 0
	for _, s := range x.slot {
		if !x.dropS[s] {
			k++
		}
	}
	var kept []Pair
	if x.sharedKept || cap(x.kept) < k {
		kept = make([]Pair, 0, k)
		x.sharedKept = false
	} else {
		// The previous materialization is this index's own buffer (no
		// clone shares it): rebuild in place. Holders of the previous
		// Kept result were told not to retain it across mutations.
		kept = x.kept[:0]
	}
	for p, s := range x.slot {
		if !x.dropS[s] {
			kept = append(kept, Pair{T: x.ts[p], W: x.wS[s]})
		}
	}
	x.kept, x.keptOK = kept, true
	return kept
}

// Insert adds brand-new points, each with owner count 1. Every T must
// be absent from the index; on error the index state is unspecified
// and must be discarded.
func (x *Index) Insert(pts []Pair) error {
	for _, pr := range pts {
		if x.Pos(pr.T) >= 0 {
			return fmt.Errorf("envelope: Insert: point t=%v already present", pr.T)
		}
		x.insertPoint(pr.T, pr.W, 1)
	}
	return nil
}

// Remove decrements the owner count of each point and drops the
// points whose count reaches zero. Every T must be present with a
// positive count; on error the index state is unspecified.
func (x *Index) Remove(ts []float64) error {
	if err := x.RemoveOwners(ts); err != nil {
		return err
	}
	x.Compact()
	return nil
}

// Merge inserts the points of union (ascending, unique) that are not
// yet in the stream, with zero demand and zero owners — placeholders
// the caller completes via AddOwners and SetDemand. It returns the
// stream positions of the inserted points, ascending, in the merged
// coordinates. The returned slice is the index's own scratch: it is
// valid until the next Merge or Compact.
func (x *Index) Merge(union []float64) []int {
	missing := 0
	i := 0
	for _, t := range union {
		for i < len(x.ts) && x.ts[i] < t {
			i++
		}
		if i < len(x.ts) && x.ts[i] == t {
			i++
		} else {
			missing++
		}
	}
	if missing == 0 {
		return nil
	}
	if missing <= x.sparseLimit() {
		inserted := x.retBuf[:0]
		for _, t := range union {
			if x.Pos(t) < 0 {
				inserted = append(inserted, x.insertPoint(t, 0, 0))
			}
		}
		x.retBuf = inserted
		return inserted
	}
	// Dense path: grow the stream arrays by the missing count and merge
	// the union in from the back, so the existing points shift into
	// place without a second buffer; then append the new slots' keys
	// and re-walk.
	n := len(x.ts)
	m := n + missing
	ts, slot := x.ts, x.slot
	if x.sharedStream || cap(ts) < m || cap(slot) < m {
		ts, slot = make([]float64, m), make([]int32, m)
		copy(ts, x.ts)
		copy(slot, x.slot)
		x.sharedStream = false
	}
	ts, slot = ts[:m], slot[:m]
	inserted := x.retBuf[:0]
	i, w := n-1, m-1
	for j := len(union) - 1; j >= 0; j-- {
		t := union[j]
		for i >= 0 && ts[i] > t {
			ts[w], slot[w] = ts[i], slot[i]
			i--
			w--
		}
		if i >= 0 && ts[i] == t {
			continue
		}
		s := x.alloc()
		x.wS[s], x.ownS[s] = 0, 0
		x.rank0S[s], x.infS[s] = x.rank(t, 0)
		x.dropS[s] = false
		ts[w], slot[w] = t, s
		inserted = append(inserted, w)
		w--
	}
	slices.Reverse(inserted)
	x.ts, x.slot = ts, slot
	x.retBuf = inserted
	x.keptOK = false
	if x.big || x.deferSmall() {
		x.flagsDirty = true
		return inserted
	}
	x.ensureRank()
	for _, p := range inserted {
		s := x.slot[p]
		x.keys = append(x.keys, packRank(x.rank0S[s])|uint64(s))
	}
	x.resort()
	return inserted
}

// AddOwners increments the owner count of every point in stream
// (ascending); each must be present.
func (x *Index) AddOwners(stream []float64) error {
	i := 0
	for _, t := range stream {
		for i < len(x.ts) && x.ts[i] < t {
			i++
		}
		if i == len(x.ts) || x.ts[i] != t {
			return fmt.Errorf("envelope: AddOwners: point t=%v not in index", t)
		}
		x.ensureSlabs()
		x.ownS[x.slot[i]]++
		i++
	}
	return nil
}

// RemoveOwners decrements the owner count of every point in stream
// (ascending); each must be present with a positive count. Points
// reaching zero owners stay in the stream until Compact. On error the
// index state is unspecified and must be discarded.
func (x *Index) RemoveOwners(stream []float64) error {
	i := 0
	for _, t := range stream {
		for i < len(x.ts) && x.ts[i] < t {
			i++
		}
		if i == len(x.ts) || x.ts[i] != t {
			return fmt.Errorf("envelope: RemoveOwners: point t=%v not in index", t)
		}
		s := x.slot[i]
		if x.ownS[s] <= 0 {
			return fmt.Errorf("envelope: RemoveOwners: point t=%v has no owners left", t)
		}
		x.ensureSlabs()
		x.ownS[s]--
		i++
	}
	return nil
}

// Compact drops every point whose owner count reached zero, returning
// their stream positions (ascending) in the pre-compaction
// coordinates. The returned slice is the index's own scratch: it is
// valid until the next Merge or Compact.
func (x *Index) Compact() []int {
	removed := x.retBuf[:0]
	for p, s := range x.slot {
		if x.ownS[s] == 0 {
			removed = append(removed, p)
		}
	}
	x.retBuf = removed
	if len(removed) == 0 {
		return nil
	}
	if len(removed) <= x.sparseLimit() {
		// Remove highest position first so the recorded (pre-compaction)
		// positions stay valid while earlier ones are still pending.
		for k := len(removed) - 1; k >= 0; k-- {
			x.removePoint(removed[k])
		}
		return removed
	}
	// Dense path: splice the survivors and rebuild the rank order.
	x.ensureStream()
	w := 0
	for p, s := range x.slot {
		if x.ownS[s] == 0 {
			x.freeSlot(s)
			continue
		}
		x.ts[w] = x.ts[p]
		x.slot[w] = s
		w++
	}
	x.ts = x.ts[:w]
	x.slot = x.slot[:w]
	x.keptOK = false
	if x.big || x.deferSmall() {
		x.flagsDirty = true
		return removed
	}
	if x.sharedRank {
		x.keys = make([]uint64, 0, w)
		x.maxInf = nil
		x.sharedRank = false
	}
	x.keys = x.keys[:0]
	for _, s := range x.slot {
		x.keys = append(x.keys, packRank(x.rank0S[s])|uint64(s))
	}
	x.resort()
	return removed
}

// SetDemand replaces the per-point demands with ws (stream order, full
// length) and reindexes the points whose demand changed bitwise.
func (x *Index) SetDemand(ws []float64) error {
	if len(ws) != len(x.ts) {
		return fmt.Errorf("envelope: SetDemand: %d demands for %d points", len(ws), len(x.ts))
	}
	changed := x.posBuf[:0]
	for p, s := range x.slot {
		if math.Float64bits(x.wS[s]) != math.Float64bits(ws[p]) {
			changed = append(changed, p)
		}
	}
	x.posBuf = changed
	if len(changed) == 0 {
		return nil
	}
	x.keptOK = false
	x.ensureSlabs()
	if !x.big && !x.deferSmall() && len(changed) <= x.sparseLimit() {
		for _, p := range changed {
			s := x.slot[p]
			x.removeKey(s)
			x.wS[s] = ws[p]
			x.rank0S[s], x.infS[s] = x.rank(x.ts[p], ws[p])
			x.insertKey(s)
		}
		return nil
	}
	for _, p := range changed {
		s := x.slot[p]
		x.wS[s] = ws[p]
		x.rank0S[s], x.infS[s] = x.rank(x.ts[p], ws[p])
	}
	if x.big || x.deferSmall() {
		x.flagsDirty = true
		return nil
	}
	// Remap the keys in place — the old rank order is a near-sorted
	// seed — then re-sort and re-walk.
	x.ensureRank()
	for j, k := range x.keys {
		s := k & slotMask
		x.keys[j] = packRank(x.rank0S[s]) | s
	}
	x.resort()
	return nil
}

// sparseLimit is the touched-point count up to which per-point
// incremental updates beat a dense rebuild.
func (x *Index) sparseLimit() int {
	if n := len(x.ts) / 8; n > 8 {
		return n
	}
	return 8
}

// rank computes the two extreme rankings of a point, negated for the
// min-envelope so one predicate serves both.
func (x *Index) rank(t, w float64) (r0, rInf float64) {
	r0 = w / t
	rInf = w - t
	if x.min {
		r0, rInf = -r0, -rInf
	}
	return r0, rInf
}

// margin is the relative dominance margin at ranking value v.
func margin(v float64) float64 { return PruneMargin * (1 + math.Abs(v)) }

// packRank is the order-preserving float64 → uint64 transform,
// inverted for descending order, with the low slot bits cleared.
func packRank(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b &^ slotMask
}

// thrKey is the truncated fold threshold of a point with ranking r0:
// every key at or below it belongs to a strict dominator at P → 0⁺.
func thrKey(r0 float64) uint64 {
	return packRank(r0+margin(r0)) | slotMask
}

// walk runs the canonical dominance walk over keys (sorted
// ascending): it fills maxInf (when non-nil) with the prefix maxima
// of rankInf in key order and sets drop[id] for every key's id (the
// low slotBits of the key) by the canonical predicate. r0, inf and
// drop are indexed by id.
func walk(keys []uint64, r0, inf []float64, drop []bool, maxInf []float64) {
	best := math.Inf(-1)
	run := math.Inf(-1)
	lead := 0
	for j, key := range keys {
		s := key & slotMask
		thr := thrKey(r0[s])
		for lead < j && keys[lead] <= thr {
			if v := inf[keys[lead]&slotMask]; v > best {
				best = v
			}
			lead++
		}
		drop[s] = best >= inf[s]+margin(inf[s])
		if v := inf[s]; v > run {
			run = v
		}
		if maxInf != nil {
			maxInf[j] = run
		}
	}
}

// resort sorts the prepared keys, re-evaluates every drop flag with
// the canonical walk and, when the buffer has room, rebuilds maxInf in
// the same pass.
func (x *Index) resort() {
	x.ensureRank()
	x.ensureSlabs() // walk writes dropS
	slices.Sort(x.keys)
	var maxInf []float64
	if x.maxInfOK = cap(x.maxInf) >= len(x.keys); x.maxInfOK {
		x.maxInf = x.maxInf[:len(x.keys)]
		maxInf = x.maxInf
	}
	walk(x.keys, x.rank0S, x.infS, x.dropS, maxInf)
	x.keptOK = false
}

// ensureMaxInf rebuilds maxInf when a re-sort left it stale.
func (x *Index) ensureMaxInf() {
	if x.maxInfOK {
		return
	}
	x.maxInf = resize(x.maxInf, len(x.keys))
	run := math.Inf(-1)
	for j, k := range x.keys {
		if v := x.infS[k&slotMask]; v > run {
			run = v
		}
		x.maxInf[j] = run
	}
	x.maxInfOK = true
}

// alloc claims a slot id, promoting the index to big mode when the id
// would not fit the packed-key slot bits.
func (x *Index) alloc() int32 {
	x.ensureSlabs()
	if n := len(x.free); n > 0 {
		s := x.free[n-1]
		x.free = x.free[:n-1]
		return s
	}
	s := int32(len(x.wS))
	if s >= maxSlots && !x.big {
		x.promote()
	}
	x.wS = append(x.wS, 0)
	x.rank0S = append(x.rank0S, 0)
	x.infS = append(x.infS, 0)
	x.ownS = append(x.ownS, 0)
	x.dropS = append(x.dropS, false)
	return s
}

// promote switches to big mode: no incremental rank order, flags
// recomputed from scratch when read.
func (x *Index) promote() {
	x.big = true
	x.keys = nil
	x.maxInf = nil
	x.flagsDirty = true
	x.keptOK = false
}

func (x *Index) freeSlot(s int32) {
	x.ensureSlabs()
	x.dropS[s] = false
	x.ownS[s] = 0
	x.free = append(x.free, s)
}

// insertPoint adds a brand-new point and returns its stream position.
func (x *Index) insertPoint(t, w float64, owners int32) int {
	p := sort.SearchFloat64s(x.ts, t)
	s := x.alloc()
	x.wS[s], x.ownS[s] = w, owners
	x.rank0S[s], x.infS[s] = x.rank(t, w)
	x.dropS[s] = false
	x.ensureStream()
	x.ts = slices.Insert(x.ts, p, t)
	x.slot = slices.Insert(x.slot, p, s)
	x.keptOK = false
	if x.big || x.deferSmall() {
		x.flagsDirty = true
		return p
	}
	x.insertKey(s)
	return p
}

// removePoint drops the point at stream position p.
func (x *Index) removePoint(p int) {
	s := x.slot[p]
	x.ensureStream()
	x.ts = slices.Delete(x.ts, p, p+1)
	x.slot = slices.Delete(x.slot, p, p+1)
	x.keptOK = false
	if x.big || x.deferSmall() {
		x.flagsDirty = true
	} else {
		x.removeKey(s)
	}
	x.freeSlot(s)
}

// upperBound returns the first key position whose key exceeds k.
func (x *Index) upperBound(k uint64) int {
	return sort.Search(len(x.keys), func(i int) bool { return x.keys[i] > k })
}

// insertKey adds slot s to the rank order: one key insertion, a
// contiguous maxInf absorption span, the point's own flag, and a
// re-evaluation of the points whose fold boundary lands in the span.
func (x *Index) insertKey(s int32) {
	x.ensureRank()
	x.ensureSlabs() // applyFlag writes dropS
	x.ensureMaxInf()
	key := packRank(x.rank0S[s]) | uint64(s)
	q := x.upperBound(key)
	inf := x.infS[s]
	prev := math.Inf(-1)
	if q > 0 {
		prev = x.maxInf[q-1]
	}
	v := prev
	if inf > v {
		v = inf
	}
	x.keys = slices.Insert(x.keys, q, key)
	x.maxInf = slices.Insert(x.maxInf, q, v)
	e := q + 1
	for e < len(x.maxInf) && x.maxInf[e] < inf {
		x.maxInf[e] = inf
		e++
	}
	// The new point's own flag.
	b := x.upperBound(thrKey(x.rank0S[s]))
	x.applyFlag(s, b)
	x.reflag(q, e)
}

// removeKey drops slot s from the rank order: one key deletion, a
// maxInf recomputation until it restabilizes, and a re-evaluation of
// the points whose fold prefix contained the removed key and whose
// prefix maximum the removed point decided.
func (x *Index) removeKey(s int32) {
	x.ensureRank()
	x.ensureSlabs() // applyFlag writes dropS
	x.ensureMaxInf()
	key := packRank(x.rank0S[s]) | uint64(s)
	q := sort.Search(len(x.keys), func(i int) bool { return x.keys[i] >= key })
	infRem := x.infS[s]
	x.keys = slices.Delete(x.keys, q, q+1)
	x.maxInf = slices.Delete(x.maxInf, q, q+1)
	run := math.Inf(-1)
	if q > 0 {
		run = x.maxInf[q-1]
	}
	e := q
	for e < len(x.keys) {
		if v := x.infS[x.keys[e]&slotMask]; v > run {
			run = v
		}
		if run == x.maxInf[e] {
			break
		}
		x.maxInf[e] = run
		e++
	}
	// A point is affected iff its fold prefix reached past q (it folded
	// the removed key) and the surviving prefix maximum sits below the
	// removed rankInf — the prefix value the predicate sees dropped. The
	// affected boundaries are exactly b ∈ [q, hi] with hi the first
	// position whose surviving prefix maximum reaches infRem (maxInf is
	// non-decreasing, so the range is contiguous). Note the array can
	// restabilize (e) before hi: a shifted value equal to its
	// predecessor still belongs to a different prefix per point.
	hi := sort.Search(len(x.maxInf), func(i int) bool { return x.maxInf[i] >= infRem })
	x.reflag(q-1, hi)
}

// applyFlag re-evaluates the canonical predicate for slot s whose fold
// boundary is b, recording whether anything changed.
func (x *Index) applyFlag(s int32, b int) {
	nd := false
	if b > 0 {
		nd = x.maxInf[b-1] >= x.infS[s]+margin(x.infS[s])
	}
	if nd != x.dropS[s] {
		x.dropS[s] = nd
		x.keptOK = false
	}
}

// reflag re-evaluates the drop flags of the points whose fold boundary
// b satisfies lo < b ≤ hi — exactly those whose folded prefix maximum
// changed. The fold threshold is monotone non-decreasing along the
// rank order up to truncation jitter of at most two key granules, so
// the scan stops once the threshold clears the span by a safe slack.
func (x *Index) reflag(lo, hi int) {
	if hi <= lo {
		return
	}
	bounded := hi < len(x.keys)
	var limit uint64
	if bounded {
		limit = x.keys[hi] | slotMask
	}
	const slack = uint64(4) << slotBits
	for pos := lo + 1; pos < len(x.keys); pos++ {
		s := x.keys[pos] & slotMask
		tk := thrKey(x.rank0S[s])
		if bounded && tk >= limit {
			if tk-limit > slack {
				break
			}
			continue
		}
		b := x.upperBound(tk)
		if b <= lo {
			continue
		}
		x.applyFlag(int32(s), b)
	}
}

// rebuildBig recomputes every drop flag from scratch with a
// comparator-ordered walk (big mode: slot ids exceed the packed-key
// width).
func (x *Index) rebuildBig() {
	x.ensureSlabs() // the walk below writes dropS
	n := len(x.slot)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := x.rank0S[x.slot[a]], x.rank0S[x.slot[b]]
		switch {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		}
		return int(a) - int(b)
	})
	best := math.Inf(-1)
	lead := 0
	for j, p := range order {
		s := x.slot[p]
		thr := x.rank0S[s] + margin(x.rank0S[s])
		for lead < j && x.rank0S[x.slot[order[lead]]] >= thr {
			if v := x.infS[x.slot[order[lead]]]; v > best {
				best = v
			}
			lead++
		}
		x.dropS[s] = best >= x.infS[s]+margin(x.infS[s])
	}
	x.flagsDirty = false
}

// Prune removes the points that are dominated for every P > 0 (see
// the package comment). With min = false it keeps the candidates for
// the maximum over the set (EDF); with min = true, the candidates for
// the minimum (FP's inner search). all must be ascending in T; the
// retained points are returned ascending in T, filtered in place of
// all's backing. Prune is the from-scratch oracle the Index is
// bit-identical to: both evaluate the same canonical predicate.
func Prune(all []Pair, min bool) []Pair {
	n := len(all)
	if n <= 1 {
		return all
	}
	sign := 1.0
	if min {
		sign = -1
	}
	rank0 := make([]float64, 2*n)
	rankInf := rank0[n:]
	rank0 = rank0[:n:n]
	for i, pr := range all {
		rank0[i] = sign * pr.W / pr.T
		rankInf[i] = sign * (pr.W - pr.T)
	}
	drop := make([]bool, n)
	if n <= maxSlots {
		keys := make([]uint64, n)
		for i := range rank0 {
			keys[i] = packRank(rank0[i]) | uint64(i)
		}
		slices.Sort(keys)
		walk(keys, rank0, rankInf, drop, nil)
	} else {
		// Comparator fallback: too many points for the packed slot bits.
		order := make([]uint64, n)
		for i := range order {
			order[i] = uint64(i)
		}
		slices.SortFunc(order, func(a, b uint64) int {
			switch {
			case rank0[a] > rank0[b]:
				return -1
			case rank0[a] < rank0[b]:
				return 1
			}
			return int(a) - int(b)
		})
		best := math.Inf(-1)
		lead := 0
		for j, oi := range order {
			thr := rank0[oi] + margin(rank0[oi])
			for lead < j && rank0[order[lead]] >= thr {
				if v := rankInf[order[lead]]; v > best {
					best = v
				}
				lead++
			}
			drop[oi] = best >= rankInf[oi]+margin(rankInf[oi])
		}
	}
	kept := all[:0]
	for i, pr := range all {
		if !drop[i] {
			kept = append(kept, pr)
		}
	}
	return kept
}
