// Package analysis implements the uniprocessor schedulability mathematics
// the paper builds on (Section 3.2):
//
//   - the fixed-priority request-bound function W_i(t) (Eq. 5) and the
//     EDF demand-bound function W(t) (Eq. 9);
//   - Theorem 1 (FP) and Theorem 2 (EDF): feasibility of a task set on a
//     bounded-delay supply (α, Δ);
//   - the inversion of those theorems into the minimum slot length
//     minQ(T, alg, P) of Eq. (6) (FP) and Eq. (11) (EDF);
//   - Profile, a compiled form of minQ: Compile separates the
//     P-independent demand structure (scheduling points and their
//     demand values, with pairs that can never decide the result pruned
//     away) from the P-dependent quantum inversion, so design-space
//     sweeps evaluate Profile.MinQ in a tight allocation-free loop while
//     MinQ remains the straightforward reference oracle;
//   - classical full-processor tests (response-time analysis, processor
//     demand criterion, Liu–Layland and hyperbolic utilisation bounds)
//     used by the automatic partitioner.
//
// All tests assume the synchronous arrival pattern, independent tasks
// and constrained deadlines D ≤ T, as in the paper.
package analysis

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/points"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Alg selects the per-channel scheduling algorithm.
type Alg int

const (
	// RM is fixed-priority scheduling with Rate Monotonic priorities.
	RM Alg = iota
	// DM is fixed-priority scheduling with Deadline Monotonic priorities.
	DM
	// EDF is Earliest Deadline First.
	EDF
)

// String returns the conventional abbreviation of the algorithm.
func (a Alg) String() string {
	switch a {
	case RM:
		return "RM"
	case DM:
		return "DM"
	case EDF:
		return "EDF"
	}
	return fmt.Sprintf("Alg(%d)", int(a))
}

// ParseAlg converts "rm", "dm" or "edf" (any case) to an Alg.
func ParseAlg(s string) (Alg, error) {
	switch s {
	case "RM", "rm":
		return RM, nil
	case "DM", "dm":
		return DM, nil
	case "EDF", "edf":
		return EDF, nil
	}
	return 0, fmt.Errorf("analysis: unknown algorithm %q (want RM, DM or EDF)", s)
}

// HyperperiodDenominator is the resolution at which task periods must be
// rational for EDF analyses that enumerate deadlines up to the
// hyperperiod: every period must be a multiple of
// 1/HyperperiodDenominator time units.
const HyperperiodDenominator = 1_000_000

// maxStreamSpan caps Σ H/T_i, the number of deadlines (repeats
// included) every EDF path enumerates up to the hyperperiod H: the
// deadline stream, the prefix rows and the envelope all grow with it.
// The cap sits orders of magnitude above the channels this repository
// models (a hyperperiod of a few hundred time units holds a few
// thousand deadlines) and far below a stream whose enumeration would
// stall an admission for seconds.
const maxStreamSpan = 1 << 20

// ErrHyperperiod reports a task set whose hyperperiod overflows the
// integer fold or spans more deadlines than maxStreamSpan. Compile,
// the profile patches and the EDF tests reject such a set with an
// error wrapping it before enumerating anything.
var ErrHyperperiod = errors.New("analysis: hyperperiod out of range")

// foldPeriod folds the scaled period p into the hyperperiod numerator h.
func foldPeriod(h, p int64) (int64, error) {
	h, err := timeu.CheckedLCM(h, p)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrHyperperiod, err)
	}
	return h, nil
}

// addSpan adds the deadline count h/p of a task with scaled period p
// (a divisor of the hyperperiod numerator h) to the running span Σ H/T_i
// of a set, failing once the total passes maxStreamSpan.
func addSpan(span, h, p int64) (int64, error) {
	if d := h / p; d <= maxStreamSpan-span {
		return span + d, nil
	}
	return 0, fmt.Errorf("%w: hyperperiod %g holds more than %d deadlines",
		ErrHyperperiod, float64(h)/HyperperiodDenominator, maxStreamSpan)
}

// hyperperiod is task.Set.Hyperperiod for the EDF tests, under the same
// overflow check and stream cap as Compile.
func hyperperiod(s task.Set) (float64, error) {
	if len(s) == 0 {
		return 0, task.ErrEmptySet
	}
	h := int64(1)
	for _, tk := range s {
		p, err := timeu.ScaledPeriod(tk.T, HyperperiodDenominator)
		if err != nil {
			return 0, err
		}
		if h, err = foldPeriod(h, p); err != nil {
			return 0, err
		}
	}
	span := int64(0)
	for _, tk := range s {
		p, _ := timeu.ScaledPeriod(tk.T, HyperperiodDenominator)
		var err error
		if span, err = addSpan(span, h, p); err != nil {
			return 0, err
		}
	}
	return float64(h) / HyperperiodDenominator, nil
}

// sorted returns the set in priority order for a fixed-priority Alg.
// EDF has no static order; the set is returned unchanged.
func (a Alg) sorted(s task.Set) task.Set {
	switch a {
	case RM:
		return s.SortedRM()
	case DM:
		return s.SortedDM()
	default:
		return s
	}
}

// RequestBound computes W_i(t) of Eq. (5): the worst-case amount of
// computation requested in [0, t) by the task itself (one job) plus all
// jobs of its higher-priority tasks hp.
func RequestBound(c float64, hp task.Set, t float64) float64 {
	w := c
	for _, h := range hp {
		w += math.Ceil(t/h.T) * h.C
	}
	return w
}

// DemandBound computes the EDF demand-bound function W(t) of Eq. (9):
// the total computation of jobs with both arrival and deadline in [0, t].
func DemandBound(s task.Set, t float64) float64 {
	w := 0.0
	for _, tk := range s {
		if n := math.Floor((t + tk.T - tk.D) / tk.T); n > 0 {
			w += n * tk.C
		}
	}
	return w
}

// Supply is the bounded-delay abstraction (α, Δ) of a mode's supply
// function: after an initial service delay of at most Delta, time is
// provided at least at rate Alpha (Eq. 3 of the paper).
type Supply struct {
	Alpha float64 // fraction of processor delivered, in (0, 1]
	Delta float64 // maximum service delay, ≥ 0
}

// Full is the trivial supply of a dedicated processor.
var Full = Supply{Alpha: 1, Delta: 0}

// Validate checks that the supply parameters are meaningful.
func (sp Supply) Validate() error {
	if sp.Alpha <= 0 || sp.Alpha > 1 {
		return fmt.Errorf("analysis: supply rate α = %g outside (0, 1]", sp.Alpha)
	}
	if sp.Delta < 0 {
		return fmt.Errorf("analysis: supply delay Δ = %g negative", sp.Delta)
	}
	return nil
}

// Value returns the linear supply lower bound Z'(t) = max{0, α(t−Δ)}.
func (sp Supply) Value(t float64) float64 {
	return math.Max(0, sp.Alpha*(t-sp.Delta))
}

// feasTol absorbs floating-point rounding in the boundary comparisons of
// Theorems 1 and 2. Configurations produced by inverting the theorems
// (MinQ) sit exactly on the boundary, where a strict comparison would
// flip on the last bit.
const feasTol = 1e-9

// FeasibleFP implements Theorem 1: the task set is schedulable by fixed
// priorities on supply (α, Δ) iff for every task some scheduling point t
// satisfies Δ ≤ t − W_i(t)/α. The priority order is given by alg, which
// must be RM or DM.
func FeasibleFP(s task.Set, alg Alg, sp Supply) (bool, error) {
	if alg != RM && alg != DM {
		return false, fmt.Errorf("analysis: FeasibleFP needs a fixed-priority algorithm, got %s", alg)
	}
	if err := sp.Validate(); err != nil {
		return false, err
	}
	ordered := alg.sorted(s)
	for i, tk := range ordered {
		ok := false
		for _, t := range points.FixedPriority(ordered[:i], tk.D) {
			if sp.Delta <= t-RequestBound(tk.C, ordered[:i], t)/sp.Alpha+feasTol {
				ok = true
				break
			}
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// FeasibleEDF implements Theorem 2: the task set is schedulable by EDF
// on supply (α, Δ) iff every deadline t up to the hyperperiod satisfies
// Δ ≤ t − W(t)/α.
func FeasibleEDF(s task.Set, sp Supply) (bool, error) {
	if err := sp.Validate(); err != nil {
		return false, err
	}
	if len(s) == 0 {
		return true, nil
	}
	if s.Utilization() > sp.Alpha+1e-12 {
		return false, nil // necessary condition; also bounds the busy period
	}
	h, err := hyperperiod(s)
	if err != nil {
		return false, err
	}
	dls, err := points.Deadlines(s, h)
	if err != nil {
		return false, err
	}
	for _, t := range dls {
		if sp.Delta > t-DemandBound(s, t)/sp.Alpha+feasTol {
			return false, nil
		}
	}
	return true, nil
}

// Feasible dispatches to FeasibleFP or FeasibleEDF according to alg.
func Feasible(s task.Set, alg Alg, sp Supply) (bool, error) {
	if alg == EDF {
		return FeasibleEDF(s, sp)
	}
	return FeasibleFP(s, alg, sp)
}

// qNeeded solves Q² + (t−P)·Q − P·W = 0 for the positive root
//
//	Q = [√((t−P)² + 4·P·W) − (t−P)] / 2,
//
// the minimum usable slot length that satisfies the feasibility
// inequality at point t (the algebra between Eq. 4 and Eq. 6). The
// equivalent form 2PW/(x + √(x²+4PW)) is used when t ≥ P to avoid the
// catastrophic cancellation of subtracting two nearly equal magnitudes.
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

// MinQ computes minQ(T, alg, P): the minimum amount of time Q̃ that a
// slot of period P must make available for the task set to be feasible
// under alg (Eq. 6 for fixed priorities, Eq. 11 for EDF). An empty set
// needs no time at all. P must be positive.
func MinQ(s task.Set, alg Alg, p float64) (float64, error) {
	if p <= 0 {
		return 0, fmt.Errorf("analysis: MinQ requires a positive period, got %g", p)
	}
	if len(s) == 0 {
		return 0, nil
	}
	if alg == EDF {
		return minQEDF(s, p)
	}
	return minQFP(s, alg, p)
}

// minQFP evaluates Eq. (6): for each task the best (smallest) quantum
// over its scheduling points, then the worst over all tasks.
func minQFP(s task.Set, alg Alg, p float64) (float64, error) {
	if alg != RM && alg != DM {
		return 0, fmt.Errorf("analysis: minQFP needs a fixed-priority algorithm, got %s", alg)
	}
	ordered := alg.sorted(s)
	q := 0.0
	for i, tk := range ordered {
		best := math.Inf(1)
		for _, t := range points.FixedPriority(ordered[:i], tk.D) {
			if v := qNeeded(t, p, RequestBound(tk.C, ordered[:i], t)); v < best {
				best = v
			}
		}
		if best > q {
			q = best
		}
	}
	return q, nil
}

// minQEDF evaluates Eq. (11): the worst quantum over all deadlines up to
// the hyperperiod.
func minQEDF(s task.Set, p float64) (float64, error) {
	h, err := hyperperiod(s)
	if err != nil {
		return 0, err
	}
	dls, err := points.Deadlines(s, h)
	if err != nil {
		return 0, err
	}
	q := 0.0
	for _, t := range dls {
		if v := qNeeded(t, p, DemandBound(s, t)); v > q {
			q = v
		}
	}
	return q, nil
}
