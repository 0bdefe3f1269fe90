// Package timeu provides the time representation shared by the analysis
// and the simulator.
//
// The schedulability analysis works on float64 "time units" (the paper's
// task periods are small integers but the derived quanta involve square
// roots, e.g. Q̃_FT = 0.820). The discrete-event simulator instead runs
// on an integer tick clock so that event ordering is exact and runs are
// reproducible. One time unit corresponds to Scale ticks.
//
// Conversions between the two domains carry an explicit rounding
// direction because the direction matters for safety: a slot length must
// never be rounded below its analytic minimum, while a period must never
// be rounded above the value the quanta were computed for.
package timeu

import (
	"errors"
	"fmt"
	"math"
)

// Scale is the number of simulator ticks per analysis time unit.
// With int64 ticks and Scale = 1e9 the simulator can represent about
// 9.2e9 time units, far beyond any hyperperiod used here.
const Scale = 1_000_000_000

// Ticks is a point in simulated time or a duration, in integer ticks.
type Ticks int64

// FromUnits converts a float64 amount of time units to Ticks, rounding
// to nearest. Use FromUnitsUp / FromUnitsDown when the rounding
// direction is safety-relevant.
func FromUnits(u float64) Ticks { return Ticks(math.Round(u * Scale)) }

// FromUnitsUp converts rounding up (never returns fewer ticks than u).
func FromUnitsUp(u float64) Ticks { return Ticks(math.Ceil(u * Scale)) }

// FromUnitsDown converts rounding down (never returns more ticks than u).
func FromUnitsDown(u float64) Ticks { return Ticks(math.Floor(u * Scale)) }

// Units converts Ticks back to float64 time units.
func (t Ticks) Units() float64 { return float64(t) / Scale }

// String renders the tick count in time units with full precision where
// it is exact, e.g. "2.966000000".
func (t Ticks) String() string { return fmt.Sprintf("%.9f", t.Units()) }

// GCD returns the greatest common divisor of a and b. GCD(0, b) = b.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ErrOverflow reports an integer time computation whose result does not
// fit an int64.
var ErrOverflow = errors.New("timeu: overflows int64")

// CheckedLCM returns the least common multiple of a and b, or 0 if
// either is 0, and an error wrapping ErrOverflow when the result does
// not fit an int64. Hyperperiod folds over task periods use it: a set
// of large, nearly coprime periods is input to reject, not a crash.
func CheckedLCM(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	g := GCD(a, b)
	q := a / g
	r := q * b
	if r/b != q || r == math.MinInt64 {
		return 0, fmt.Errorf("%w: LCM(%d, %d)", ErrOverflow, a, b)
	}
	if r < 0 {
		return -r, nil
	}
	return r, nil
}

// LCM is CheckedLCM for operands known to be small (frame counts and
// the like); it panics on overflow.
func LCM(a, b int64) int64 {
	r, err := CheckedLCM(a, b)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// LCMAll folds LCM over vs. LCMAll() = 1 so that it is a neutral value
// for hyperperiod computations over empty task sets.
func LCMAll(vs ...int64) int64 {
	out := int64(1)
	for _, v := range vs {
		out = LCM(out, v)
	}
	return out
}

// AlmostEqual reports whether a and b differ by at most tol.
func AlmostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// ScaledPeriod converts a float64 period to its integer numerator over
// the given denominator: the period must be an integral multiple of
// 1/den to within 1e-9 relative, and positive. It is the per-period
// validation step of Hyperperiod, exposed so incremental consumers can
// fold one more period into an integer hyperperiod without re-parsing
// the whole set.
func ScaledPeriod(p float64, den int64) (int64, error) {
	scaled := p * float64(den)
	r := math.Round(scaled)
	if math.Abs(scaled-r) > 1e-9*math.Max(1, math.Abs(scaled)) {
		return 0, fmt.Errorf("timeu: period %g is not a multiple of 1/%d", p, den)
	}
	if r <= 0 {
		return 0, fmt.Errorf("timeu: period %g is not positive", p)
	}
	return int64(r), nil
}

// HyperperiodInt returns the least common multiple of the given float64
// periods as an integer numerator over den (see ScaledPeriod). Integer
// LCM is associative and commutative, so the result is independent of
// the period order — the exactness anchor for incremental hyperperiod
// updates.
func HyperperiodInt(periods []float64, den int64) (int64, error) {
	if den <= 0 {
		return 0, fmt.Errorf("timeu: denominator must be positive, got %d", den)
	}
	h := int64(1)
	for _, p := range periods {
		r, err := ScaledPeriod(p, den)
		if err != nil {
			return 0, err
		}
		if h, err = CheckedLCM(h, r); err != nil {
			return 0, err
		}
	}
	return h, nil
}

// Hyperperiod returns the least common multiple of the given float64
// periods interpreted as rationals with the given denominator (periods
// are multiplied by den and must then be integral to within 1e-9).
// It returns an error if any period is not representable.
func Hyperperiod(periods []float64, den int64) (float64, error) {
	h, err := HyperperiodInt(periods, den)
	if err != nil {
		return 0, err
	}
	return float64(h) / float64(den), nil
}
