package analysis

import (
	"fmt"
	"math"

	"repro/internal/points"
	"repro/internal/task"
)

// The paper notes (after Theorem 2) that the EDF formulation "also
// applies to task sets with static offset and jitter" but develops only
// the jitter-free case because "the math is heavier". This file carries
// the heavier math for release jitter: task τi's jobs may be released up
// to J_i after their nominal arrival, while deadlines stay anchored to
// the nominal arrivals. The standard jitter-aware demand bound is
//
//	W_J(t) = Σ_i max{0, ⌊(t + J_i + T_i − D_i)/T_i⌋}·C_i,
//
// which reduces to Eq. (9) at J = 0 and grows with J (a late release
// squeezes the same work into a shorter window).

// Jitter maps task names to maximum release jitter. Tasks absent from
// the map have zero jitter.
type Jitter map[string]float64

// Validate checks that jitters are non-negative and do not exceed the
// slack D − C of their task (beyond that no schedule can ever work).
func (j Jitter) Validate(s task.Set) error {
	for name, v := range j {
		if v < 0 {
			return fmt.Errorf("analysis: jitter of %q is negative", name)
		}
		tk, ok := s.Find(name)
		if !ok {
			return fmt.Errorf("analysis: jitter names unknown task %q", name)
		}
		if v > tk.D-tk.C {
			return fmt.Errorf("analysis: jitter %g of %q exceeds its slack D−C = %g", v, name, tk.D-tk.C)
		}
	}
	return nil
}

// DemandBoundJitter computes W_J(t).
func DemandBoundJitter(s task.Set, j Jitter, t float64) float64 {
	w := 0.0
	for _, tk := range s {
		if n := math.Floor((t + j[tk.Name] + tk.T - tk.D) / tk.T); n > 0 {
			w += n * tk.C
		}
	}
	return w
}

// jitterDeadlines returns the points where W_J changes: the nominal
// deadlines shifted left by each task's jitter, up to the horizon.
func jitterDeadlines(s task.Set, j Jitter, horizon float64) ([]float64, error) {
	shifted := make(task.Set, len(s))
	for i, tk := range s {
		tk.D -= j[tk.Name] // points where ⌊(t+J+T−D)/T⌋ steps
		if tk.D <= 0 {
			tk.D = math.SmallestNonzeroFloat64
		}
		shifted[i] = tk
	}
	return points.Deadlines(shifted, horizon)
}

// FeasibleEDFJitter is Theorem 2 with release jitter: the set is
// schedulable by EDF on supply (α, Δ) if Δ ≤ t − W_J(t)/α at every
// step point of W_J up to the hyperperiod plus the largest jitter.
func FeasibleEDFJitter(s task.Set, j Jitter, sp Supply) (bool, error) {
	if err := sp.Validate(); err != nil {
		return false, err
	}
	if err := j.Validate(s); err != nil {
		return false, err
	}
	if len(s) == 0 {
		return true, nil
	}
	if s.Utilization() > sp.Alpha+1e-12 {
		return false, nil
	}
	h, err := hyperperiod(s)
	if err != nil {
		return false, err
	}
	maxJ := 0.0
	for _, v := range j {
		if v > maxJ {
			maxJ = v
		}
	}
	dls, err := jitterDeadlines(s, j, h+maxJ)
	if err != nil {
		return false, err
	}
	for _, t := range dls {
		if sp.Delta > t-DemandBoundJitter(s, j, t)/sp.Alpha+feasTol {
			return false, nil
		}
	}
	return true, nil
}

// MinQEDFJitter inverts FeasibleEDFJitter into the minimum usable
// quantum at period p, the jitter-aware Eq. (11).
func MinQEDFJitter(s task.Set, j Jitter, p float64) (float64, error) {
	if p <= 0 {
		return 0, fmt.Errorf("analysis: MinQEDFJitter requires a positive period, got %g", p)
	}
	if err := j.Validate(s); err != nil {
		return 0, err
	}
	if len(s) == 0 {
		return 0, nil
	}
	h, err := hyperperiod(s)
	if err != nil {
		return 0, err
	}
	maxJ := 0.0
	for _, v := range j {
		if v > maxJ {
			maxJ = v
		}
	}
	dls, err := jitterDeadlines(s, j, h+maxJ)
	if err != nil {
		return 0, err
	}
	q := 0.0
	for _, t := range dls {
		if v := qNeeded(t, p, DemandBoundJitter(s, j, t)); v > q {
			q = v
		}
	}
	return q, nil
}
