package timeu

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{0, 5, 5},
		{5, 0, 5},
		{12, 8, 4},
		{8, 12, 4},
		{7, 13, 1},
		{-12, 8, 4},
		{12, -8, 4},
		{-12, -8, 4},
		{1, 1, 1},
		{100, 100, 100},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCM(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 5, 0},
		{5, 0, 0},
		{4, 6, 12},
		{6, 4, 12},
		{7, 13, 91},
		{1, 9, 9},
		{10, 10, 10},
	}
	for _, c := range cases {
		if got := LCM(c.a, c.b); got != c.want {
			t.Errorf("LCM(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCMOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LCM of two huge coprimes should panic on overflow")
		}
	}()
	LCM(math.MaxInt64-1, math.MaxInt64-2)
}

// TestCheckedLCMOverflow: the checked form reports overflow as an
// ErrOverflow error — the hyperperiod folds rely on it to reject large
// coprime periods instead of panicking — and agrees with LCM otherwise.
func TestCheckedLCMOverflow(t *testing.T) {
	for _, c := range [][2]int64{
		{math.MaxInt64 - 1, math.MaxInt64 - 2},
		{5999772002142000000, 999961000000},
		{math.MinInt64, 1},
	} {
		if r, err := CheckedLCM(c[0], c[1]); !errors.Is(err, ErrOverflow) {
			t.Errorf("CheckedLCM(%d, %d) = %d, %v; want ErrOverflow", c[0], c[1], r, err)
		}
	}
	if r, err := CheckedLCM(4, 6); r != 12 || err != nil {
		t.Errorf("CheckedLCM(4, 6) = %d, %v", r, err)
	}
	if _, err := HyperperiodInt([]float64{999983, 999979, 999961}, 1_000_000); !errors.Is(err, ErrOverflow) {
		t.Errorf("HyperperiodInt of coprime periods: %v, want ErrOverflow", err)
	}
}

func TestLCMAll(t *testing.T) {
	if got := LCMAll(); got != 1 {
		t.Errorf("LCMAll() = %d, want 1", got)
	}
	// Hyperperiod of the paper's Table 1 periods.
	got := LCMAll(6, 8, 12, 10, 24, 10, 15, 20, 4, 12, 15, 20, 30)
	if got != 120 {
		t.Errorf("LCMAll(paper periods) = %d, want 120", got)
	}
}

func TestGCDLCMProperty(t *testing.T) {
	// gcd(a,b) * lcm(a,b) == a*b for positive a, b.
	f := func(a, b uint16) bool {
		x, y := int64(a)+1, int64(b)+1
		return GCD(x, y)*LCM(x, y) == x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTicksConversions(t *testing.T) {
	if FromUnits(1.0) != Scale {
		t.Errorf("FromUnits(1.0) = %d, want %d", FromUnits(1.0), Scale)
	}
	if FromUnits(2.966).Units() != 2.966 {
		t.Errorf("round-trip of 2.966 = %g", FromUnits(2.966).Units())
	}
	u := 0.1 + 0.2 // 0.30000000000000004
	if FromUnitsUp(u) < FromUnits(0.3) {
		t.Error("FromUnitsUp must not round below the value")
	}
	if FromUnitsDown(1.0000000001) != Scale {
		t.Errorf("FromUnitsDown(1+eps) = %d, want %d", FromUnitsDown(1.0000000001), Scale)
	}
}

func TestTicksRoundingDirections(t *testing.T) {
	f := func(raw uint32) bool {
		u := float64(raw) / 1024
		up, down := FromUnitsUp(u), FromUnitsDown(u)
		return down <= up && down.Units() <= u+1e-12 && up.Units() >= u-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTicksString(t *testing.T) {
	if got := FromUnits(2.966).String(); got != "2.966000000" {
		t.Errorf("String() = %q", got)
	}
}

func TestHyperperiod(t *testing.T) {
	h, err := Hyperperiod([]float64{6, 8, 12}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h != 24 {
		t.Errorf("Hyperperiod = %g, want 24", h)
	}
	h, err = Hyperperiod([]float64{0.5, 0.75}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h != 1.5 {
		t.Errorf("fractional Hyperperiod = %g, want 1.5", h)
	}
	if _, err := Hyperperiod([]float64{math.Pi}, 1000); err == nil {
		t.Error("irrational period should be rejected")
	}
	if _, err := Hyperperiod([]float64{-2}, 1); err == nil {
		t.Error("negative period should be rejected")
	}
	if _, err := Hyperperiod([]float64{2}, 0); err == nil {
		t.Error("zero denominator should be rejected")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-10, 1e-9) {
		t.Error("values within tol should compare equal")
	}
	if AlmostEqual(1.0, 1.1, 1e-3) {
		t.Error("values outside tol should not compare equal")
	}
}
