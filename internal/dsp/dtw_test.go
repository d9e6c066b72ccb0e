package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDTWIdenticalSignalsZero(t *testing.T) {
	x := []float64{0, 1, 0, 1, 0.5, 0}
	d, err := DTWWith(x, x, DTWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
}

func TestDTWEmptyInput(t *testing.T) {
	if _, err := DTWWith(nil, []float64{1}, DTWOptions{}); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestDTWAbsorbsUniformTimeWarp(t *testing.T) {
	// A signal and its 2x time-stretched version: DTW distance should
	// be near zero while Euclidean distance is large.
	n := 64
	a := make([]float64, n)
	for i := range a {
		a[i] = math.Sin(2 * math.Pi * 3 * float64(i) / float64(n))
	}
	b := make([]float64, 2*n)
	for i := range b {
		b[i] = math.Sin(2 * math.Pi * 3 * float64(i) / float64(2*n))
	}
	d, err := DTWWith(a, b, DTWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Against a genuinely different shape (the negated stretch), the
	// distance must be far larger than against the pure time warp.
	neg := make([]float64, len(b))
	for i, v := range b {
		neg[i] = -v
	}
	dNeg, err := DTWWith(a, neg, DTWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d > dNeg/4 {
		t.Fatalf("time-warp distance %v not well below different-shape distance %v", d, dNeg)
	}
	if eu := EuclideanDistance(a, b); eu < 1 {
		t.Fatalf("Euclidean distance %v unexpectedly small", eu)
	}
}

func TestDTWDiscriminatesDifferentShapes(t *testing.T) {
	n := 50
	sin := make([]float64, n)
	saw := make([]float64, n)
	for i := range sin {
		sin[i] = math.Sin(2 * math.Pi * float64(i) / float64(n))
		saw[i] = 2*float64(i%10)/10 - 1
	}
	dSame, err := DTWWith(sin, sin, DTWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dDiff, err := DTWWith(sin, saw, DTWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dDiff <= dSame {
		t.Fatalf("different shapes (%v) not farther than identical (%v)", dDiff, dSame)
	}
}

func TestDTWSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, 30)
	b := make([]float64, 45)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	dab, err := DTWWith(a, b, DTWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dba, err := DTWWith(b, a, DTWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dab-dba) > 1e-9 {
		t.Fatalf("DTW not symmetric: %v vs %v", dab, dba)
	}
}

func TestDTWWindowConstraint(t *testing.T) {
	a := []float64{0, 0, 1, 1, 0, 0, 1, 1}
	b := []float64{0, 1, 1, 0, 0, 1, 1, 0}
	full, err := DTWWith(a, b, DTWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	banded, err := DTWWith(a, b, DTWOptions{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A narrower band can only restrict the optimal path.
	if banded < full-1e-12 {
		t.Fatalf("banded distance %v < unconstrained %v", banded, full)
	}
}

func TestDTWWindowWidensForLengthMismatch(t *testing.T) {
	a := make([]float64, 10)
	b := make([]float64, 30)
	// Window 1 is narrower than the length difference; the
	// implementation must widen it instead of failing.
	if _, err := DTWWith(a, b, DTWOptions{Window: 1}); err != nil {
		t.Fatalf("window not widened: %v", err)
	}
}

func TestDTWPropertyNonNegativeAndSelfZero(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		self, err := DTWWith(raw, raw, DTWOptions{})
		if err != nil || self != 0 {
			return false
		}
		shifted := make([]float64, len(raw))
		for i, v := range raw {
			shifted[i] = v + 1
		}
		d, err := DTWWith(raw, shifted, DTWOptions{})
		return err == nil && d >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDTW256(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 256)
	y := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DTWWith(x, y, DTWOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTWBanded256(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, 256)
	y := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DTWWith(x, y, DTWOptions{Window: 32}); err != nil {
			b.Fatal(err)
		}
	}
}
