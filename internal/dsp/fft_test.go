package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n^2) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

func complexSliceClose(t *testing.T, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("bin %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// fft runs the plan's in-place radix-2 kernel on x.
func fft(t testing.TB, x []complex128) {
	t.Helper()
	p, err := PlanFFT(len(x))
	if err != nil {
		t.Fatalf("n=%d: %v", len(x), err)
	}
	p.transform(x)
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(n, int64(n))
		want := naiveDFT(x)
		got := make([]complex128, n)
		copy(got, x)
		fft(t, got)
		complexSliceClose(t, got, want, 1e-8*float64(n))
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := PlanFFT(3); err == nil {
		t.Fatal("expected error for n=3")
	}
	if _, err := PlanFFT(0); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestFFTParseval(t *testing.T) {
	x := randComplex(256, 9)
	var timeEnergy float64
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	y := make([]complex128, len(x))
	copy(y, x)
	fft(t, y)
	var freqEnergy float64
	for _, v := range y {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(len(x))
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: time %.6f freq %.6f", timeEnergy, freqEnergy)
	}
}

func TestPowerSpectrumFindsTone(t *testing.T) {
	const (
		fs   = 1000.0
		tone = 85.0
		n    = 2048
	)
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = 10 + 3*math.Sin(2*math.Pi*tone*ti) // DC offset + tone
	}
	sp, err := PowerSpectrum(x, fs, HannWindow)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for k := range sp.Power {
		if sp.Power[k] > sp.Power[best] {
			best = k
		}
	}
	if math.Abs(sp.Freqs[best]-tone) > fs/float64(len(sp.Freqs))*2 {
		t.Fatalf("dominant bin at %.2f Hz, want ~%.2f", sp.Freqs[best], tone)
	}
	// DC must have been removed.
	if sp.Power[0] > sp.Power[best]/100 {
		t.Fatalf("DC bin not suppressed: %.2f", sp.Power[0])
	}
}

func TestPowerSpectrumErrors(t *testing.T) {
	if _, err := PowerSpectrum(nil, 1000, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := PowerSpectrum([]float64{1, 2}, 0, nil); err == nil {
		t.Fatal("expected error for zero sample rate")
	}
}

func TestDominantPeaksSeparationAndOrder(t *testing.T) {
	sp := Spectrum{
		Freqs: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8},
		Power: []float64{0, 5, 1, 9, 1, 8.8, 1, 3, 0},
	}
	peaks := sp.DominantPeaks(0.5, 1.5, 3)
	if len(peaks) < 2 {
		t.Fatalf("got %d peaks, want >= 2", len(peaks))
	}
	if peaks[0].Freq != 3 {
		t.Fatalf("strongest peak at %.1f, want 3", peaks[0].Freq)
	}
	// 5 Hz (power 8.8) is 2 Hz from the 3 Hz peak: kept.
	if peaks[1].Freq != 5 {
		t.Fatalf("second peak at %.1f, want 5", peaks[1].Freq)
	}
	// With a wide separation, the 5 Hz peak is suppressed as a skirt.
	peaks = sp.DominantPeaks(0.5, 2.5, 3)
	for _, p := range peaks[1:] {
		if p.Freq == 5 {
			t.Fatal("5 Hz peak should be suppressed at separation 2.5")
		}
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	const fs = 1000.0
	n := 1000
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = 2*math.Sin(2*math.Pi*100*ti) + math.Sin(2*math.Pi*40*ti)
	}
	// Goertzel at the strong tone should far exceed a quiet bin.
	strong := Goertzel(x, fs, 100)
	weak := Goertzel(x, fs, 250)
	if strong < 10*weak {
		t.Fatalf("Goertzel contrast too low: strong=%.1f weak=%.1f", strong, weak)
	}
	// And the 40 Hz tone should be about half the 100 Hz magnitude.
	mid := Goertzel(x, fs, 40)
	if ratio := mid / strong; ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("magnitude ratio %.2f, want ~0.5", ratio)
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPowerOfTwo(in); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randComplex(1024, 1)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		fft(b, buf)
	}
}

func BenchmarkPowerSpectrum4096(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PowerSpectrum(x, 1000, HannWindow); err != nil {
			b.Fatal(err)
		}
	}
}
