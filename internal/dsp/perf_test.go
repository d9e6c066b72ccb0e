package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestProminencesMatchWalk locks the reference's batch prominence
// sweep to its per-peak walk on random signals (noise, plateaus,
// trends), with and without NaN samples, which both step over.
func TestProminencesMatchWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 16 + rng.Intn(400)
		x := make([]float64, n)
		for i := range x {
			switch trial % 3 {
			case 0:
				x[i] = rng.NormFloat64()
			case 1:
				// Quantized: forces plateaus and exact ties.
				x[i] = float64(rng.Intn(6))
			default:
				x[i] = math.Sin(float64(i)/7) + 0.3*rng.NormFloat64()
			}
		}
		if trial >= 50 {
			for k := 0; k < 1+rng.Intn(8); k++ {
				x[rng.Intn(n)] = math.NaN()
			}
		}
		peaks := FindPeaks(x, PeakOptions{})
		swept := append([]RefPeak(nil), peaks...)
		prominences(x, swept)
		for k, p := range peaks {
			want := prominence(x, p.Index)
			if p.Prominence != want || swept[k].Prominence != want {
				t.Fatalf("trial %d: peak at %d: FindPeaks prominence %v, sweep %v, walk %v",
					trial, p.Index, p.Prominence, swept[k].Prominence, want)
			}
		}
	}
}

// TestPreambleExtremaMatchesLists locks the lazy A/B/C anchor scan to
// the reference list-based selection on random signals.
func TestPreambleExtremaMatchesLists(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 8 + rng.Intn(600)
		x := make([]float64, n)
		for i := range x {
			switch trial % 4 {
			case 0:
				x[i] = rng.NormFloat64()
			case 1:
				x[i] = float64(rng.Intn(5)) // plateaus and ties
			case 2:
				x[i] = 10*math.Sin(float64(i)/11) + rng.NormFloat64()
			default:
				x[i] = float64(i%37) + 0.1*rng.NormFloat64() // sawtooth: long walks
			}
		}
		minProm := []float64{0, 0.5, 2, 8}[trial%4]
		gotA, gotB, gotC, gotOK := PreambleExtrema(x, minProm)

		peaks := FindPeaks(x, PeakOptions{MinProminence: minProm})
		valleys := FindValleys(x, PeakOptions{MinProminence: minProm})
		var wantA, wantB, wantC Peak
		wantOK := false
		if len(peaks) >= 1 {
			wantA = peaks[0].Peak
			for _, v := range valleys {
				if v.Index > wantA.Index {
					wantB = v.Peak
					wantOK = true
					break
				}
			}
			if wantOK {
				wantOK = false
				for _, p := range peaks {
					if p.Index > wantB.Index {
						wantC = p.Peak
						wantOK = true
						break
					}
				}
			}
		}
		if gotOK != wantOK {
			t.Fatalf("trial %d: ok=%v want %v", trial, gotOK, wantOK)
		}
		if !gotOK {
			continue
		}
		// Prominence of the lazy anchors is unspecified (the
		// qualification walk stops early); indices and values must
		// match the list-based selection exactly.
		same := func(g, w Peak) bool { return g.Index == w.Index && g.Value == w.Value }
		if !same(gotA, wantA) || !same(gotB, wantB) || !same(gotC, wantC) {
			t.Fatalf("trial %d: anchors (%+v,%+v,%+v) want (%+v,%+v,%+v)",
				trial, gotA, gotB, gotC, wantA, wantB, wantC)
		}
	}
}

// preambleExtremaWalk is the reference model for PreambleExtrema: a
// lazy scan that enumerates extrema in index order and runs a full
// early-stopping saddle walk on both sides of each candidate. It is
// quadratic on tied plateaus, which is why it lives only here.
func preambleExtremaWalk(x []float64, minProm float64) (a, b, c Peak, ok bool) {
	if len(x) < 3 {
		return Peak{}, Peak{}, Peak{}, false
	}
	qualifies := func(idx int, valley bool) bool {
		if minProm <= 0 {
			return true
		}
		sign := 1.0
		if valley {
			sign = -1
		}
		h := sign * x[idx]
		side := func(from, to, step int) bool {
			m := h
			for i := from; i != to; i += step {
				v := sign * x[i]
				if v > h {
					break
				}
				if v < m {
					m = v
					if h-m >= minProm {
						return true
					}
				}
			}
			return h-m >= minProm
		}
		return side(idx-1, -1, -1) && side(idx+1, len(x), 1)
	}
	lazy := func(after int, valley bool) (Peak, bool) {
		n := len(x)
		i := 1
		for i < n-1 {
			rising := x[i] > x[i-1]
			if valley {
				rising = x[i] < x[i-1]
			}
			if rising {
				j := i
				for j < n-1 && x[j+1] == x[j] {
					j++
				}
				closes := j < n-1 && x[j+1] < x[j]
				if valley {
					closes = j < n-1 && x[j+1] > x[j]
				}
				if closes {
					mid := (i + j) / 2
					if mid > after && qualifies(mid, valley) {
						return Peak{Index: mid, Value: x[mid]}, true
					}
				}
				i = j + 1
				continue
			}
			i++
		}
		return Peak{}, false
	}
	a, ok = lazy(-1, false)
	if ok {
		b, ok = lazy(a.Index, true)
	}
	if ok {
		c, ok = lazy(b.Index, false)
	}
	return a, b, c, ok
}

// TestPreambleExtremaMatchesWalk locks the one-pass anchor scan to the
// reference walk on long inputs of the shapes that stress it:
// ADC-quantized baselines (tied candidates), slow ramps, sawtooths
// (long walks), integer random walks (walls and dips at every scale)
// and signals carrying NaN and ±Inf samples.
func TestPreambleExtremaMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 144; trial++ {
		n := 4096 + rng.Intn(4096)
		x := make([]float64, n)
		walk := 0.0
		for i := range x {
			switch trial % 6 {
			case 0:
				// Quantized baseline with a packet-like burst.
				x[i] = 10 + float64(rng.Intn(2))
				if i > n/3 && i < n/2 && (i/97)%2 == 0 {
					x[i] += 80
				}
			case 1:
				x[i] = float64(i)/float64(n)*50 + float64(rng.Intn(3)) // slow ramp
			case 2:
				x[i] = float64(i%301) + float64(rng.Intn(2)) // sawtooth
			case 3:
				x[i] = math.Round(20*math.Sin(float64(i)/150)) + float64(rng.Intn(2))
			case 4:
				walk += float64(rng.Intn(3) - 1)
				x[i] = walk
			default:
				x[i] = 10*math.Sin(float64(i)/200) + rng.NormFloat64()
			}
		}
		if trial%2 == 1 {
			for k := 0; k < 1+rng.Intn(8); k++ {
				x[rng.Intn(n)] = special[rng.Intn(len(special))]
			}
		}
		for _, minProm := range []float64{0, 0.5, 2, 8, 30, math.NaN()} {
			gotA, gotB, gotC, gotOK := PreambleExtrema(x, minProm)
			wantA, wantB, wantC, wantOK := preambleExtremaWalk(x, minProm)
			if gotOK != wantOK {
				t.Fatalf("trial %d minProm %v: ok=%v want %v", trial, minProm, gotOK, wantOK)
			}
			same := func(g, w Peak) bool {
				return g.Index == w.Index && math.Float64bits(g.Value) == math.Float64bits(w.Value)
			}
			if gotOK && (!same(gotA, wantA) || !same(gotB, wantB) || !same(gotC, wantC)) {
				t.Fatalf("trial %d minProm %v: anchors (%+v,%+v,%+v) want (%+v,%+v,%+v)",
					trial, minProm, gotA, gotB, gotC, wantA, wantB, wantC)
			}
		}
	}
}

// goertzelRef is the single-bin recurrence as a lone serial loop.
func goertzelRef(samples []float64, fs, f float64) float64 {
	if len(samples) == 0 || fs <= 0 {
		return 0
	}
	w := 2 * math.Pi * f / fs
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, x := range samples {
		s0 = x + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	re := s1 - s2*math.Cos(w)
	im := s2 * math.Sin(w)
	return math.Hypot(re, im)
}

// TestGoertzelBinsMatchPerBin locks the interleaved multi-bin kernel
// to one Goertzel call per bin and to the lone serial recurrence, bit
// for bit, across bin counts that fill, split and overflow one
// interleaved group.
func TestGoertzelBinsMatchPerBin(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		x := make([]float64, rng.Intn(3000))
		for i := range x {
			x[i] = 50*math.Sin(float64(i)/3) + rng.NormFloat64()
		}
		fs := 400 + 1600*rng.Float64()
		freqs := make([]float64, 1+trial%(2*maxGoertzelBins+3))
		for k := range freqs {
			freqs[k] = rng.Float64() * fs / 2
		}
		mags := make([]float64, len(freqs))
		GoertzelBins(x, fs, freqs, mags)
		for k, f := range freqs {
			one, want := Goertzel(x, fs, f), goertzelRef(x, fs, f)
			if math.Float64bits(mags[k]) != math.Float64bits(want) || math.Float64bits(one) != math.Float64bits(want) {
				t.Fatalf("trial %d bin %d (%.3f Hz): interleaved %v, per-bin %v, serial %v", trial, k, f, mags[k], one, want)
			}
		}
	}
}

// movingAverageRef is the direct clamped-window formula the bound
// Smoother must reproduce: prefix sums rebuilt per call, one divisor
// per sample.
func movingAverageRef(x []float64, window int) []float64 {
	out := make([]float64, len(x))
	if window <= 1 {
		copy(out, x)
		return out
	}
	half := window / 2
	prefix := make([]float64, len(x)+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	for i := range x {
		lo := max(0, i-half)
		hi := min(len(x)-1, i+half)
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out
}

// TestSmootherBoundMatchesMovingAverage serves every window size from
// one Bind and compares each against the reference and the
// package-level MovingAverage bit for bit. The same buffer is then
// refilled with new contents and bound again: nothing may be served
// from the old contents' sums.
func TestSmootherBoundMatchesMovingAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var s Smoother
	var dst []float64
	buf := make([]float64, 0, 600)
	for trial := 0; trial < 12; trial++ {
		buf = buf[:1+rng.Intn(cap(buf))]
		for i := range buf {
			buf[i] = 100*rng.Float64() + 1e6*float64(trial%3)
		}
		s.Bind(buf)
		var wantSum float64
		for _, v := range buf {
			wantSum += v
		}
		if s.Sum() != wantSum {
			t.Fatalf("trial %d: Sum %v, loop sum %v", trial, s.Sum(), wantSum)
		}
		for w := 0; w <= len(buf)+3; w++ {
			dst = s.MovingAverage(dst, w)
			want := movingAverageRef(buf, w)
			pkg := MovingAverage(buf, w)
			for i := range want {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) || math.Float64bits(pkg[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d window %d sample %d: bound %v, package %v, reference %v", trial, w, i, dst[i], pkg[i], want[i])
				}
			}
		}
	}
}

// TestDTWBandedMatchesExactWithinBand: when the optimal unconstrained
// path stays inside the Sakoe-Chiba band, the banded computation must
// return the exact distance.
func TestDTWBandedMatchesExactWithinBand(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 32 + rng.Intn(160)
		a := make([]float64, n)
		b := make([]float64, n)
		// Near-diagonal alignment: b is a mildly warped copy of a, so
		// the optimal path deviates only a little from the diagonal.
		for i := range a {
			a[i] = math.Sin(float64(i)/9) + 0.05*rng.NormFloat64()
		}
		for j := range b {
			src := float64(j) + 2*math.Sin(float64(j)/25)
			k := int(src)
			if k < 0 {
				k = 0
			}
			if k >= n {
				k = n - 1
			}
			b[j] = a[k]
		}
		exact, err := DTWWith(a, b, DTWOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// A band wide enough to contain any path: window = n makes the
		// band cover the full matrix, so it must equal the exact
		// distance bit for bit.
		full, err := DTWWith(a, b, DTWOptions{Window: n})
		if err != nil {
			t.Fatal(err)
		}
		if full != exact {
			t.Fatalf("trial %d: full-width band %v != exact %v", trial, full, exact)
		}
		// The warp deviates by at most ~3 samples; a window of 8 must
		// still contain the optimal path.
		banded, err := DTWWith(a, b, DTWOptions{Window: 8})
		if err != nil {
			t.Fatal(err)
		}
		if banded != exact {
			t.Fatalf("trial %d: banded %v != exact %v", trial, banded, exact)
		}
	}
}

// TestDTWBandedFallbackOutsideBand: when the optimal path needs to
// leave the band, the banded distance must still be a valid (>=
// exact) alignment cost over band-constrained paths — never silently
// wrong, never below the unconstrained optimum.
func TestDTWBandedFallbackOutsideBand(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 64 + rng.Intn(100)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		// b is a shifted by a large offset: the optimal path hugs an
		// off-diagonal stripe far outside a narrow band.
		shift := n / 3
		for j := range b {
			k := j + shift
			if k >= n {
				k = n - 1
			}
			b[j] = a[k]
		}
		exact, err := DTWWith(a, b, DTWOptions{})
		if err != nil {
			t.Fatal(err)
		}
		banded, err := DTWWith(a, b, DTWOptions{Window: 2})
		if err != nil {
			// A too-narrow band may have no finite path at all; that
			// is a correct, explicit failure — not a wrong distance.
			continue
		}
		if banded < exact {
			t.Fatalf("trial %d: banded distance %v below unconstrained optimum %v", trial, banded, exact)
		}
	}
}

// TestFFTPlanConcurrent hammers the shared plan cache and the shared
// plans from many goroutines through the production real-input path;
// run under -race it proves plan reuse is safe (immutable tables,
// pooled scratch).
func TestFFTPlanConcurrent(t *testing.T) {
	sizes := []int{8, 64, 128, 2, 256, 1024}
	want := map[int][]complex128{}
	inputs := map[int][]float64{}
	rng := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		re := make([]float64, n-1)
		for i := range re {
			re[i] = rng.NormFloat64()
		}
		inputs[n] = re
		want[n] = realDFT(re, n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				n := sizes[(g+iter)%len(sizes)]
				p, err := PlanFFT(n)
				if err != nil {
					t.Error(err)
					return
				}
				got := make([]complex128, n/2+1)
				if err := p.RealHalfSpectrum(inputs[n], got); err != nil {
					t.Error(err)
					return
				}
				for k, w := range want[n] {
					if d := got[k] - w; math.Hypot(real(d), imag(d)) > 1e-9*(1+math.Hypot(real(w), imag(w))) {
						t.Errorf("size %d bin %d: %v, want %v", n, k, got[k], w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// realDFT returns bins 0..n/2 of the naive DFT of re zero-padded to n.
func realDFT(re []float64, n int) []complex128 {
	full := make([]complex128, n)
	for i, v := range re {
		full[i] = complex(v, 0)
	}
	return naiveDFT(full)[:n/2+1]
}

// TestRealHalfSpectrumMatchesComplexFFT compares the packed real
// transform against the naive complex DFT bin by bin, for input
// lengths that fill the plan and that zero-pad it by an even and an
// odd count.
func TestRealHalfSpectrumMatchesComplexFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 4, 8, 64, 256, 1024} {
		for _, inLen := range []int{n, n / 2, n - 1, n/2 + 1} {
			re := make([]float64, inLen)
			for i := range re {
				re[i] = rng.NormFloat64()
			}
			p, err := PlanFFT(n)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]complex128, n/2+1)
			if err := p.RealHalfSpectrum(re, got); err != nil {
				t.Fatal(err)
			}
			for k, w := range realDFT(re, n) {
				d := got[k] - w
				if math.Hypot(real(d), imag(d)) > 1e-9*(1+math.Hypot(real(w), imag(w))) {
					t.Fatalf("n=%d inLen=%d bin %d: real path %v, naive %v", n, inLen, k, got[k], w)
				}
			}
		}
	}
}

// BenchmarkDTWKernel isolates the classifier-shaped DTW call (256
// points, unconstrained) from the simulation around it.
func BenchmarkDTWKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 256)
	c := make([]float64, 256)
	for i := range a {
		a[i] = rng.NormFloat64()
		c[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DTWWith(a, c, DTWOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTWKernelBanded is the same call under a Sakoe-Chiba band
// of 16 — the O(n*w) path.
func BenchmarkDTWKernelBanded(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 256)
	c := make([]float64, 256)
	for i := range a {
		a[i] = rng.NormFloat64()
		c[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DTWWith(a, c, DTWOptions{Window: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerSpectrumKernel isolates the plan-cached real-input
// spectrum on a collision-sized trace.
func BenchmarkPowerSpectrumKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 20000)
	for i := range x {
		x[i] = 100 + 10*math.Sin(float64(i)/50) + rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PowerSpectrum(x, 1000, HannWindow); err != nil {
			b.Fatal(err)
		}
	}
}
