// Package dsp implements the signal-processing primitives the passive
// visible-light receiver needs: power spectra (collision analysis,
// Sec. 4.3 of the paper), Dynamic Time Warping (variable speed
// classification, Sec. 4.2), moving-average smoothing, peak detection
// (preamble A/B/C points, Sec. 4.1), Goertzel tone bins and basic
// statistics and curve fits.
//
// Everything is implemented from scratch on the standard library.
package dsp

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
)

// ErrEmptyInput is returned by transforms that require at least one
// sample.
var ErrEmptyInput = errors.New("dsp: empty input")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPowerOfTwo returns the smallest power of two >= n (and >= 1).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Spectrum holds a one-sided power spectrum.
type Spectrum struct {
	Freqs []float64 // Hz, bin centers from 0 to fs/2
	Power []float64 // |X(f)| magnitude per bin
}

// PowerSpectrum computes the one-sided magnitude spectrum of a real
// signal sampled at fs Hz. The mean is removed first (the passive
// channel rides on a large DC ambient level which would otherwise
// dominate every bin). A window function may be nil for rectangular.
// Internally it runs a real-input transform — one complex FFT of half
// the padded size plus an O(n) unpack — through the cached plan,
// halving the work of the naive complex transform.
func PowerSpectrum(samples []float64, fs float64, window func(n, i int) float64) (Spectrum, error) {
	n := len(samples)
	if n == 0 {
		return Spectrum{}, ErrEmptyInput
	}
	if fs <= 0 {
		return Spectrum{}, errors.New("dsp: sample rate must be positive")
	}
	mean := Mean(samples)
	re := make([]float64, n)
	for i, s := range samples {
		w := 1.0
		if window != nil {
			w = window(n, i)
		}
		re[i] = (s - mean) * w
	}
	m := NextPowerOfTwo(n)
	half := m/2 + 1
	sp := Spectrum{
		Freqs: make([]float64, half),
		Power: make([]float64, half),
	}
	if m < 2 {
		sp.Power[0] = math.Abs(re[0])
		return sp, nil
	}
	p, err := PlanFFT(m)
	if err != nil {
		return Spectrum{}, err
	}
	bins := make([]complex128, half)
	if err := p.RealHalfSpectrum(re, bins); err != nil {
		return Spectrum{}, err
	}
	for k := 0; k < half; k++ {
		sp.Freqs[k] = float64(k) * fs / float64(m)
		sp.Power[k] = cmplx.Abs(bins[k])
	}
	return sp, nil
}

// SpectralPeak is a local maximum in a power spectrum.
type SpectralPeak struct {
	Freq  float64
	Power float64
}

// DominantPeaks returns the strongest local maxima of the spectrum
// above minFreq, sorted by descending power, at most max entries.
// Peaks closer than minSeparation Hz to a stronger peak are suppressed
// (they are skirts of the same tone).
func (s Spectrum) DominantPeaks(minFreq, minSeparation float64, max int) []SpectralPeak {
	var candidates []SpectralPeak
	for k := 1; k < len(s.Power)-1; k++ {
		if s.Freqs[k] < minFreq {
			continue
		}
		if s.Power[k] >= s.Power[k-1] && s.Power[k] > s.Power[k+1] {
			candidates = append(candidates, SpectralPeak{Freq: s.Freqs[k], Power: s.Power[k]})
		}
	}
	// Selection sort by power: candidate lists are tiny.
	for i := 0; i < len(candidates); i++ {
		best := i
		for j := i + 1; j < len(candidates); j++ {
			if candidates[j].Power > candidates[best].Power {
				best = j
			}
		}
		candidates[i], candidates[best] = candidates[best], candidates[i]
	}
	var out []SpectralPeak
	for _, c := range candidates {
		tooClose := false
		for _, p := range out {
			if math.Abs(p.Freq-c.Freq) < minSeparation {
				tooClose = true
				break
			}
		}
		if !tooClose {
			out = append(out, c)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// Goertzel evaluates the magnitude of a single DFT bin at frequency f
// for a signal sampled at fs. It is the cheap way to test for one
// known tone (e.g. the 100 Hz fluorescent ripple) without a full FFT.
// It is the one-bin case of GoertzelBins.
func Goertzel(samples []float64, fs, f float64) float64 {
	var mag [1]float64
	GoertzelBins(samples, fs, []float64{f}, mag[:])
	return mag[0]
}

// maxGoertzelBins bounds the bins GoertzelBins runs per pass, so the
// filter states live in fixed arrays on the stack.
const maxGoertzelBins = 8

// GoertzelBins writes the Goertzel magnitude of each frequency in
// freqs into mags (len(mags) >= len(freqs)). The bins share one
// interleaved pass over the samples, groups of up to maxGoertzelBins at
// a time: each bin's recurrence is a serial dependency chain, so
// running several side by side overlaps their latencies instead of
// paying one memory pass and one chain per bin. Every bin runs the same
// per-sample arithmetic as a lone bin, so each magnitude is
// bit-identical to Goertzel at that frequency.
func GoertzelBins(samples []float64, fs float64, freqs, mags []float64) {
	if len(samples) == 0 || fs <= 0 {
		clear(mags[:len(freqs)])
		return
	}
	for len(freqs) > 0 {
		k := min(len(freqs), maxGoertzelBins)
		var w, coeff, s1, s2 [maxGoertzelBins]float64
		for b, f := range freqs[:k] {
			w[b] = 2 * math.Pi * f / fs
			coeff[b] = 2 * math.Cos(w[b])
		}
		for _, x := range samples {
			for b := 0; b < k; b++ {
				s0 := x + coeff[b]*s1[b] - s2[b]
				s2[b] = s1[b]
				s1[b] = s0
			}
		}
		for b := 0; b < k; b++ {
			re := s1[b] - s2[b]*math.Cos(w[b])
			im := s2[b] * math.Sin(w[b])
			mags[b] = math.Hypot(re, im)
		}
		freqs, mags = freqs[k:], mags[k:]
	}
}
