package dsp

import (
	"math"
)

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Variance returns the population variance of x.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var sum float64
	for _, v := range x {
		d := v - m
		sum += d * d
	}
	return sum / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// RMS returns the root-mean-square of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(x)))
}

// MinMax returns the minimum and maximum of x. Empty input yields
// (0, 0).
func MinMax(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		return 0, 0
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// NormalizeMinMax scales x into [0, 1]. A constant signal maps to all
// zeros. This matches the "Normalized RSS" axis of the paper's
// figures.
func NormalizeMinMax(x []float64) []float64 {
	out := make([]float64, len(x))
	lo, hi := MinMax(x)
	if hi == lo {
		return out
	}
	inv := 1 / (hi - lo)
	for i, v := range x {
		out[i] = (v - lo) * inv
	}
	return out
}

// ResampleLinear resamples x from its implicit uniform grid to a new
// length using linear interpolation. newLen <= 0 returns nil; length-1
// inputs are extended by repetition.
func ResampleLinear(x []float64, newLen int) []float64 {
	if newLen <= 0 || len(x) == 0 {
		return nil
	}
	out := make([]float64, newLen)
	if len(x) == 1 {
		for i := range out {
			out[i] = x[0]
		}
		return out
	}
	if newLen == 1 {
		out[0] = x[0]
		return out
	}
	scale := float64(len(x)-1) / float64(newLen-1)
	for i := range out {
		pos := float64(i) * scale
		lo := int(pos)
		if lo >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = x[lo]*(1-frac) + x[lo+1]*frac
	}
	return out
}

// HannWindow is a window function for PowerSpectrum.
func HannWindow(n, i int) float64 {
	if n <= 1 {
		return 1
	}
	return 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
}

// LinearFit fits y = a + b*x by least squares and returns (a, b).
// Degenerate inputs return (0, 0).
func LinearFit(x, y []float64) (a, b float64) {
	n := min(len(x), len(y))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return sy / fn, 0
	}
	b = (fn*sxy - sx*sy) / den
	a = (sy - b*sx) / fn
	return a, b
}

// ExpFit fits y = A*exp(b*x) by linear regression on log(y); points
// with y <= 0 are skipped. Returns (A, b). Fewer than two usable
// points return (0, 0).
func ExpFit(x, y []float64) (A, b float64) {
	var xs, ys []float64
	for i := 0; i < min(len(x), len(y)); i++ {
		if y[i] > 0 {
			xs = append(xs, x[i])
			ys = append(ys, math.Log(y[i]))
		}
	}
	if len(xs) < 2 {
		return 0, 0
	}
	la, lb := LinearFit(xs, ys)
	return math.Exp(la), lb
}

// RSquared returns the coefficient of determination of predictions
// yhat against observations y.
func RSquared(y, yhat []float64) float64 {
	n := min(len(y), len(yhat))
	if n == 0 {
		return 0
	}
	m := Mean(y[:n])
	var ssRes, ssTot float64
	for i := 0; i < n; i++ {
		d := y[i] - yhat[i]
		ssRes += d * d
		t := y[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}
