package dsp

import (
	"errors"
	"math"
	"sync"
)

// DTWOptions configures a Dynamic Time Warping computation.
type DTWOptions struct {
	// Window is the Sakoe-Chiba band half-width in samples. Zero or
	// negative means an unconstrained (full) alignment. A positive
	// window makes the computation O(len(a)*Window) instead of
	// O(len(a)*len(b)): only cells inside the band are touched.
	Window int
}

// dtwRows pools the two DP rows so repeated classifications do not
// allocate.
var dtwRows = sync.Pool{New: func() any { return new([]float64) }}

func dtwRow(m int) *[]float64 {
	rp := dtwRows.Get().(*[]float64)
	if cap(*rp) < m {
		*rp = make([]float64, m)
	}
	*rp = (*rp)[:m]
	return rp
}

// DTWWith computes the Dynamic Time Warping distance between a and b
// under the local distance |a[i]-b[j]|: the similarity measure the
// paper uses to classify variable-speed distorted packets against
// clean baselines (Sec. 4.2). It uses a two-row dynamic program with
// pooled scratch: O(len(b)) space, and time proportional to the band
// area (full matrix when unconstrained). Only band cells are written
// per row — the cells just outside the band carry +Inf sentinels,
// which is exactly what the full-row initialization produced, so
// banded results are unchanged while narrow bands run in
// O(len(a)*Window).
func DTWWith(a, b []float64, opt DTWOptions) (float64, error) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, ErrEmptyInput
	}
	w := opt.Window
	if w > 0 {
		// The band must be at least |n-m| wide for a path to exist.
		if d := n - m; d < 0 {
			if w < -d {
				w = -d
			}
		} else if w < d {
			w = d
		}
	}
	inf := math.Inf(1)
	prevP, curP := dtwRow(m+1), dtwRow(m+1)
	defer dtwRows.Put(prevP)
	defer dtwRows.Put(curP)
	prev, cur := *prevP, *curP
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	cur[0] = inf
	for i := 1; i <= n; i++ {
		lo, hi := 1, m
		if w > 0 {
			lo = max(1, i-w)
			hi = min(m, i+w)
		}
		// Sentinels flanking the band: row i+1 reads prev indices
		// down to lo(i+1)-1 >= lo-1 and up to hi(i+1) <= hi+1, and
		// the in-row deletion reads cur[lo-1].
		cur[lo-1] = inf
		if hi < m {
			cur[hi+1] = inf
		}
		ai := a[i-1]
		for j := lo; j <= hi; j++ {
			d := ai - b[j-1]
			if d < 0 {
				d = -d
			}
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			cur[j] = d + best
		}
		prev, cur = cur, prev
	}
	if math.IsInf(prev[m], 1) {
		return 0, errors.New("dsp: DTW window too narrow for any path")
	}
	return prev[m], nil
}

// EuclideanDistance is the point-wise L2 distance between equal-length
// prefixes of a and b (the shorter length is used, mimicking a naive
// classifier that ignores time warping). It serves as the ablation
// baseline against DTW.
func EuclideanDistance(a, b []float64) float64 {
	n := min(len(a), len(b))
	var sum float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
