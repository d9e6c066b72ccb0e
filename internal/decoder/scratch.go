package decoder

import (
	"math/bits"
	"sync"

	"passivelight/internal/coding"
	"passivelight/internal/dsp"
)

// passScratch holds the working buffers of one adaptive-threshold
// decode pass. The pass smooths the window up to four times and
// evaluates hundreds of candidate symbol grids; reusing these buffers
// across decodes (and across the grid candidates within one decode)
// removes nearly all of its allocation churn. Slices handed back in
// Result are always freshly allocated — nothing in a returned Result
// aliases scratch memory.
type passScratch struct {
	sm dsp.Smoother
	// ripple is the mains-ripple-suppressed signal; ac its detrended
	// copy used for tone detection.
	ripple, ac []float64
	// smooth and smooth2 are the light and heavy smoothing passes
	// (smooth is also reused for the final tau_t/8 re-smooth).
	smooth, smooth2 []float64
	// syms holds one grid candidate's symbol decisions; eval holds
	// the trailing-trimmed view used to judge Manchester validity.
	syms, eval []coding.Symbol
	// rmq answers window-maximum queries for the grid search in O(1)
	// per window instead of one scan per window per candidate.
	rmq rangeMax
}

var passPool = sync.Pool{New: func() any { return new(passScratch) }}

// rangeMax answers window-maximum queries over a fixed slice from
// per-width tables: levels[k-1][i] holds the maximum of the 2^k-wide
// window starting at i, so the maximum of any [lo, hi) is the max of
// the two (overlapping) power-of-two windows that cover it. Each query
// is O(1); the refineGrid search issues thousands of window queries
// per signal. A level is built only when a query first needs it, in
// O(n) and without the levels below it: within each 2^k-aligned block
// it takes suffix maxima right to left and prefix maxima left to
// right, and a window starting at i is the suffix from i joined with
// the prefix up to i+2^k-1 in the next block (van Herk/Gil-Werman).
// The grid's windows fall into one or two power-of-two classes, so a
// search builds one or two levels. The level slices are reused across
// resets.
//
// Every level holds exactly what doubling (level k from two windows
// of level k-1) would: max(a, b) keeps a unless b > a, so it returns
// the leftmost maximum, and a NaN is kept when it comes first and
// dropped when it comes second. Those rules agree with the block
// decomposition unless a window holds a NaN followed by a number; the
// decoder's smoothing never makes one (a NaN or an Inf-Inf in its
// prefix sums poisons every later window), but an unsmoothed signal
// can, so such windows are evaluated in the doubling order directly.
type rangeMax struct {
	src []float64
	// maxW caps the table: levels are kept for widths below 2*maxW,
	// and wider queries scan directly.
	maxW   int
	levels [][]float64
	// built has bit k set once levels[k-1] holds the current source.
	built uint64
}

// reset points the table at src with no level built yet. Queries
// wider than about 2*maxW (clamped to len(src)) are answered by a
// direct scan instead of from a level: the grid search's windows are
// bounded by its largest candidate step.
func (r *rangeMax) reset(src []float64, maxW int) {
	r.src = src
	r.maxW = min(maxW, len(src))
	r.built = 0
}

// level returns levels[k-1], building it first if needed.
func (r *rangeMax) level(k int) []float64 {
	for len(r.levels) < k {
		r.levels = append(r.levels, nil)
	}
	if r.built&(1<<k) != 0 {
		return r.levels[k-1]
	}
	src, w := r.src, 1<<k
	n := len(src)
	lvl := r.levels[k-1]
	if cap(lvl) < n {
		lvl = make([]float64, n)
	}
	lvl = lvl[:n]
	// Suffix maxima of each block, right to left. A NaN or Inf in the
	// source turns nonFinite into NaN (v*0 is NaN for both).
	var nonFinite float64
	for start := 0; start < n; start += w {
		blk, suf := src[start:min(start+w, n)], lvl[start:min(start+w, n)]
		s := blk[len(blk)-1]
		for i := len(blk) - 1; i >= 0; i-- {
			v := blk[i]
			nonFinite += v * 0
			if !(s > v) {
				s = v
			}
			suf[i] = s
		}
	}
	// Prefix maxima of each block after the first, left to right: the
	// window ending at j joins the suffix from j-w+1 with the prefix
	// up to j. The first window is the first block's suffix alone.
	for start := w; start < n; start += w {
		blk := src[start:min(start+w, n)]
		out := lvl[start-w+1 : start-w+1+len(blk)]
		p := blk[0]
		for j, v := range blk {
			if v > p {
				p = v
			}
			if a := out[j]; p > a {
				out[j] = p
			}
		}
	}
	lvl = lvl[:n-w+1]
	if nonFinite != nonFinite {
		// Windows holding a NaN followed by a number: shadow is the
		// last NaN followed by a number at or before j.
		lastNaN, shadow := -1, -1
		for j, v := range src {
			if v != v {
				lastNaN = j
			} else {
				shadow = lastNaN
			}
			if i := j - w + 1; i >= 0 && shadow > i {
				lvl[i] = r.doubling(i, k)
			}
		}
	}
	r.levels[k-1] = lvl
	r.built |= 1 << k
	return lvl
}

// doubling evaluates the 2^k-wide window at i in the order the
// doubling construction combines it, for windows whose NaNs the block
// decomposition cannot place.
func (r *rangeMax) doubling(i, k int) float64 {
	if k == 0 {
		return r.src[i]
	}
	a, b := r.doubling(i, k-1), r.doubling(i+1<<(k-1), k-1)
	if b > a {
		a = b
	}
	return a
}

// max returns the maximum of src[lo:hi]; hi must be > lo and within
// the source slice.
func (r *rangeMax) max(lo, hi int) float64 {
	w := hi - lo
	if w == 1 {
		return r.src[lo]
	}
	k := bits.Len(uint(w)) - 1 // largest power of two <= w
	if 1<<(k-1) >= r.maxW {
		// Wider than the table serves: direct scan (same result).
		m := r.src[lo]
		for _, v := range r.src[lo+1 : hi] {
			if v > m {
				m = v
			}
		}
		return m
	}
	lvl := r.level(k)
	a, b := lvl[lo], lvl[hi-(1<<k)]
	if b > a {
		a = b
	}
	return a
}
