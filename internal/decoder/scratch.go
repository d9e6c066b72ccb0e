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
	// syms/wm hold one grid candidate's symbol decisions and window
	// maxima; eval holds the trailing-trimmed view used to judge
	// Manchester validity.
	syms []coding.Symbol
	wm   []float64
	eval []coding.Symbol
	// rmq answers window-maximum queries for the grid search in O(1)
	// per window instead of one scan per window per candidate.
	rmq rangeMax
}

var passPool = sync.Pool{New: func() any { return new(passScratch) }}

// rangeMax is a sparse table over a fixed slice: levels[k-1][i] holds
// the maximum of the 2^k-wide window starting at i, so the maximum of
// any [lo, hi) is the max of the two (overlapping) power-of-two
// windows that cover it. Each query is O(1); the refineGrid search
// issues hundreds of window queries per signal. Levels are built
// lazily, each in O(n) the first time a query needs it, so a search
// whose windows stay narrow never pays for the deep levels its widest
// possible candidate would need. The level slices are reused across
// resets.
type rangeMax struct {
	src []float64
	// maxW caps the table: levels are kept for widths below 2*maxW,
	// and wider queries scan directly.
	maxW   int
	levels [][]float64
	built  int
}

// reset points the table at src with no level built yet. Queries
// wider than about 2*maxW (clamped to len(src)) are answered by a
// direct scan instead of growing the table: the grid search's windows
// are bounded by its largest candidate step.
func (r *rangeMax) reset(src []float64, maxW int) {
	r.src = src
	r.maxW = min(maxW, len(src))
	r.built = 0
}

// level returns levels[k-1], building it and any missing level below
// it first.
func (r *rangeMax) level(k int) []float64 {
	for ; r.built < k; r.built++ {
		prev := r.src
		if r.built > 0 {
			prev = r.levels[r.built-1]
		}
		half := 1 << r.built
		m := len(r.src) - 2*half + 1
		if r.built == len(r.levels) {
			r.levels = append(r.levels, nil)
		}
		if cap(r.levels[r.built]) < m {
			r.levels[r.built] = make([]float64, m)
		}
		lvl := r.levels[r.built][:m]
		lo, hi := prev[:m], prev[half:half+m]
		for i := range lvl {
			a, b := lo[i], hi[i]
			if b > a {
				a = b
			}
			lvl[i] = a
		}
		r.levels[r.built] = lvl
	}
	return r.levels[k-1]
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
