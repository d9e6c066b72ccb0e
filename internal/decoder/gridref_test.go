package decoder

import (
	"fmt"
	"math"
	"math/bits"

	"passivelight/internal/coding"
)

// This file keeps the timing search as it was before branch and
// bound: the exhaustive refineGrid, the sliceGridInto it evaluated
// every candidate with, and the sparse table that built a level by
// doubling the one below it. They are the reference models the
// bounded search and the one-level window maxima must reproduce bit
// for bit.

// doublingMax is a sparse table over a fixed slice: levels[k-1][i] holds
// the maximum of the 2^k-wide window starting at i, so the maximum of
// any [lo, hi) is the max of the two (overlapping) power-of-two
// windows that cover it. Each query is O(1); the refineGrid search
// issues hundreds of window queries per signal. Levels are built
// lazily, each in O(n) the first time a query needs it, so a search
// whose windows stay narrow never pays for the deep levels its widest
// possible candidate would need. The level slices are reused across
// resets.
type doublingMax struct {
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
func (r *doublingMax) reset(src []float64, maxW int) {
	r.src = src
	r.maxW = min(maxW, len(src))
	r.built = 0
}

// level returns levels[k-1], building it and any missing level below
// it first.
func (r *doublingMax) level(k int) []float64 {
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
func (r *doublingMax) max(lo, hi int) float64 {
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

// sliceGridRef is sliceGrid appending into caller-provided buffers
// (reset to length zero first), pre-sized to the expected symbol
// count so the timing search's hundreds of candidate grids do not
// each regrow their slices. A non-nil rmq (a sparse table built over
// smooth) answers each window maximum in O(1) instead of one scan
// per window; the result is the scan's unless a window holds a NaN
// followed by a number.
func sliceGridRef(smooth []float64, rmq *doublingMax, anchor, step, frac, decision float64, maxSymbols int, symbols []coding.Symbol, windowMax []float64) ([]coding.Symbol, []float64) {
	want := maxSymbols
	if want <= 0 && step > 0 {
		want = int(float64(len(smooth))/step) + 2
	}
	if want > 0 && cap(symbols) < want {
		symbols = make([]coding.Symbol, 0, want)
		windowMax = make([]float64, 0, want)
	} else {
		symbols, windowMax = symbols[:0], windowMax[:0]
	}
	half := step * frac / 2
	for k := 0; ; k++ {
		if maxSymbols > 0 && k == maxSymbols {
			break
		}
		center := anchor + float64(k)*step
		lo := int(center - half)
		hi := int(center + half)
		if lo < 0 {
			lo = 0
		}
		if hi > len(smooth) {
			hi = len(smooth)
		}
		if lo >= len(smooth) || hi-lo < 1 {
			break
		}
		var maxV float64
		if rmq != nil {
			maxV = rmq.max(lo, hi)
		} else {
			maxV = smooth[lo]
			for _, v := range smooth[lo+1 : hi] {
				if v > maxV {
					maxV = v
				}
			}
		}
		windowMax = append(windowMax, maxV)
		if maxV > decision {
			symbols = append(symbols, coding.High)
		} else {
			symbols = append(symbols, coding.Low)
		}
	}
	return symbols, windowMax
}

// refineGridExhaustive searches step in [0.8, 1.2]*tauSamples and
// phase in +-0.5*tauSamples around anchor A for the symbol grid with
// the best decision margins, preferring grids whose first four symbols
// decode to the HLHL preamble. Every candidate is sliced in full.
// rounds has bit 0, 1 and 2 set for the first search, the
// re-acquisition round and the coarse sweep that ran.
func refineGridExhaustive(smooth []float64, aIndex int, tauSamples, decision float64, opt Options) (symbols []coding.Symbol, windowMax []float64, bestStep, bestAnchor float64, rounds int) {
	sc := new(struct {
		syms, eval []coding.Symbol
		wm         []float64
	})
	rmq := new(doublingMax)
	const stepSteps, phaseSteps = 17, 17
	// Candidates are ranked entirely by scalar figures of merit, so
	// the search evaluates every grid into the shared scratch buffers
	// and only the winning (step, anchor) pair is re-sliced into
	// fresh memory at the end.
	type cand struct {
		score     float64 // mean decision margin
		minMargin float64 // worst-case window margin (eye opening)
		preamble  bool
		parses    bool
		step      float64
		anchor    float64
	}
	best := cand{score: -1}
	// One sparse table answers every candidate grid's window maxima in
	// O(1) per window; the searches below evaluate hundreds of grids
	// over the same signal. Window widths are bounded by the widest
	// candidate step (the coarse round sweeps up to 1.45x tau, the
	// re-acquisition rescales around the edge clock), so the table
	// stops at that depth; anything wider scans directly. Levels are
	// built as the searches first reach them.
	maxW := int(tauSamples*3*opt.WindowFraction) + 4
	rmq.reset(smooth, maxW)
	// edgeClock, when non-zero, is the crossing-derived symbol
	// duration used by the re-acquisition rounds to rank parsing
	// candidates (set before round 2 runs, so round 1 keeps the
	// original margin ranking).
	var edgeClock float64
	search := func(stepLo, stepHi float64, stepSteps int) {
		for si := 0; si < stepSteps; si++ {
			step := tauSamples * (stepLo + (stepHi-stepLo)*float64(si)/float64(stepSteps-1))
			for pi := 0; pi < phaseSteps; pi++ {
				anchor := float64(aIndex) + step*(-0.5+float64(pi)/float64(phaseSteps-1))
				sc.syms, sc.wm = sliceGridRef(smooth, rmq, anchor, step, opt.WindowFraction, decision, opt.ExpectedSymbols, sc.syms, sc.wm)
				syms, wm := sc.syms, sc.wm
				if len(syms) < coding.PreambleLen {
					continue
				}
				pre := syms[0] == coding.High && syms[1] == coding.Low &&
					syms[2] == coding.High && syms[3] == coding.Low
				// In auto mode the stream runs to the end of the trace,
				// so parseability is judged the way Decode judges it
				// downstream: with trailing LOW windows trimmed and the
				// stream padded back to even length.
				evalSyms := syms
				if opt.ExpectedSymbols == 0 {
					end := len(syms)
					for end > 0 && syms[end-1] == coding.Low {
						end--
					}
					evalSyms = syms[:end]
					if end%2 == 1 {
						sc.eval = append(sc.eval[:0], syms[:end]...)
						sc.eval = append(sc.eval, coding.Low)
						evalSyms = sc.eval
					}
				}
				valid := coding.ValidPacket(evalSyms)
				var margin, minMargin float64
				for i, v := range wm {
					d := v - decision
					if d < 0 {
						d = -d
					}
					margin += d
					if i == 0 || d < minMargin {
						minMargin = d
					}
				}
				margin /= float64(len(wm))
				c := cand{
					score: margin, minMargin: minMargin,
					preamble: pre, parses: pre && valid,
					step: step, anchor: anchor,
				}
				// Rank: full Manchester validity > preamble validity >
				// decision margin. A half-symbol phase shift can still
				// read HLHL at the front, but its data pairs degenerate
				// to HH/LL, which Manchester forbids. Between two
				// parsing candidates the mean margin cannot be
				// trusted: a slightly-off clock can read a spurious
				// Manchester-valid stream whose windows all sit on
				// plateaus. The crossing-derived clock (set during
				// re-acquisition) is the strongest referee, then the
				// worst-case window margin — a drifting grid always
				// has at least one badly-placed window, the true clock
				// does not.
				better := false
				switch {
				case c.parses != best.parses:
					better = c.parses
				case c.parses && edgeClock > 0:
					better = math.Abs(c.step-edgeClock) < math.Abs(best.step-edgeClock)
				case c.parses:
					better = c.minMargin > best.minMargin
				case c.preamble != best.preamble:
					better = c.preamble
				default:
					better = c.score > best.score
				}
				if better {
					best = c
				}
			}
		}
	}
	search(0.8, 1.2, stepSteps)
	rounds = 1
	// Re-acquisition. On noisy flat-topped plateaus the A/B/C extrema
	// can sit anywhere on their plateau, so the tau_t estimate can be
	// off by well over the nominal +-20% — the search then either
	// finds no Manchester-valid grid at all, or locks onto an aliased
	// clock that happens to read valid pairs. Round 2 re-derives the
	// symbol clock from decision-level crossings: the shortest
	// significant run between edges is one symbol long in a
	// Manchester stream, and unlike the extrema it cannot alias to a
	// multiple of the true clock. It runs when round 1 parsed nothing
	// or when round 1's winner disagrees with the edge clock; a
	// winner that agrees (every cleanly decodable trace) is returned
	// untouched, so batch results are unchanged.
	edgeClock = edgeTauSamples(smooth, decision, tauSamples)
	reacquire := !best.parses
	if !reacquire && edgeClock > 0 {
		if r := best.step / edgeClock; r < 0.8 || r > 1.25 {
			reacquire = true
		}
	}
	if reacquire && edgeClock > 0 {
		f := edgeClock / tauSamples
		search(0.8*f, 1.2*f, stepSteps)
		rounds |= 2
	}
	if !best.parses {
		// Round 3: coarse sweep as a last resort.
		search(0.6, 1.45, 2*stepSteps)
		rounds |= 4
	}
	if best.score < 0 {
		// Fall back to the unrefined grid.
		syms, wm := sliceGridRef(smooth, nil, float64(aIndex), tauSamples, opt.WindowFraction, decision, opt.ExpectedSymbols, nil, nil)
		return syms, wm, tauSamples, float64(aIndex), rounds
	}
	// Re-slice the winner into fresh memory (sliceGrid is
	// deterministic, so this reproduces the ranked candidate exactly).
	syms, wm := sliceGridRef(smooth, nil, best.anchor, best.step, opt.WindowFraction, decision, opt.ExpectedSymbols, nil, nil)
	return syms, wm, best.step, best.anchor, rounds
}

// compareGridSearch runs refineGrid and refineGridExhaustive on the
// same input and describes the first difference between their
// (symbols, windowMax, step, anchor), compared bit for bit; empty when
// they agree.
func compareGridSearch(smooth []float64, aIndex int, tauSamples, decision float64, opt Options, sc *passScratch) (rounds int, mismatch string) {
	wantSyms, wantWM, wantStep, wantAnchor, rounds := refineGridExhaustive(smooth, aIndex, tauSamples, decision, opt)
	gotSyms, gotWM, gotStep, gotAnchor := refineGrid(smooth, aIndex, tauSamples, decision, opt, sc)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !same(gotStep, wantStep) || !same(gotAnchor, wantAnchor):
		return rounds, fmt.Sprintf("grid (step %v, anchor %v), exhaustive (step %v, anchor %v)", gotStep, gotAnchor, wantStep, wantAnchor)
	case len(gotSyms) != len(wantSyms) || len(gotWM) != len(wantWM):
		return rounds, fmt.Sprintf("%d symbols and %d maxima, exhaustive %d and %d", len(gotSyms), len(gotWM), len(wantSyms), len(wantWM))
	}
	for i := range wantSyms {
		if gotSyms[i] != wantSyms[i] || !same(gotWM[i], wantWM[i]) {
			return rounds, fmt.Sprintf("window %d: %v (max %v), exhaustive %v (max %v)", i, gotSyms[i], gotWM[i], wantSyms[i], wantWM[i])
		}
	}
	return rounds, ""
}
