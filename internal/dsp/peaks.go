package dsp

import (
	"math"
	"sync"
)

// Peak describes a local extremum found by FindPeaks/FindValleys.
type Peak struct {
	Index      int     // sample index of the extremum
	Value      float64 // signal value at the extremum
	Prominence float64 // height above the higher of the two flanking minima
}

// PeakOptions tunes peak detection.
type PeakOptions struct {
	// MinProminence discards peaks whose prominence is below this
	// value. Zero keeps everything.
	MinProminence float64
	// MinDistance suppresses peaks within this many samples of an
	// already-accepted higher peak.
	MinDistance int
	// MinValue discards peaks whose value is below this threshold.
	MinValue float64
}

// FindPeaks locates local maxima of x, handling flat tops by placing
// the peak at the center of the plateau. Results are ordered by index.
func FindPeaks(x []float64, opt PeakOptions) []Peak {
	n := len(x)
	if n < 3 {
		return nil
	}
	var raw []Peak
	i := 1
	for i < n-1 {
		if x[i] > x[i-1] {
			// Walk across a potential plateau.
			j := i
			for j < n-1 && x[j+1] == x[j] {
				j++
			}
			if j < n-1 && x[j+1] < x[j] {
				mid := (i + j) / 2
				raw = append(raw, Peak{Index: mid, Value: x[mid]})
				i = j + 1
				continue
			}
			i = j + 1
			continue
		}
		i++
	}
	// Per-peak walks cost the sum of the walk lengths: cheap on noisy
	// signals (the next higher sample is a few steps away) but
	// quadratic on slowly-modulated ones where many peaks are
	// near-global and walk far. The batch sweep costs two bounded
	// passes whatever the structure. Since both produce identical
	// values (TestProminencesMatchWalk), walk with a work budget of
	// one batch sweep and fall back to the sweep when the walks blow
	// it — near-optimal on both signal classes, O(len(x)) worst case.
	budget := 2 * len(x)
	for k := range raw {
		p, work := prominenceWalk(x, raw[k].Index)
		if budget -= work; budget < 0 {
			prominences(x, raw)
			break
		}
		raw[k].Prominence = p
	}
	return filterPeaks(raw, opt)
}

// promEntry is one monotonic-stack element of the prominence sweep:
// a sample value and the minimum over the gap back to the previous
// (strictly higher) stack element.
type promEntry struct {
	val, gapMin float64
}

// promScratch pools the sweep's stack and per-peak buffer; the stack
// can grow to len(x) on monotone runs, which made per-call allocation
// the dominant cost. saddles holds PreambleExtrema's per-polarity
// stacks of tested candidates.
type promScratch struct {
	stack   []promEntry
	left    []float64
	saddles [2][]saddleEntry
}

var promPool = sync.Pool{New: func() any { return new(promScratch) }}

// prominences fills the Prominence of every peak in one forward and
// one backward sweep, O(len(x)) total instead of one O(len(x)) walk
// per peak. A monotonic stack tracks, for each position, the previous
// strictly-higher sample and the minimum over the gap since it —
// exactly the saddle the per-peak walk in prominence finds — so the
// results are identical (locked down by TestProminencesMatchWalk).
// peaks must be ordered by ascending Index.
func prominences(x []float64, peaks []Peak) {
	if len(peaks) == 0 {
		return
	}
	sc := promPool.Get().(*promScratch)
	defer promPool.Put(sc)
	if cap(sc.stack) < len(x) {
		sc.stack = make([]promEntry, len(x))
	}
	if cap(sc.left) < len(peaks) {
		sc.left = make([]float64, len(peaks))
	}
	stack, left := sc.stack[:0], sc.left[:len(peaks)]
	inf := math.Inf(1)
	// Forward sweep: saddle minima toward the previous higher sample.
	pi := 0
	for i, v := range x {
		m := inf
		for len(stack) > 0 && stack[len(stack)-1].val <= v {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if e.gapMin < m {
				m = e.gapMin
			}
			if e.val < m {
				m = e.val
			}
		}
		if pi < len(peaks) && peaks[pi].Index == i {
			lm := v
			if m < lm {
				lm = m
			}
			left[pi] = lm
			pi++
		}
		stack = append(stack, promEntry{val: v, gapMin: m})
	}
	// Backward sweep: saddle minima toward the next higher sample.
	stack = stack[:0]
	pi = len(peaks) - 1
	for i := len(x) - 1; i >= 0; i-- {
		v := x[i]
		m := inf
		for len(stack) > 0 && stack[len(stack)-1].val <= v {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if e.gapMin < m {
				m = e.gapMin
			}
			if e.val < m {
				m = e.val
			}
		}
		if pi >= 0 && peaks[pi].Index == i {
			rm := v
			if m < rm {
				rm = m
			}
			saddle := left[pi]
			if rm > saddle {
				saddle = rm
			}
			peaks[pi].Prominence = v - saddle
			pi--
		}
		stack = append(stack, promEntry{val: v, gapMin: m})
	}
	sc.stack = stack[:0]
}

// saddleEntry records one PreambleExtrema candidate's left saddle
// walk, so later walks can jump across its span instead of re-walking
// it.
type saddleEntry struct {
	mid int     // the candidate's index
	h   float64 // its height, in the polarity's sign
	m   float64 // the minimum the walk saw, h included
	// stop is where the walk ended: the first higher sample, -1 at
	// the signal's start, or where it met a drop of minProm (the
	// walk's span is then incomplete, but a walk that reaches it
	// passes anyway).
	stop int
}

// PreambleExtrema finds the paper's A/B/C anchors: the first local
// maximum of x with prominence >= minProm, the first such minimum
// after it, and the next such maximum after that. It selects exactly
// what
//
//	peaks := FindPeaks(x, PeakOptions{MinProminence: minProm})
//	valleys := FindValleys(x, PeakOptions{MinProminence: minProm})
//	a, b, c := peaks[0], first valley after a, first peak after b
//
// would (same indices and values, locked down by
// TestPreambleExtremaMatchesLists and TestPreambleExtremaMatchesWalk)
// in one forward pass that stops at C. prominence = min(h-leftMin,
// h-rightMin), so each candidate's threshold test splits into
// independent per-side tests, and since float subtraction is
// monotone, a saddle walk can stop as soon as h-min >= minProm.
//
//   - Left: a stack per polarity records every tested candidate's
//     walk. A walk that reaches the previous candidate either stops
//     there (it is higher) or jumps to where that walk ended, taking
//     its minimum; if that walk had met the drop, so does this one.
//     Jumped entries are popped, so each sample is walked once per
//     polarity, however many tied candidates an ADC-quantized plateau
//     holds.
//   - Right: only a candidate that passes the left test walks right.
//     A candidate inside the span of the last failed right walk, and
//     no higher than its extremum, fails without walking: its own
//     walk would end no later and find no lower minimum. Failed right
//     walks therefore never overlap.
//
// The scan is linear in len(x). Valleys run on the negated samples
// (negation and its subtractions are exact in floats, so this matches
// the mirrored comparisons bit for bit — the same identity
// FindValleys relies on). NaN samples are transparent, as in a saddle
// walk: they neither end a walk nor lower its minimum. The Prominence
// field of the returned anchors is not filled in.
func PreambleExtrema(x []float64, minProm float64) (a, b, c Peak, ok bool) {
	n := len(x)
	if n < 3 {
		return Peak{}, Peak{}, Peak{}, false
	}
	sc := promPool.Get().(*promScratch)
	defer promPool.Put(sc)
	stacks := [2][]saddleEntry{sc.saddles[0][:0], sc.saddles[1][:0]}
	defer func() { sc.saddles = [2][]saddleEntry{stacks[0][:0], stacks[1][:0]} }()
	// leftOK walks left from the candidate at mid (height h in sign's
	// polarity) and records the walk on that polarity's stack.
	leftOK := func(pol int, sign float64, mid int, h float64) bool {
		st := stacks[pol]
		e := saddleEntry{mid: mid, h: h, m: h, stop: -1}
		for k := mid - 1; k >= 0; {
			if top := len(st) - 1; top >= 0 && st[top].mid == k {
				prev := st[top]
				if prev.h > h {
					e.stop = k
					break
				}
				st = st[:top]
				if prev.m < e.m {
					e.m = prev.m
				}
				if h-e.m >= minProm {
					e.stop = k
					break
				}
				k = prev.stop
				continue
			}
			v := sign * x[k]
			if v > h {
				e.stop = k
				break
			}
			if v < e.m {
				if e.m = v; h-e.m >= minProm {
					e.stop = k
					break
				}
			}
			k--
		}
		stacks[pol] = append(st, e)
		return h-e.m >= minProm
	}
	// find returns the first extremum of polarity pol after index
	// after that passes both tests, resuming the run scan at i.
	i := 1
	find := func(pol, after int) (Peak, bool) {
		sign := 1.0
		if pol == 1 {
			sign = -1
		}
		failH, failEnd := 0.0, -1 // the last failed right walk
		for i < n-1 {
			// Runs of equal samples: [i, j] opens with a strict step
			// in this polarity's direction and closes with one back.
			if !(sign*x[i] > sign*x[i-1]) {
				i++
				continue
			}
			j := i
			for j < n-1 && x[j+1] == x[j] {
				j++
			}
			mid := (i + j) / 2
			i = j + 1
			h := sign * x[mid]
			if j == n-1 || !(sign*x[j+1] < h) || mid <= after {
				continue
			}
			if minProm <= 0 {
				return Peak{Index: mid, Value: x[mid]}, true
			}
			if (mid < failEnd && h <= failH) || !leftOK(pol, sign, mid, h) {
				continue
			}
			m, r := h, mid+1
			for ; r < n; r++ {
				v := sign * x[r]
				if v > h {
					break
				}
				if v < m {
					if m = v; h-m >= minProm {
						break
					}
				}
			}
			if h-m >= minProm {
				return Peak{Index: mid, Value: x[mid]}, true
			}
			failH, failEnd = h, r
		}
		return Peak{}, false
	}
	if a, ok = find(0, -1); ok {
		if b, ok = find(1, a.Index); ok {
			c, ok = find(0, b.Index)
		}
	}
	return a, b, c, ok
}

var negPool = sync.Pool{New: func() any { return new([]float64) }}

// FindValleys locates local minima of x by negating the signal (into
// a pooled buffer — valley scans run once per decode attempt on
// segment-sized arrays).
func FindValleys(x []float64, opt PeakOptions) []Peak {
	negP := negPool.Get().(*[]float64)
	defer negPool.Put(negP)
	if cap(*negP) < len(x) {
		*negP = make([]float64, len(x))
	}
	neg := (*negP)[:len(x)]
	for i, v := range x {
		neg[i] = -v
	}
	peaks := FindPeaks(neg, PeakOptions{MinProminence: opt.MinProminence, MinDistance: opt.MinDistance})
	out := peaks[:0]
	for _, p := range peaks {
		p.Value = -p.Value
		if opt.MinValue != 0 && p.Value > opt.MinValue {
			continue
		}
		out = append(out, p)
	}
	return out
}

// prominence computes the classical topographic prominence of the peak
// at index idx: its height above the higher of the two key saddles
// found walking left and right until a higher peak (or the signal
// edge) is reached.
func prominence(x []float64, idx int) float64 {
	p, _ := prominenceWalk(x, idx)
	return p
}

// prominenceWalk is prominence plus the number of samples the two
// walks visited, so FindPeaks can budget walk work against the batch
// sweep.
func prominenceWalk(x []float64, idx int) (float64, int) {
	h := x[idx]
	work := 0
	// Left saddle.
	leftMin := h
	for i := idx - 1; i >= 0; i-- {
		work++
		if x[i] > h {
			break
		}
		if x[i] < leftMin {
			leftMin = x[i]
		}
	}
	// Right saddle.
	rightMin := h
	for i := idx + 1; i < len(x); i++ {
		work++
		if x[i] > h {
			break
		}
		if x[i] < rightMin {
			rightMin = x[i]
		}
	}
	saddle := leftMin
	if rightMin > saddle {
		saddle = rightMin
	}
	return h - saddle, work
}

func filterPeaks(raw []Peak, opt PeakOptions) []Peak {
	var kept []Peak
	for _, p := range raw {
		if opt.MinProminence > 0 && p.Prominence < opt.MinProminence {
			continue
		}
		if opt.MinValue != 0 && p.Value < opt.MinValue {
			continue
		}
		kept = append(kept, p)
	}
	if opt.MinDistance <= 0 || len(kept) < 2 {
		return kept
	}
	// Greedy suppression: prefer higher peaks.
	order := make([]int, len(kept))
	for i := range order {
		order[i] = i
	}
	// Insertion sort by value descending (lists are short).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && kept[order[j]].Value > kept[order[j-1]].Value; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	suppressed := make([]bool, len(kept))
	for _, i := range order {
		if suppressed[i] {
			continue
		}
		for j := range kept {
			if j == i || suppressed[j] {
				continue
			}
			if abs(kept[j].Index-kept[i].Index) < opt.MinDistance {
				suppressed[j] = true
			}
		}
	}
	var out []Peak
	for i, p := range kept {
		if !suppressed[i] {
			out = append(out, p)
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
