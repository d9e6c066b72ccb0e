package dsp

import "math"

// This file is the exact-prominence reference model the linear
// threshold scan (ProminentExtrema, PreambleExtrema) is checked
// against: enumerate every raw extremum, compute its classical
// topographic prominence, then filter. It is exported so external
// tests can drive the old list-based car-shape detector with it.

// RefPeak is a reference extremum together with its exact prominence.
type RefPeak struct {
	Peak
	Prominence float64 // height above the higher of the two flanking minima
}

// PeakOptions tunes the reference peak detection.
type PeakOptions struct {
	// MinProminence discards peaks whose prominence is below this
	// value. Zero (or NaN, or a negative value) keeps everything.
	MinProminence float64
	// MinDistance suppresses peaks within this many samples of an
	// already-accepted higher peak.
	MinDistance int
	// MinValue discards peaks whose value is below this threshold.
	MinValue float64
}

// FindPeaks locates local maxima of x, handling flat tops by placing
// the peak at the center of the plateau. Results are ordered by index.
func FindPeaks(x []float64, opt PeakOptions) []RefPeak {
	n := len(x)
	if n < 3 {
		return nil
	}
	var raw []RefPeak
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
				raw = append(raw, RefPeak{Peak: Peak{Index: mid, Value: x[mid]}})
			}
			i = j + 1
			continue
		}
		i++
	}
	// Per-peak walks are cheap on noisy signals but quadratic on
	// slowly-modulated ones; walk with a budget of one batch sweep and
	// fall back to the sweep when the walks blow it. Both produce
	// identical values (TestProminencesMatchWalk).
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

// FindValleys locates local minima of x by negating the signal.
func FindValleys(x []float64, opt PeakOptions) []RefPeak {
	neg := make([]float64, len(x))
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

// promEntry is one monotonic-stack element of the prominence sweep:
// a sample value and the minimum over the gap back to the previous
// (strictly higher) stack element.
type promEntry struct {
	val, gapMin float64
}

// prominences fills the Prominence of every peak in one forward and
// one backward sweep. A monotonic stack tracks, for each position,
// the previous strictly-higher sample and the minimum over the gap
// since it — exactly the saddle the per-peak walk in prominence
// finds. NaN samples are skipped, as the walk steps over them (on the
// stack they would end the gap like a higher sample). peaks must be
// ordered by ascending Index.
func prominences(x []float64, peaks []RefPeak) {
	if len(peaks) == 0 {
		return
	}
	stack := make([]promEntry, 0, len(x))
	left := make([]float64, len(peaks))
	inf := math.Inf(1)
	// Forward sweep: saddle minima toward the previous higher sample.
	pi := 0
	for i, v := range x {
		if v != v {
			continue
		}
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
		if v != v {
			continue
		}
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

func filterPeaks(raw []RefPeak, opt PeakOptions) []RefPeak {
	var kept []RefPeak
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
	var out []RefPeak
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
