package dsp

import "sync"

// Peak is a local extremum: its sample index and value. A plateau's
// extremum sits at the plateau's center.
type Peak struct {
	Index int
	Value float64
}

// Polarity selects local maxima or local minima.
type Polarity int

const (
	Maxima Polarity = iota
	Minima
)

// saddleEntry records one tested candidate's left saddle walk, so
// later walks can jump across its span instead of re-walking it.
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

// extremaScanner enumerates, in index order, the local extrema of x
// whose prominence is at least minProm, without computing any
// prominence. prominence = min(h-leftMin, h-rightMin), so the
// threshold test splits into independent per-side tests, and since
// float subtraction is monotone, a saddle walk can stop as soon as
// h-min >= minProm.
//
//   - Left: a stack per polarity records every tested candidate's
//     walk. A walk that reaches the previous candidate either stops
//     there (it is higher) or jumps to where that walk ended, taking
//     its minimum; if that walk had met the drop, so does this one.
//     Jumped entries are popped, so each sample is walked once per
//     polarity, however many tied candidates an ADC-quantized plateau
//     holds.
//   - Right: only a candidate that passes the left test walks right.
//     A candidate inside the span of its polarity's last failed right
//     walk, and no higher than its extremum, fails without walking:
//     its own walk would end no later and find no lower minimum.
//     Failed right walks therefore never overlap.
//
// The scan is linear in len(x). Minima are maxima of the negated
// samples (negation and its subtractions are exact in floats, so the
// mirrored comparisons match bit for bit). NaN samples are
// transparent, as in a saddle walk: they neither end a walk nor lower
// its minimum. A minProm <= 0 passes every extremum.
type extremaScanner struct {
	x       []float64
	minProm float64
	i       int // the run scan resumes here
	stacks  [2][]saddleEntry
	failH   [2]float64 // per polarity: the last failed right walk's height
	failEnd [2]int     // and the index it ended at
}

// scannerPool keeps the saddle stacks across calls; they can grow to
// the number of candidates in a signal.
var scannerPool = sync.Pool{New: func() any { return new(extremaScanner) }}

func newExtremaScanner(x []float64, minProm float64) *extremaScanner {
	s := scannerPool.Get().(*extremaScanner)
	s.x, s.minProm, s.i = x, minProm, 1
	s.stacks = [2][]saddleEntry{s.stacks[0][:0], s.stacks[1][:0]}
	s.failEnd = [2]int{-1, -1}
	return s
}

func (s *extremaScanner) release() {
	s.x = nil
	scannerPool.Put(s)
}

// leftOK walks left from the candidate at mid (height h in sign's
// polarity) and records the walk on that polarity's stack.
func (s *extremaScanner) leftOK(pol Polarity, sign float64, mid int, h float64) bool {
	x, minProm := s.x, s.minProm
	st := s.stacks[pol]
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
	s.stacks[pol] = append(st, e)
	return h-e.m >= minProm
}

// next returns the first extremum of polarity pol after index after
// that passes both tests, resuming the run scan where the last call
// stopped.
func (s *extremaScanner) next(pol Polarity, after int) (Peak, bool) {
	x, minProm := s.x, s.minProm
	n := len(x)
	sign := 1.0
	if pol == Minima {
		sign = -1
	}
	i := s.i
	for i < n-1 {
		// Runs of equal samples: [i, j] opens with a strict step in
		// this polarity's direction and closes with one back.
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
			s.i = i
			return Peak{Index: mid, Value: x[mid]}, true
		}
		if (mid < s.failEnd[pol] && h <= s.failH[pol]) || !s.leftOK(pol, sign, mid, h) {
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
			s.i = i
			return Peak{Index: mid, Value: x[mid]}, true
		}
		s.failH[pol], s.failEnd[pol] = h, r
	}
	s.i = i
	return Peak{}, false
}

// ProminentExtrema appends to dst, in index order, every local
// extremum of polarity pol in x whose topographic prominence is at
// least minProm: the indices and values the exact-prominence
// reference in peaksref_test.go keeps (FindPeaks or FindValleys with
// MinProminence, locked down by FuzzProminentExtrema), from one
// linear threshold scan. A minProm that is not positive, NaN
// included, keeps every extremum, as the reference's filter does.
func ProminentExtrema(dst []Peak, x []float64, minProm float64, pol Polarity) []Peak {
	if !(minProm > 0) {
		minProm = 0
	}
	s := newExtremaScanner(x, minProm)
	defer s.release()
	for {
		p, ok := s.next(pol, -1)
		if !ok {
			return dst
		}
		dst = append(dst, p)
	}
}

// PreambleExtrema finds the paper's A/B/C anchors: the first local
// maximum of x with prominence >= minProm, the first such minimum
// after it, and the next such maximum after that. It selects exactly
// what the exact-prominence reference in peaksref_test.go would,
//
//	peaks := FindPeaks(x, PeakOptions{MinProminence: minProm})
//	valleys := FindValleys(x, PeakOptions{MinProminence: minProm})
//	a, b, c := peaks[0], first valley after a, first peak after b
//
// (same indices and values, locked down by
// TestPreambleExtremaMatchesLists and TestPreambleExtremaMatchesWalk),
// in one extremaScanner pass that stops at C. Unlike
// ProminentExtrema, a NaN minProm passes no extremum.
func PreambleExtrema(x []float64, minProm float64) (a, b, c Peak, ok bool) {
	s := newExtremaScanner(x, minProm)
	defer s.release()
	if a, ok = s.next(Maxima, -1); ok {
		if b, ok = s.next(Minima, a.Index); ok {
			c, ok = s.next(Maxima, b.Index)
		}
	}
	return a, b, c, ok
}
