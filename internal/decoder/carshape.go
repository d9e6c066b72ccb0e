package decoder

import (
	"errors"
	"fmt"
	"sync"

	"passivelight/internal/dsp"
	"passivelight/internal/trace"
)

// CarSignature is the detected long-duration preamble of Sec. 5.1:
// the car's own optical shape (hood peak, windshield valley, roof,
// ...) announcing that a tag decode should start.
type CarSignature struct {
	// HoodPeakIndex and WindshieldValleyIndex anchor the car within
	// the trace.
	HoodPeakIndex         int
	WindshieldValleyIndex int
	// RoofStartIndex is where the tag search window begins.
	RoofStartIndex int
	// Extrema lists all prominent peaks/valleys of the pass in time
	// order, for signature matching against car models (Figs. 13-14).
	Extrema []ShapeExtremum
}

// ShapeExtremum is one labeled feature of a car signature.
type ShapeExtremum struct {
	Index  int
	Value  float64
	IsPeak bool
}

// shapeScratch pools DetectCarShape's working buffers, so a call
// allocates only the Extrema list it returns.
type shapeScratch struct {
	sm             dsp.Smoother
	smooth         []float64
	peaks, valleys []dsp.Peak
	order          []int
	suppressed     []bool
}

var shapePool = sync.Pool{New: func() any { return new(shapeScratch) }}

// DetectCarShape finds the hood-peak / windshield-valley pattern that
// marks an approaching car. The smoothing window is wide (tens of
// milliseconds) so stripe-level detail does not hide the body shape.
func DetectCarShape(tr *trace.Trace) (CarSignature, error) {
	if tr == nil || tr.Len() < 16 {
		return CarSignature{}, errors.New("decoder: trace too short for shape detection")
	}
	// Smooth at ~40 ms: keeps car body features (hundreds of ms at
	// 18 km/h) while flattening 10 cm stripes (~20 ms).
	win := int(tr.Fs * 0.04)
	if win < 3 {
		win = 3
	}
	sc := shapePool.Get().(*shapeScratch)
	defer shapePool.Put(sc)
	sc.sm.Bind(tr.Samples)
	sc.smooth = sc.sm.MovingAverage(sc.smooth, win)
	// Car body features are >= 100 ms apart at street speeds;
	// suppress plateau double-peaks and glint spikes closer than that.
	return sc.signature(sc.smooth, int(tr.Fs*0.1))
}

// signature finds the car shape in the smoothed trace: the extrema
// whose prominence reaches a fifth of its range, thinned to one per
// minDist samples.
func (sc *shapeScratch) signature(smooth []float64, minDist int) (CarSignature, error) {
	lo, hi := dsp.MinMax(smooth)
	rng := hi - lo
	if rng <= 0 {
		return CarSignature{}, errors.New("decoder: flat trace")
	}
	// A NaN range passes the test above; the NaN threshold then keeps
	// every extremum.
	prom := 0.2 * rng
	peaks := sc.thin(dsp.ProminentExtrema(sc.peaks[:0], smooth, prom, dsp.Maxima), minDist, 1)
	valleys := sc.thin(dsp.ProminentExtrema(sc.valleys[:0], smooth, prom, dsp.Minima), minDist, -1)
	sc.peaks, sc.valleys = peaks, valleys
	if len(peaks) == 0 || len(valleys) == 0 {
		return CarSignature{}, errors.New("decoder: no car-shape features found")
	}
	sig := CarSignature{HoodPeakIndex: -1, WindshieldValleyIndex: -1}
	// Hood = first prominent peak; windshield = first prominent
	// valley after it.
	sig.HoodPeakIndex = peaks[0].Index
	for _, v := range valleys {
		if v.Index > sig.HoodPeakIndex {
			sig.WindshieldValleyIndex = v.Index
			break
		}
	}
	if sig.WindshieldValleyIndex < 0 {
		return CarSignature{}, errors.New("decoder: hood peak without windshield valley")
	}
	sig.RoofStartIndex = sig.WindshieldValleyIndex
	// Collect the merged, time-ordered extrema list.
	sig.Extrema = make([]ShapeExtremum, 0, len(peaks)+len(valleys))
	pi, vi := 0, 0
	for pi < len(peaks) || vi < len(valleys) {
		switch {
		case pi == len(peaks):
			sig.Extrema = append(sig.Extrema, ShapeExtremum{valleys[vi].Index, valleys[vi].Value, false})
			vi++
		case vi == len(valleys):
			sig.Extrema = append(sig.Extrema, ShapeExtremum{peaks[pi].Index, peaks[pi].Value, true})
			pi++
		case peaks[pi].Index < valleys[vi].Index:
			sig.Extrema = append(sig.Extrema, ShapeExtremum{peaks[pi].Index, peaks[pi].Value, true})
			pi++
		default:
			sig.Extrema = append(sig.Extrema, ShapeExtremum{valleys[vi].Index, valleys[vi].Value, false})
			vi++
		}
	}
	return sig, nil
}

// thin drops, in place, every extremum within minDist samples of a
// kept one that ranks higher (sign*Value larger; ties keep the
// earlier), visiting candidates from the highest down. An extremum
// dropped this way drops nothing itself.
func (sc *shapeScratch) thin(ext []dsp.Peak, minDist int, sign float64) []dsp.Peak {
	if minDist <= 0 || len(ext) < 2 {
		return ext
	}
	order := sc.order[:0]
	for i := range ext {
		order = append(order, i)
	}
	// Insertion sort by rank descending, stable (lists are short).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && sign*ext[order[j]].Value > sign*ext[order[j-1]].Value; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	suppressed := append(sc.suppressed[:0], make([]bool, len(ext))...)
	for _, i := range order {
		if suppressed[i] {
			continue
		}
		for j := range ext {
			if d := ext[j].Index - ext[i].Index; j != i && !suppressed[j] && max(d, -d) < minDist {
				suppressed[j] = true
			}
		}
	}
	kept := ext[:0]
	for i, p := range ext {
		if !suppressed[i] {
			kept = append(kept, p)
		}
	}
	sc.order, sc.suppressed = order, suppressed
	return kept
}

// TwoPhaseResult bundles the Sec. 5.2 two-phase decode.
type TwoPhaseResult struct {
	Signature CarSignature
	Decode    Result
}

// DecodeCarPass runs the outdoor two-phase algorithm: (1) detect the
// car-shape long preamble (hood peak + windshield valley), (2) run
// the Sec. 4.1 adaptive threshold decoder starting at the roof.
func DecodeCarPass(tr *trace.Trace, opt Options) (TwoPhaseResult, error) {
	sig, err := DetectCarShape(tr)
	if err != nil {
		return TwoPhaseResult{}, fmt.Errorf("phase 1 (shape): %w", err)
	}
	opt.SearchFrom = sig.RoofStartIndex
	res, err := Decode(tr, opt)
	if err != nil {
		return TwoPhaseResult{Signature: sig}, fmt.Errorf("phase 2 (decode): %w", err)
	}
	return TwoPhaseResult{Signature: sig, Decode: res}, nil
}

// MatchCarModel compares a detected signature's peak pattern against
// expectations: a hatchback (Volvo V40, Fig. 13) shows two body peaks
// (hood A, roof C); a sedan (BMW 3, Fig. 14) shows three (hood A,
// roof C, trunk E). It returns "sedan", "hatchback" or "unknown".
func MatchCarModel(sig CarSignature) string {
	peaks := 0
	for _, e := range sig.Extrema {
		if e.IsPeak {
			peaks++
		}
	}
	switch {
	case peaks >= 3:
		return "sedan"
	case peaks == 2:
		return "hatchback"
	default:
		return "unknown"
	}
}
