// Package decoder implements the paper's receiver-side algorithms:
// the adaptive threshold decoder of Sec. 4.1 (per-packet tau_r/tau_t
// derived from the preamble's first two peaks and first valley), the
// DTW waveform classifier of Sec. 4.2 for distorted packets, the
// FFT-based collision analyzer of Sec. 4.3, and the two-phase
// car-shape decode of Sec. 5 (optical signature as long-duration
// preamble, then stripe decode).
package decoder

import (
	"errors"
	"fmt"
	"math"

	"passivelight/internal/coding"
	"passivelight/internal/dsp"
	"passivelight/internal/trace"
)

// Errors returned by the threshold decoder.
var (
	// ErrNoPreamble means the A/B/C preamble points could not be
	// located in the trace.
	ErrNoPreamble = errors.New("decoder: preamble peaks/valley not found")
	// ErrLowContrast means the preamble was found but the HIGH/LOW
	// excursion is too small to decode reliably.
	ErrLowContrast = errors.New("decoder: insufficient HIGH/LOW contrast")
)

// PreamblePoints are the paper's A, B, C anchors: the first two peaks
// and the first valley of the preamble, each as an <RSS, time> tuple
// (Fig. 5(a)).
type PreamblePoints struct {
	AIndex, BIndex, CIndex int
	AValue, BValue, CValue float64
	ATime, BTime, CTime    float64
}

// Thresholds are the per-packet adaptive decision parameters.
type Thresholds struct {
	// TauR is the magnitude threshold:
	// ((rA-rB) + (rC-rB)) / 2, applied relative to the valley level.
	TauR float64
	// TauT is the symbol duration estimate:
	// ((tB-tA) + (tC-tB)) / 2 seconds.
	TauT float64
	// Baseline is the valley level rB the threshold is referenced to.
	Baseline float64
}

// Options tunes the threshold decoder.
type Options struct {
	// ExpectedSymbols bounds the number of symbols to slice
	// (preamble + data). Zero decodes until the trace ends and trims
	// trailing LOW symbols.
	ExpectedSymbols int
	// SmoothWindow applies a centered moving average before peak
	// detection (samples). Zero picks an automatic small window.
	SmoothWindow int
	// MinProminence for peak/valley detection as a fraction of the
	// trace's min-max range. Zero selects 0.25.
	MinProminence float64
	// MinContrast is the minimum acceptable (peak - valley) excursion
	// as a fraction of the trace range... it is an absolute RSS value
	// when AbsoluteContrast is set. Zero selects 4.0 counts, roughly
	// 4x the front-end quantization step: below that the signal is
	// indistinguishable from noise (the paper's undecodable 100 lux
	// RX-LED case).
	MinContrast float64
	// SearchFrom restricts preamble search to samples at or after
	// this index (used by the two-phase car decoder).
	SearchFrom int
	// WindowFraction is the central share of each tau_t window over
	// which the maximum is taken. Smoothing blurs symbol transitions,
	// so sampling the full window lets a LOW window catch the skirt
	// of its HIGH neighbours; the central region avoids that. Zero
	// selects 0.6.
	WindowFraction float64
	// DisableTimingRecovery turns off the post-preamble grid search
	// and decodes exactly as Sec. 4.1 describes (fixed tau_t grid
	// anchored at peak A). The Fig. 8 experiment uses this to show
	// the paper's algorithm failing under variable speed.
	DisableTimingRecovery bool
}

func (o Options) withDefaults() Options {
	if o.MinProminence == 0 {
		o.MinProminence = 0.25
	}
	if o.MinContrast == 0 {
		o.MinContrast = 4.0
	}
	if o.WindowFraction == 0 {
		o.WindowFraction = 0.5
	}
	return o
}

// Result is the outcome of a threshold decode.
type Result struct {
	Symbols    []coding.Symbol
	Packet     coding.Packet
	ParseErr   error // non-nil when symbols don't form a valid packet
	Preamble   PreamblePoints
	Thresholds Thresholds
	// WindowMax records the per-symbol window maxima used for the
	// HIGH/LOW decision (diagnostics).
	WindowMax []float64
}

// SymbolString renders the decoded symbols in the paper's notation
// ("HLHL.LHHL" when a valid packet was parsed, plain run otherwise).
func (r Result) SymbolString() string {
	if r.ParseErr == nil {
		return r.Packet.SymbolString()
	}
	s := ""
	for i, sym := range r.Symbols {
		if i == coding.PreambleLen {
			s += "."
		}
		s += sym.String()
	}
	return s
}

// Decode runs the Sec. 4.1 adaptive threshold algorithm on a trace.
// It is a thin wrapper over the resumable state machine: the whole
// trace is fed as one chunk and flushed, so batch and streaming
// decodes share one code path (see Incremental).
func Decode(tr *trace.Trace, opt Options) (Result, error) {
	if tr == nil || tr.Len() < 8 {
		return Result{}, errors.New("decoder: trace too short")
	}
	inc := NewIncremental(tr.Fs, opt, BatchConfig())
	inc.feedAlias(tr.Samples)
	segs := inc.Flush()
	if len(segs) != 1 {
		return Result{}, fmt.Errorf("decoder: batch flush produced %d segments, want 1", len(segs))
	}
	return segs[0].Result, segs[0].Err
}

// decodePass runs one full adaptive-threshold pass over a sample
// window: preamble search, tau_r/tau_t estimation, timing recovery
// and symbol slicing. It is the shared core of the batch Decode and
// the streaming Incremental decoder.
func decodePass(samples []float64, fs float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	sc := passPool.Get().(*passScratch)
	defer passPool.Put(sc)
	g, err := prepareGrid(samples, fs, opt, sc)
	if err != nil {
		return Result{Preamble: g.pts, Thresholds: g.th}, err
	}
	smooth, pts, th := g.smooth, g.pts, g.th
	tauSamples, decision := g.tauSamples, g.decision
	// Fine timing recovery. The A/B/C extrema shift under FoV-induced
	// inter-symbol interference (a HIGH stripe next to a bright car
	// roof has its apparent peak pulled toward the roof), so the raw
	// tau_t estimate can be off by >10%, enough for the symbol grid
	// to drift onto neighbours by the end of the data field. Search a
	// small neighbourhood of (step, phase) for the grid that (a)
	// reproduces the known HLHL preamble and (b) maximizes the margin
	// of every window decision; this is standard clock recovery on
	// top of the paper's estimator.
	var symbols []coding.Symbol
	var windowMax []float64
	if opt.DisableTimingRecovery {
		symbols, windowMax = sliceGrid(smooth, float64(pts.AIndex), tauSamples, opt.WindowFraction, decision, opt.ExpectedSymbols)
	} else {
		var bestStep float64
		symbols, windowMax, bestStep, _ = refineGrid(smooth, pts.AIndex, tauSamples, decision, opt, sc)
		th.TauT = bestStep / fs
	}
	if opt.ExpectedSymbols == 0 {
		// Trim trailing LOWs produced after the tag left the FoV.
		for len(symbols) > 0 && symbols[len(symbols)-1] == coding.Low {
			symbols = symbols[:len(symbols)-1]
			windowMax = windowMax[:len(windowMax)-1]
		}
		// A Manchester stream always has even symbol count; pad one
		// LOW back if a trailing LOW of the last bit was trimmed.
		if len(symbols)%2 == 1 {
			symbols = append(symbols, coding.Low)
		}
	}
	res := Result{Symbols: symbols, Preamble: pts, Thresholds: th, WindowMax: windowMax}
	pkt, perr := coding.ParsePacket(symbols)
	if perr != nil {
		res.ParseErr = perr
	} else {
		res.Packet = pkt
	}
	return res, nil
}

// passGrid is what the timing search starts from: the tau_t/8
// smoothed signal, the preamble anchors and thresholds, the symbol
// duration in samples and the HIGH/LOW decision level.
type passGrid struct {
	smooth               []float64
	pts                  PreamblePoints
	th                   Thresholds
	tauSamples, decision float64
}

// prepareGrid runs the pass up to the timing search: ripple
// suppression, smoothing, preamble search and the tau_r/tau_t
// estimate. On a contrast or duration error the anchors and
// thresholds found so far are returned with it. smooth aliases sc.
func prepareGrid(samples []float64, fs float64, opt Options, sc *passScratch) (passGrid, error) {
	if len(samples) < 8 {
		return passGrid{}, errors.New("decoder: trace too short")
	}
	x := samples
	if opt.SearchFrom > 0 {
		if opt.SearchFrom >= len(x)-8 {
			return passGrid{}, fmt.Errorf("decoder: SearchFrom %d beyond trace", opt.SearchFrom)
		}
		x = x[opt.SearchFrom:]
	}
	// Every smoothing of the pass is served from one set of prefix
	// sums: bound here, and rebound only if ripple suppression
	// replaces the signal.
	sc.sm.Bind(x)
	x = suppressMainsRipple(x, fs, sc)
	smoothWin := opt.SmoothWindow
	if smoothWin == 0 {
		// Automatic: ~2.5 ms at the trace rate, at least 3 samples.
		smoothWin = int(fs * 0.0025)
		if smoothWin < 3 {
			smoothWin = 3
		}
	}
	sc.smooth = sc.sm.MovingAverage(sc.smooth, smoothWin)
	smooth := sc.smooth
	pts, err := findPreamble(smooth, opt)
	if err != nil {
		return passGrid{}, err
	}
	dt := 1 / fs
	th := computeThresholds(pts, dt)
	// Second pass: with the symbol duration roughly known, re-detect
	// the preamble on a tau_t/3-smoothed signal. Heavier smoothing
	// rounds the HIGH plateaus so their maxima sit at the symbol
	// centers, which fixes the grid phase/step estimate under
	// FoV-induced inter-symbol interference.
	if w := int(th.TauT * fs / 3); w > smoothWin {
		sc.smooth2 = sc.sm.MovingAverage(sc.smooth2, w)
		smooth2 := sc.smooth2
		if pts2, err2 := findPreamble(smooth2, opt); err2 == nil {
			th2 := computeThresholds(pts2, dt)
			if th2.TauT > 0 && th2.TauR > 0 {
				pts, th = pts2, th2
				// Keep amplitude anchors from the lightly smoothed
				// signal (heavy smoothing deflates the contrast).
				pts.AValue = smooth[pts.AIndex]
				pts.BValue = smooth[pts.BIndex]
				pts.CValue = smooth[pts.CIndex]
				th.TauR = ((pts.AValue - pts.BValue) + (pts.CValue - pts.BValue)) / 2
				th.Baseline = pts.BValue
			}
		}
	}
	pts.ATime = float64(pts.AIndex) * dt
	pts.BTime = float64(pts.BIndex) * dt
	pts.CTime = float64(pts.CIndex) * dt
	if th.TauR < opt.MinContrast {
		return passGrid{pts: pts, th: th}, fmt.Errorf("%w: tau_r %.2f < %.2f", ErrLowContrast, th.TauR, opt.MinContrast)
	}
	if th.TauT <= 0 {
		return passGrid{pts: pts, th: th}, ErrNoPreamble
	}
	// Slice symbol windows of length tau_t centered on the symbol
	// grid anchored at peak A (the center of the first HIGH symbol).
	tauSamples := th.TauT * fs
	// Now that the symbol duration is known, re-smooth at tau_t/8 so
	// window maxima ride the symbol level rather than noise spikes
	// (the analog front end of the real board does this for free).
	// The lightly smoothed signal is dead at this point, so its
	// buffer is reused.
	if resmooth := int(tauSamples / 8); resmooth > smoothWin {
		sc.smooth = sc.sm.MovingAverage(sc.smooth, resmooth)
		smooth = sc.smooth
	}
	return passGrid{smooth: smooth, pts: pts, th: th, tauSamples: tauSamples, decision: pts.BValue + th.TauR/2}, nil
}

// suppressMainsRipple detects the double-line-frequency flicker of
// mains-powered luminaires (100 Hz in 50 Hz grids, 120 Hz in 60 Hz
// grids — the "thicker lines" of the paper's Fig. 7) and, when it
// carries a meaningful share of the AC energy, averages the signal
// over exactly one ripple period. Symbols are orders of magnitude
// slower, so the code content is untouched. sc.sm must be bound to x;
// on return it is bound to the returned signal.
func suppressMainsRipple(x []float64, fs float64, sc *passScratch) []float64 {
	if len(x) < 16 || fs < 400 {
		return x
	}
	mean := sc.sm.Sum() / float64(len(x))
	if cap(sc.ac) < len(x) {
		sc.ac = make([]float64, len(x))
	}
	ac := sc.ac[:len(x)]
	for i, v := range x {
		ac[i] = v - mean
	}
	total := dsp.RMS(ac) * float64(len(ac))
	if total == 0 {
		return x
	}
	// Each mains line is tested against its ±15 Hz neighbours; all
	// bins come from one interleaved pass over the signal.
	lines := [...]float64{100, 120}
	var freqs, mags [3 * len(lines)]float64
	nb := 0
	for _, f := range lines {
		if f+15 < fs/2 {
			freqs[nb], freqs[nb+1], freqs[nb+2] = f, f-15, f+15
			nb += 3
		}
	}
	dsp.GoertzelBins(ac, fs, freqs[:nb], mags[:nb])
	for b := 0; b < nb; b += 3 {
		f, mag := freqs[b], mags[b]
		// A mains line is a narrow tone: it must dominate its
		// spectral neighbourhood, otherwise the energy at f is just
		// broadband symbol content (e.g. a fast packet whose symbol
		// rate happens to sit near 100 Hz) and must not be filtered.
		side := mags[b+1]
		if s2 := mags[b+2]; s2 > side {
			side = s2
		}
		if mag/total > 0.02 && mag > 3*side {
			period := int(fs/f + 0.5)
			if period >= 2 {
				sc.ripple = sc.sm.MovingAverage(sc.ripple, period)
				sc.sm.Bind(sc.ripple)
				return sc.ripple
			}
		}
	}
	return x
}

// DecodeFixed decodes a trace using externally supplied thresholds —
// no per-packet adaptation and no timing refinement. It anchors the
// symbol grid at the first upward crossing of the decision level.
// This is the ablation baseline showing why the paper's thresholds
// "need to be highly adaptive": fixed values calibrated under one
// light level misread packets under another.
func DecodeFixed(tr *trace.Trace, th Thresholds, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if tr == nil || tr.Len() < 8 {
		return Result{}, errors.New("decoder: trace too short")
	}
	if th.TauT <= 0 || th.TauR <= 0 {
		return Result{}, errors.New("decoder: invalid fixed thresholds")
	}
	smoothWin := opt.SmoothWindow
	if smoothWin == 0 {
		smoothWin = int(th.TauT * tr.Fs / 8)
		if smoothWin < 3 {
			smoothWin = 3
		}
	}
	smooth := dsp.MovingAverage(tr.Samples, smoothWin)
	decision := th.Baseline + th.TauR/2
	anchorIdx := -1
	for i := 1; i < len(smooth); i++ {
		if smooth[i-1] <= decision && smooth[i] > decision {
			anchorIdx = i
			break
		}
	}
	if anchorIdx < 0 {
		return Result{Thresholds: th}, fmt.Errorf("%w: signal never crosses fixed decision level %.1f", ErrNoPreamble, decision)
	}
	tauSamples := th.TauT * tr.Fs
	// The crossing is the leading edge of the first HIGH symbol; its
	// center is half a symbol later.
	anchor := float64(anchorIdx) + tauSamples/2
	symbols, windowMax := sliceGrid(smooth, anchor, tauSamples, opt.WindowFraction, decision, opt.ExpectedSymbols)
	res := Result{Symbols: symbols, Thresholds: th, WindowMax: windowMax}
	pkt, perr := coding.ParsePacket(symbols)
	if perr != nil {
		res.ParseErr = perr
	} else {
		res.Packet = pkt
	}
	return res, nil
}

// sliceGrid samples symbol windows on a (anchor, step) grid and
// returns the HIGH/LOW decisions plus per-window maxima in freshly
// allocated slices.
func sliceGrid(smooth []float64, anchor, step, frac, decision float64, maxSymbols int) ([]coding.Symbol, []float64) {
	want := maxSymbols
	if want <= 0 && step > 0 {
		want = int(float64(len(smooth))/step) + 2
	}
	var symbols []coding.Symbol
	var windowMax []float64
	if want > 0 {
		symbols = make([]coding.Symbol, 0, want)
		windowMax = make([]float64, 0, want)
	}
	half := step * frac / 2
	for k := 0; maxSymbols <= 0 || k < maxSymbols; k++ {
		lo, hi, ok := gridWindow(len(smooth), anchor, step, half, k)
		if !ok {
			break
		}
		maxV := smooth[lo]
		for _, v := range smooth[lo+1 : hi] {
			if v > maxV {
				maxV = v
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

// gridWindow returns the sample span [lo, hi) of window k on the
// (anchor, step) grid, half the window wide on each side of its
// center and clamped to n samples; ok is false once the grid has left
// the signal.
func gridWindow(n int, anchor, step, half float64, k int) (lo, hi int, ok bool) {
	center := anchor + float64(k)*step
	lo = int(center - half)
	hi = int(center + half)
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	return lo, hi, lo < n && hi-lo >= 1
}

// refineGrid searches step in [0.8, 1.2]*tauSamples and phase in
// +-0.5*tauSamples around anchor A for the symbol grid with the best
// decision margins, preferring grids whose first four symbols decode
// to the HLHL preamble.
//
// The search is branch-and-bound: a candidate is dropped as soon as
// it provably cannot rank strictly above the current best, which then
// keeps its place exactly as if the candidate had been evaluated in
// full (ties go to the first candidate found either way). With a
// parsing best and an edge clock, a step no closer to that clock than
// the best's is skipped unsliced; with a parsing best and no edge
// clock, slicing stops at the first window whose margin is no wider
// than the best's worst one; and once the best reads the preamble, a
// grid whose first four windows do not stops there.
func refineGrid(smooth []float64, aIndex int, tauSamples, decision float64, opt Options, sc *passScratch) (symbols []coding.Symbol, windowMax []float64, bestStep, bestAnchor float64) {
	const stepSteps, phaseSteps = 17, 17
	// Candidates are ranked entirely by scalar figures of merit, so
	// the search evaluates every grid into a shared scratch buffer
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
	// One table answers every candidate grid's window maxima in O(1)
	// per window; the searches below evaluate hundreds of grids over
	// the same signal. Window widths are bounded by the widest
	// candidate step (the coarse round sweeps up to 1.45x tau, the
	// re-acquisition rescales around the edge clock), so the table
	// stops at that width; anything wider scans directly.
	maxW := int(tauSamples*3*opt.WindowFraction) + 4
	sc.rmq.reset(smooth, maxW)
	frac, maxSymbols := opt.WindowFraction, opt.ExpectedSymbols
	// edgeClock, when non-zero, is the crossing-derived symbol
	// duration used by the re-acquisition rounds to rank parsing
	// candidates (set before round 2 runs, so round 1 keeps the
	// original margin ranking).
	var edgeClock float64
	search := func(stepLo, stepHi float64, stepSteps int) {
		for si := 0; si < stepSteps; si++ {
			step := tauSamples * (stepLo + (stepHi-stepLo)*float64(si)/float64(stepSteps-1))
			half := step * frac / 2
			for pi := 0; pi < phaseSteps; pi++ {
				if best.parses && edgeClock > 0 && !(math.Abs(step-edgeClock) < math.Abs(best.step-edgeClock)) {
					// Only a parsing grid closer to the edge clock can
					// win, and every remaining phase has this step.
					break
				}
				anchor := float64(aIndex) + step*(-0.5+float64(pi)/float64(phaseSteps-1))
				// A parsing best with no edge clock is beaten only on
				// the worst window margin, and a best that reads the
				// preamble only by a grid that reads it too.
				boundMargin := best.parses && edgeClock == 0
				syms := sc.syms[:0]
				var margin, minMargin float64
				cut := false
				for k := 0; maxSymbols <= 0 || k < maxSymbols; k++ {
					lo, hi, ok := gridWindow(len(smooth), anchor, step, half, k)
					if !ok {
						break
					}
					maxV := sc.rmq.max(lo, hi)
					if maxV > decision {
						syms = append(syms, coding.High)
					} else {
						syms = append(syms, coding.Low)
					}
					d := maxV - decision
					if d < 0 {
						d = -d
					}
					margin += d
					if k == 0 || d < minMargin {
						minMargin = d
					}
					if boundMargin && d <= best.minMargin ||
						k == coding.PreambleLen-1 && best.preamble && !readsPreamble(syms) {
						cut = true
						break
					}
				}
				sc.syms = syms
				if cut || len(syms) < coding.PreambleLen {
					continue
				}
				pre := readsPreamble(syms)
				// In auto mode the stream runs to the end of the trace,
				// so parseability is judged the way Decode judges it
				// downstream: with trailing LOW windows trimmed and the
				// stream padded back to even length.
				evalSyms := syms
				if maxSymbols == 0 {
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
				margin /= float64(len(syms))
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
	}
	if !best.parses {
		// Round 3: coarse sweep as a last resort.
		search(0.6, 1.45, 2*stepSteps)
	}
	if best.score < 0 {
		// Fall back to the unrefined grid.
		syms, wm := sliceGrid(smooth, float64(aIndex), tauSamples, opt.WindowFraction, decision, opt.ExpectedSymbols)
		return syms, wm, tauSamples, float64(aIndex)
	}
	// Re-slice the winner into fresh memory (sliceGrid is
	// deterministic, so this reproduces the ranked candidate exactly).
	syms, wm := sliceGrid(smooth, best.anchor, best.step, opt.WindowFraction, decision, opt.ExpectedSymbols)
	return syms, wm, best.step, best.anchor
}

// readsPreamble reports whether the first four symbols are the HLHL
// preamble; syms must hold at least four.
func readsPreamble(syms []coding.Symbol) bool {
	return syms[0] == coding.High && syms[1] == coding.Low &&
		syms[2] == coding.High && syms[3] == coding.Low
}

// edgeTauSamples estimates the symbol duration from decision-level
// crossings: the shortest significant same-side run between the first
// and last crossing. Manchester guarantees isolated single symbols,
// so that minimum is one symbol long. Returns 0 when there are too
// few transitions to trust the estimate. tauHint only sets the
// flicker-rejection floor; the estimate does not otherwise depend on
// it.
func edgeTauSamples(smooth []float64, decision, tauHint float64) float64 {
	minRun := int(tauHint / 4)
	if minRun < 5 {
		minRun = 5
	}
	first, last := -1, -1
	for i := 1; i < len(smooth); i++ {
		if (smooth[i-1] > decision) != (smooth[i] > decision) {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || last-first < 2*minRun {
		return 0
	}
	best := 0
	runStart := first
	count := 0
	for i := first + 1; i <= last; i++ {
		if (smooth[i-1] > decision) != (smooth[i] > decision) {
			if run := i - runStart; run >= minRun {
				count++
				if best == 0 || run < best {
					best = run
				}
			}
			runStart = i
		}
	}
	if count < 3 {
		return 0
	}
	return float64(best)
}

// computeThresholds derives the paper's tau_r/tau_t from the A/B/C
// anchors (times are filled in from indices).
func computeThresholds(pts PreamblePoints, dt float64) Thresholds {
	pts.ATime = float64(pts.AIndex) * dt
	pts.BTime = float64(pts.BIndex) * dt
	pts.CTime = float64(pts.CIndex) * dt
	return Thresholds{
		TauR:     ((pts.AValue - pts.BValue) + (pts.CValue - pts.BValue)) / 2,
		TauT:     ((pts.BTime - pts.ATime) + (pts.CTime - pts.BTime)) / 2,
		Baseline: pts.BValue,
	}
}

// findPreamble locates A (first peak), B (first valley after A) and C
// (first peak after B).
func findPreamble(x []float64, opt Options) (PreamblePoints, error) {
	lo, hi := dsp.MinMax(x)
	rng := hi - lo
	if rng <= 0 {
		return PreamblePoints{}, ErrNoPreamble
	}
	prom := opt.MinProminence * rng
	// Lazy anchor scan: enumerate extrema in order and stop at C,
	// instead of building and sweeping the full peak/valley lists the
	// old code threw away after reading three entries.
	a, b, c, ok := dsp.PreambleExtrema(x, prom)
	if !ok {
		return PreamblePoints{}, ErrNoPreamble
	}
	return PreamblePoints{
		AIndex: a.Index, BIndex: b.Index, CIndex: c.Index,
		AValue: a.Value, BValue: b.Value, CValue: c.Value,
	}, nil
}
