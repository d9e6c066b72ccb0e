package decoder

import (
	"math"
	"sync"

	"passivelight/internal/trace"
)

// IncrementalConfig tunes the resumable streaming state machine.
// Zero values select defaults; -1 disables a bound where noted.
type IncrementalConfig struct {
	// PreRollSamples is how much quiet context is retained before
	// detected activity, so the decode pass sees a baseline lead-in.
	// Zero selects one second of samples; -1 retains the entire
	// stream (batch mode — unbounded memory).
	PreRollSamples int
	// QuietHoldSamples is how long the signal must sit back inside
	// the noise band for the active segment to be considered complete
	// and decoded. Zero selects 1.5 seconds of samples; -1 never
	// completes on quiet (segments are decoded only on Flush).
	QuietHoldSamples int
	// ActivityMargin is the activity band half-width in multiples of
	// the tracked noise deviation. Zero selects 4.
	ActivityMargin float64
	// MinActivityDelta is an absolute floor (in RSS units) on the
	// band half-width, so a perfectly clean synthetic baseline (zero
	// deviation) does not trigger on quantization flips. Zero selects
	// half the decoder's MinContrast.
	MinActivityDelta float64
	// MinActivityRun is how many consecutive out-of-band samples are
	// needed to open a segment. Zero selects 3.
	MinActivityRun int
	// MaxSegmentSamples force-decodes a segment that grows past this
	// bound (memory guard against a tag parked in the field of view).
	// Zero selects 2^21 samples; -1 disables the bound.
	MaxSegmentSamples int
	// WarmupSamples seed the noise-floor estimate before activity
	// detection is allowed to trigger. Zero selects 32.
	WarmupSamples int
	// TwoPhase decodes each segment with the Sec. 5 outdoor
	// algorithm (car-shape signature, then stripe decode) instead of
	// the plain Sec. 4.1 threshold pass.
	TwoPhase bool
}

// BatchConfig retains every sample and decodes only on Flush: the
// configuration under which a streaming decode of one full trace is
// the batch Decode, sample for sample.
func BatchConfig() IncrementalConfig {
	return IncrementalConfig{PreRollSamples: -1, QuietHoldSamples: -1, MaxSegmentSamples: -1}
}

func (c IncrementalConfig) withDefaults(fs float64, opt Options) IncrementalConfig {
	if c.PreRollSamples == 0 {
		c.PreRollSamples = int(fs)
		if c.PreRollSamples < 64 {
			c.PreRollSamples = 64
		}
	}
	if c.QuietHoldSamples == 0 {
		c.QuietHoldSamples = int(1.5 * fs)
		if c.QuietHoldSamples < 16 {
			c.QuietHoldSamples = 16
		}
	}
	if c.ActivityMargin == 0 {
		c.ActivityMargin = 4
	}
	if c.MinActivityDelta == 0 {
		c.MinActivityDelta = opt.withDefaults().MinContrast / 2
	}
	if c.MinActivityRun == 0 {
		c.MinActivityRun = 3
	}
	if c.MaxSegmentSamples == 0 {
		c.MaxSegmentSamples = 1 << 21
	}
	if c.WarmupSamples == 0 {
		c.WarmupSamples = 32
	}
	return c
}

// SegmentResult is one decoded segment emitted by the streaming state
// machine: the decode outcome plus where in the stream it came from.
type SegmentResult struct {
	// Result of the adaptive-threshold pass over the segment. Valid
	// even when Err is non-nil (partial diagnostics).
	Result Result
	// Err is the decode-stage error, if the segment held no decodable
	// packet (glint, partial pass, low contrast...).
	Err error
	// Start and End are absolute sample indices of the decoded span
	// within the stream (End exclusive).
	Start, End int64
	// Floor is the tracked noise-floor mean at the time the segment
	// opened.
	Floor float64
}

// Incremental is the paper's adaptive-threshold decoder exposed as
// resumable state: RSS samples are fed in arbitrary chunks, an online
// noise-floor tracker segments the stream into quiet/active spans,
// and each completed active span is decoded with the same pass as
// batch Decode. Memory follows the state: while idle the machine holds
// one pre-roll buffer of exactly 2×PreRollSamples capacity; an open
// segment borrows a pooled segment buffer (bounded by
// MaxSegmentSamples) that goes back to the pool when the segment
// completes.
//
// An Incremental is not safe for concurrent use; wrap it in a
// stream.Decoder session for that.
type Incremental struct {
	fs  float64
	opt Options
	cfg IncrementalConfig

	// buf is the retained tail of the stream: the pre-roll while idle,
	// the open segment (in a pooled buffer) while active.
	buf []float64
	// preRoll parks the idle pre-roll array while a segment is open;
	// complete reseeds it with the segment's quiet tail.
	preRoll []float64
	pos     int64 // total samples consumed
	active  bool
	// batchRef aliases a single batch-mode chunk so the Decode
	// wrapper adds no copy; it is materialized into buf only if a
	// second chunk arrives.
	batchRef []float64

	floorMean, floorDev float64
	floorAtOpen         float64
	warmed              int
	activeRun, quietRun int
}

// NewIncremental builds a resumable decoder for a sample stream at fs
// Hz. opt tunes the per-segment threshold decode exactly as in the
// batch Decode.
func NewIncremental(fs float64, opt Options, cfg IncrementalConfig) *Incremental {
	return &Incremental{fs: fs, opt: opt, cfg: cfg.withDefaults(fs, opt)}
}

// segBufPool recycles open-segment buffers across sessions. Only
// segment buffers enter it, never pre-roll buffers, so a segment never
// starts from a small buffer it must regrow.
var segBufPool = sync.Pool{}

func getSegBuf() []float64 {
	if v := segBufPool.Get(); v != nil {
		return (*(v.(*[]float64)))[:0]
	}
	return nil
}

func putSegBuf(buf []float64) {
	buf = buf[:0]
	segBufPool.Put(&buf)
}

// Buffered returns the number of samples currently retained (the
// memory footprint of the state machine, up to slice overallocation).
func (inc *Incremental) Buffered() int { return len(inc.buf) + len(inc.batchRef) }

// Retained returns the capacity, in samples, of the buffers the
// machine holds: the pre-roll buffer, plus the segment buffer while a
// segment is open. Batch-mode aliases of caller memory do not count.
func (inc *Incremental) Retained() int { return cap(inc.buf) + cap(inc.preRoll) }

// Feed consumes one chunk of samples and returns the segments that
// completed inside it, in stream order. Chunk boundaries are
// arbitrary; feeding a trace sample-by-sample or all at once yields
// the same segments.
func (inc *Incremental) Feed(chunk []float64) []SegmentResult {
	if inc.cfg.PreRollSamples < 0 {
		// Batch mode: retain everything (copied — the caller may
		// reuse its buffer), decode on Flush.
		inc.pos += int64(len(chunk))
		if inc.batchRef != nil {
			inc.buf = append(inc.buf, inc.batchRef...)
			inc.batchRef = nil
		}
		inc.buf = append(inc.buf, chunk...)
		return nil
	}
	if inc.buf == nil {
		inc.buf = make([]float64, 0, 2*inc.cfg.PreRollSamples)
	}
	var out []SegmentResult
	for _, x := range chunk {
		inc.pos++
		inc.buf = append(inc.buf, x)
		out = inc.step(x, out)
	}
	return out
}

// step advances the state machine by the one sample just appended to
// buf, appending to out when a segment completes. (Appending instead
// of returning the result keeps the large SegmentResult struct off
// the per-sample path — this runs once per ingested sample.)
func (inc *Incremental) step(x float64, out []SegmentResult) []SegmentResult {
	inc.updateFloor(x)
	delta := inc.cfg.ActivityMargin * inc.floorDev
	if delta < inc.cfg.MinActivityDelta {
		delta = inc.cfg.MinActivityDelta
	}
	inBand := math.Abs(x-inc.floorMean) <= delta
	if !inc.active {
		if inBand || inc.warmed < inc.cfg.WarmupSamples {
			inc.activeRun = 0
		} else {
			inc.activeRun++
			if inc.activeRun >= inc.cfg.MinActivityRun {
				inc.open()
			}
		}
		if !inc.active {
			inc.trimPreRoll()
		}
		return out
	}
	if inBand {
		inc.quietRun++
	} else {
		inc.quietRun = 0
	}
	hold := inc.cfg.QuietHoldSamples
	if hold >= 0 && inc.quietRun >= hold {
		return append(out, inc.complete(inc.quietRun))
	}
	if inc.cfg.MaxSegmentSamples >= 0 && len(inc.buf) >= inc.cfg.MaxSegmentSamples {
		return append(out, inc.complete(0))
	}
	return out
}

// open starts a segment: the pre-roll moves into a pooled segment
// buffer and its own array is parked until complete.
func (inc *Incremental) open() {
	inc.active = true
	inc.activeRun = 0
	inc.quietRun = 0
	inc.floorAtOpen = inc.floorMean
	inc.preRoll = inc.buf[:0]
	inc.buf = append(getSegBuf(), inc.buf...)
}

// complete decodes the open segment and resets to idle, reseeding the
// pre-roll with the trailing quietTail samples (known-quiet context
// for the next segment) and returning the segment buffer to the pool.
func (inc *Incremental) complete(quietTail int) SegmentResult {
	// Exclude most of the known-quiet hold from the decoded span: in
	// auto symbol-count mode a long noise tail adds spurious windows
	// that dilute the timing search's margin ranking. Keep enough to
	// cover a trailing LOW symbol plus baseline context — LOW stripes
	// sit inside the noise band, so the quiet run can start up to one
	// symbol before the packet truly ends.
	keep := int(0.75 * inc.fs)
	if keep < 2*inc.cfg.MinActivityRun {
		keep = 2 * inc.cfg.MinActivityRun
	}
	drop := quietTail - keep
	if drop < 0 {
		drop = 0
	}
	if drop > len(inc.buf) {
		drop = len(inc.buf)
	}
	span := inc.buf[:len(inc.buf)-drop]
	seg := SegmentResult{
		Start: inc.pos - int64(len(inc.buf)),
		End:   inc.pos - int64(drop),
		Floor: inc.floorAtOpen,
	}
	seg.Result, seg.Err = inc.decodeSpan(span)
	tail := quietTail
	if tail > inc.cfg.PreRollSamples {
		tail = inc.cfg.PreRollSamples
	}
	if tail > len(inc.buf) {
		tail = len(inc.buf)
	}
	segBuf := inc.buf
	inc.buf = append(inc.preRoll, segBuf[len(segBuf)-tail:]...)
	inc.preRoll = nil
	putSegBuf(segBuf)
	inc.active = false
	inc.activeRun = 0
	inc.quietRun = 0
	return seg
}

// decodeSpan runs the configured per-segment algorithm: the plain
// Sec. 4.1 threshold pass, or the Sec. 5 two-phase car decode.
func (inc *Incremental) decodeSpan(span []float64) (Result, error) {
	if inc.cfg.TwoPhase {
		// DecodeCarPass only reads the trace: borrow the span.
		tp, err := DecodeCarPass(trace.Wrap(inc.fs, 0, span), inc.opt)
		return tp.Decode, err
	}
	return decodePass(span, inc.fs, inc.opt)
}

// trimPreRoll bounds the idle-state ring to PreRollSamples, compacting
// in O(1) amortized time.
func (inc *Incremental) trimPreRoll() {
	cap := inc.cfg.PreRollSamples
	if len(inc.buf) >= 2*cap {
		kept := inc.buf[len(inc.buf)-cap:]
		inc.buf = append(inc.buf[:0], kept...)
	}
}

// updateFloor advances the exponential noise-floor estimate. The
// floor adapts quickly during warmup, slowly while idle, and holds
// still while a segment is open (the packet is not noise).
func (inc *Incremental) updateFloor(x float64) {
	if inc.active {
		return
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		// A single non-finite sample must not poison the EMA — NaN
		// would stick forever (alpha*(clean-NaN) stays NaN).
		return
	}
	if inc.warmed == 0 {
		inc.floorMean = x
		inc.floorDev = 0
		inc.warmed = 1
		return
	}
	alpha := 1.0 / 256
	if inc.warmed < inc.cfg.WarmupSamples {
		alpha = 1.0 / 8
		inc.warmed++
	}
	inc.floorMean += alpha * (x - inc.floorMean)
	inc.floorDev += alpha * (math.Abs(x-inc.floorMean) - inc.floorDev)
}

// feedAlias is the batch Decode fast path: the stream IS this one
// slice, retained by reference so the wrapper adds no copy. Only
// valid on a fresh batch-mode Incremental whose caller will not
// mutate the slice before Flush — which is why it is not exported.
func (inc *Incremental) feedAlias(samples []float64) {
	inc.pos += int64(len(samples))
	inc.batchRef = samples
}

// Flush decodes whatever segment is still open (end of stream) and
// resets the machine to idle. In batch mode it decodes the entire
// retained stream as one segment, which is exactly the batch Decode.
func (inc *Incremental) Flush() []SegmentResult {
	if inc.cfg.PreRollSamples < 0 {
		span := inc.buf
		if inc.batchRef != nil {
			span = inc.batchRef
		}
		seg := SegmentResult{Start: inc.pos - int64(len(span)), End: inc.pos, Floor: inc.floorMean}
		seg.Result, seg.Err = inc.decodeSpan(span)
		inc.buf = inc.buf[:0]
		inc.batchRef = nil
		return []SegmentResult{seg}
	}
	if !inc.active {
		return nil
	}
	return []SegmentResult{inc.complete(inc.quietRun)}
}
