package stream

import (
	"errors"
	"fmt"
	"time"

	"passivelight/internal/decoder"
)

// Config tunes one streaming decode session.
type Config struct {
	// Fs is the sample rate of the session in Hz. Required.
	Fs float64
	// Decode tunes the per-segment adaptive threshold decode exactly
	// as in the batch decoder.
	Decode decoder.Options
	// PreRollSec is the quiet context retained before detected
	// activity. Zero selects 1 s; negative retains the entire stream
	// (batch-equivalent mode: detections only on Flush, unbounded
	// memory — for tests and offline replay).
	PreRollSec float64
	// ActivityMargin is the activity band half-width in multiples of
	// the tracked noise deviation. Zero selects 4.
	ActivityMargin float64
	// CarShape decodes each segment with the paper's Sec. 5 two-phase
	// outdoor algorithm (car signature, then roof-tag stripes) instead
	// of the plain indoor threshold pass.
	CarShape bool
}

func (c Config) incremental() decoder.IncrementalConfig {
	if c.PreRollSec < 0 {
		cfg := decoder.BatchConfig()
		cfg.TwoPhase = c.CarShape
		return cfg
	}
	cfg := decoder.IncrementalConfig{ActivityMargin: c.ActivityMargin, TwoPhase: c.CarShape}
	if c.PreRollSec > 0 {
		cfg.PreRollSamples = max(1, int(c.PreRollSec*c.Fs))
	}
	// A segment that grows past 60 s is force-decoded; the quiet hold
	// keeps the decoder's default (1.5 s).
	cfg.MaxSegmentSamples = max(1, int(60*c.Fs))
	return cfg
}

// Detection is one decoded (or undecodable) packet event emitted by a
// streaming session.
type Detection struct {
	// Session that produced the event (set by the Engine; zero for a
	// standalone Decoder).
	Session uint64
	// Bits is the decoded payload, one 0/1 value per bit. Empty when
	// Err is non-nil.
	Bits []byte
	// Symbols is the decoded symbol string in the paper's notation.
	Symbols string
	// Start and End are absolute sample indices of the decoded span
	// within the session's stream (End exclusive).
	Start, End int64
	// TimeSec is the stream time of the segment end (End / Fs).
	TimeSec float64
	// Wall estimates the wall-clock time of the segment end: the
	// session's first-sample arrival plus TimeSec. Set by the Engine;
	// zero for a standalone Decoder. For a stream paced in real time
	// this is the actual pass time, independent of when the segment
	// was decoded or consumed.
	Wall time.Time
	// Arrival is the wall-clock time the session was last fed before
	// the decode step that produced this detection — the anchor of
	// the detection-latency metric (arrival to emit). Set by the
	// Engine; zero for a standalone Decoder.
	Arrival time.Time
	// SymbolRate is the measured symbols/second (1/tau_t).
	SymbolRate float64
	// RSSPeak is the largest window maximum of the decode.
	RSSPeak float64
	// NoiseFloor is the tracked noise-floor mean when the segment
	// opened.
	NoiseFloor float64
	// Err is non-nil when the segment held no decodable packet
	// (glint, partial pass, low contrast). Such events are still
	// emitted so operators can count them.
	Err error
}

// BitString renders the payload as "0"/"1" text.
func (d Detection) BitString() string {
	out := make([]byte, len(d.Bits))
	for i, b := range d.Bits {
		out[i] = '0' + b
	}
	return string(out)
}

// Decoder is one streaming decode session over a single RSS sample
// stream. It is not safe for concurrent use; the Engine serializes
// access per session.
type Decoder struct {
	cfg Config
	inc *decoder.Incremental

	samples    int64
	detections int64
	errors     int64
}

// NewDecoder builds a streaming session. Its memory follows its state
// (see decoder.Incremental): a pre-roll buffer while idle, plus a
// pooled segment buffer while a segment is open.
func NewDecoder(cfg Config) (*Decoder, error) {
	if cfg.Fs <= 0 {
		return nil, errors.New("stream: config needs a positive sample rate Fs")
	}
	return &Decoder{cfg: cfg, inc: decoder.NewIncremental(cfg.Fs, cfg.Decode, cfg.incremental())}, nil
}

// Feed consumes one chunk of RSS samples and returns the detections
// that completed inside it, in stream order.
func (d *Decoder) Feed(chunk []float64) []Detection {
	d.samples += int64(len(chunk))
	return d.convert(d.inc.Feed(chunk))
}

// Flush decodes whatever segment is still open (end of stream).
func (d *Decoder) Flush() []Detection {
	return d.convert(d.inc.Flush())
}

func (d *Decoder) convert(segs []decoder.SegmentResult) []Detection {
	if len(segs) == 0 {
		return nil
	}
	// The batch comes from (and, when the consumer recycles, returns
	// to) the shared pool — one decode step no longer costs one heap
	// allocation for its batch header.
	out := getBatch(len(segs))
	for _, seg := range segs {
		det := Detection{
			Start:      seg.Start,
			End:        seg.End,
			TimeSec:    float64(seg.End) / d.cfg.Fs,
			NoiseFloor: seg.Floor,
		}
		for _, wm := range seg.Result.WindowMax {
			if wm > det.RSSPeak {
				det.RSSPeak = wm
			}
		}
		if seg.Result.Thresholds.TauT > 0 {
			det.SymbolRate = 1 / seg.Result.Thresholds.TauT
		}
		switch {
		case seg.Err != nil:
			det.Err = seg.Err
		case seg.Result.ParseErr != nil:
			det.Err = fmt.Errorf("stream: segment decoded but did not parse: %w", seg.Result.ParseErr)
			det.Symbols = seg.Result.SymbolString()
		default:
			det.Symbols = seg.Result.SymbolString()
			det.Bits = make([]byte, len(seg.Result.Packet.Data))
			for i, b := range seg.Result.Packet.Data {
				det.Bits[i] = byte(b)
			}
		}
		if det.Err != nil {
			d.errors++
		} else {
			d.detections++
		}
		out = append(out, det)
	}
	return out
}

// Buffered returns the number of samples currently retained by the
// session (its memory footprint).
func (d *Decoder) Buffered() int { return d.inc.Buffered() }

// Retained returns the capacity, in samples, of the buffers the
// session holds — what Buffered costs in memory.
func (d *Decoder) Retained() int { return d.inc.Retained() }

// SessionStats summarizes one session.
type SessionStats struct {
	Samples    int64
	Detections int64
	Errors     int64
	Buffered   int
}

// Stats returns the session counters.
func (d *Decoder) Stats() SessionStats {
	return SessionStats{
		Samples:    d.samples,
		Detections: d.detections,
		Errors:     d.errors,
		Buffered:   d.inc.Buffered(),
	}
}
