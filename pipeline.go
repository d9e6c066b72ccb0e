package passivelight

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"passivelight/internal/coding"
	"passivelight/internal/decoder"
	"passivelight/internal/rxnet"
	"passivelight/internal/stream"
	"passivelight/internal/telemetry"
	"passivelight/internal/trace"
)

// ClassifierMatch is one DTW classification candidate (label +
// distance, ascending).
type ClassifierMatch = decoder.Match

// Event is one output of a running Pipeline. Streaming strategies
// (Threshold, TwoPhase) fill the embedded detection; whole-stream
// strategies add their analysis: Collision fills Collision,
// DTWClassify fills Label/Matches. WithCodebook fills
// CodeIndex/CodeDistance on successfully decoded events.
type Event struct {
	StreamDetection
	// Label is the nearest-baseline label from a DTWClassify
	// pipeline.
	Label string
	// Matches is the full ordered candidate list from DTWClassify.
	Matches []ClassifierMatch
	// Collision is the Sec. 4.3 frequency-domain report from a
	// Collision pipeline.
	Collision *CollisionReport
	// CodeIndex is the nearest codeword index when WithCodebook is
	// set (-1 otherwise or on decode errors); CodeDistance is its
	// Hamming distance to the decoded bits (0 = exact read).
	CodeIndex    int
	CodeDistance int
}

// strategyKind selects the decode algorithm bound to a pipeline.
type strategyKind int

const (
	strategyThreshold strategyKind = iota + 1
	strategyTwoPhase
	strategyCollision
	strategyDTW
)

// Strategy selects the decode algorithm a Pipeline binds to its
// source. Threshold and TwoPhase run online on the streaming engine
// (bounded memory, many concurrent sessions); Collision and
// DTWClassify are whole-stream analyses that buffer each session and
// run at end of stream.
type Strategy struct {
	kind       strategyKind
	collision  CollisionOptions
	classifier *Classifier
}

// Threshold decodes with the paper's Sec. 4.1 adaptive threshold
// algorithm (per-packet tau_r/tau_t).
func Threshold() Strategy { return Strategy{kind: strategyThreshold} }

// TwoPhase decodes with the paper's Sec. 5 outdoor algorithm: the
// car's optical signature as a long-duration preamble, then the
// roof-tag stripe decode.
func TwoPhase() Strategy { return Strategy{kind: strategyTwoPhase} }

// Collision analyzes each stream with the Sec. 4.3 FFT collision
// analyzer instead of decoding it; events carry the spectral report.
func Collision(opt CollisionOptions) Strategy {
	return Strategy{kind: strategyCollision, collision: opt}
}

// DTWClassify matches each stream against the classifier's clean
// baselines with DTW (Sec. 4.2); events carry the ranked labels.
func DTWClassify(c *Classifier) Strategy {
	return Strategy{kind: strategyDTW, classifier: c}
}

// StrategyForScenario maps a scenario's decode hint onto a pipeline
// strategy. Only the streaming hints are data-only: "threshold" and
// "two-phase" resolve directly. "collision" and "dtw" need options or
// a baseline database (build Collision/DTWClassify yourself), and
// "shape"/"none" have no pipeline form — those return an error naming
// the hint, so generic drivers (plsim -load, plnet -mode load) fail
// with the same message.
func StrategyForScenario(decode ScenarioDecode) (Strategy, error) {
	switch decode.Strategy {
	case "threshold":
		return Threshold(), nil
	case "two-phase":
		return TwoPhase(), nil
	default:
		return Strategy{}, fmt.Errorf("passivelight: decode hint %q has no data-only pipeline strategy (want threshold | two-phase)", decode.Strategy)
	}
}

func (s Strategy) String() string {
	switch s.kind {
	case strategyThreshold:
		return "threshold"
	case strategyTwoPhase:
		return "two-phase"
	case strategyCollision:
		return "collision"
	case strategyDTW:
		return "dtw-classify"
	default:
		return "invalid"
	}
}

// Pipeline binds a Source to a decode Strategy plus sinks: one
// composable surface over the batch, streaming and two-phase decode
// paths. Configure with functional options, then call Run (collect
// everything) or Stream (consume events as they happen); both honor
// context cancellation end to end. The streaming engine is the
// execution substrate: every chunk is routed to a per-session decoder
// on a worker pool, so one pipeline serves a single recorded trace
// and a thousand live receiver nodes with the same code path.
//
// A Pipeline is single-shot: Run or Stream may be called once.
type Pipeline struct {
	src   Source
	strat Strategy
	cfg   pipeConfig

	started atomic.Bool

	mu     sync.Mutex
	engine *stream.Engine
	err    error

	samplesIn atomic.Int64
	tel       *pipeTel
	// acks is the NetSource listener the pulled chunks came from (nil
	// for other sources): idle session releases ack through it.
	acks atomic.Pointer[rxnet.ChunkListener]
}

// pipeTel is the pipeline's own telemetry surface, one per-strategy
// label set over the shared registry. The engine contributes its own
// pl_engine_* series separately (wired through EngineConfig.Metrics).
type pipeTel struct {
	events  *telemetry.Counter
	errors  *telemetry.Counter
	latency *telemetry.Histogram
}

func newPipeTel(reg *telemetry.Registry, strategy string) *pipeTel {
	label := fmt.Sprintf("{strategy=%q}", strategy)
	return &pipeTel{
		events: reg.Counter("pl_pipeline_events_total"+label,
			"Events emitted by the pipeline (decode errors included)."),
		errors: reg.Counter("pl_pipeline_event_errors_total"+label,
			"Emitted events that carry a decode/analysis error."),
		latency: reg.Histogram("pl_pipeline_detection_latency_ns"+label,
			"Chunk arrival to event emit on the pipeline forwarder, nanoseconds."),
	}
}

// NewPipeline binds a source to a decode strategy.
func NewPipeline(src Source, strat Strategy, opts ...Option) (*Pipeline, error) {
	if src == nil {
		return nil, errors.New("passivelight: pipeline needs a source")
	}
	if strat.kind == 0 {
		return nil, errors.New("passivelight: pipeline needs a strategy (Threshold, TwoPhase, Collision or DTWClassify)")
	}
	if strat.kind == strategyDTW && strat.classifier == nil {
		return nil, errors.New("passivelight: DTWClassify needs a classifier")
	}
	p := &Pipeline{src: src, strat: strat}
	for _, opt := range opts {
		opt(&p.cfg)
	}
	return p, nil
}

// eventBuffer is the capacity of the event channel Stream returns,
// and of the engine's detection-batch channel behind it.
const eventBuffer = 1024

// Stream starts the pipeline and returns its event channel. The
// channel is closed when the source ends (io.EOF), the context is
// canceled, or the source fails; check Err afterwards. Events flow
// through WithSink callbacks first, then the channel.
func (p *Pipeline) Stream(ctx context.Context) (<-chan Event, error) {
	if !p.started.CompareAndSwap(false, true) {
		return nil, errors.New("passivelight: pipeline already started")
	}
	if p.cfg.metrics != nil {
		p.tel = newPipeTel(p.cfg.metrics, p.strat.String())
	}
	if p.cfg.autoSelectOn {
		rs, ok := p.src.(receiverSelectable)
		if !ok {
			return nil, fmt.Errorf("passivelight: source does not support WithReceiverAutoSelect")
		}
		if err := rs.applyReceiverAutoSelect(p.cfg.autoSelect); err != nil {
			return nil, err
		}
	}
	info, err := p.src.Open(ctx)
	if err != nil {
		return nil, err
	}
	out := make(chan Event, eventBuffer)
	switch p.strat.kind {
	case strategyThreshold, strategyTwoPhase:
		if err := p.startEngine(ctx, info.Fs, out); err != nil {
			// The source was opened but no goroutine owns it yet.
			p.src.Close()
			return nil, err
		}
		return out, nil
	default:
		go p.runWholeStream(ctx, info.Fs, out)
		return out, nil
	}
}

// startEngine wires the streaming-engine substrate: a pull goroutine
// routing source chunks into per-session decoders, and a forwarder
// turning engine detections into events.
func (p *Pipeline) startEngine(ctx context.Context, fs float64, out chan Event) error {
	sessionFs := fs
	if sessionFs == 0 {
		// Placeholder; sources without a declared rate must carry
		// per-chunk rates, which the pull loop enforces.
		sessionFs = 1000
	}
	eng, err := stream.NewEngine(stream.EngineConfig{
		Session: stream.Config{
			Fs:         sessionFs,
			Decode:     p.cfg.decode,
			PreRollSec: p.cfg.preRollSec,
			CarShape:   p.strat.kind == strategyTwoPhase,
		},
		Workers:         p.cfg.workers,
		Shards:          p.cfg.shards,
		IdleTimeout:     p.cfg.idleTimeout,
		DetectionBuffer: cap(out),
		MaxSessions:     p.cfg.maxSessions,
		OnSessionEnd:    p.sessionEnded,
		Metrics:         p.cfg.metrics,
	})
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.engine = eng
	p.mu.Unlock()

	// Forwarder: engine detection batches -> sinks -> event channel,
	// one receive per decode step. Runs until the engine closes the
	// channel (after flushing every session), so no event is lost on
	// shutdown.
	go func() {
		for batch := range eng.Batches() {
			for _, det := range batch {
				p.emit(out, p.event(det))
			}
			// The events copied everything they need; hand the batch
			// slice back to the engine's pool.
			stream.RecycleBatch(batch)
		}
		close(out)
	}()

	// Pull loop: source chunks -> engine sessions.
	go func() {
		defer eng.Close()
		defer p.src.Close()
		for {
			chunk, err := p.src.Next(ctx)
			if err == io.EOF {
				return
			}
			if err != nil {
				p.fail(err)
				return
			}
			if chunk.Reset {
				// A restarted stream must not splice into the old
				// epoch; an unknown session is fine (nothing to end).
				if err := eng.EndSession(chunk.Session); err != nil && !errors.Is(err, stream.ErrSessionEvicted) {
					p.fail(err)
					return
				}
			}
			if len(chunk.Samples) == 0 {
				chunk.Release()
				continue
			}
			if chunk.Fs == 0 && fs == 0 {
				chunk.Release()
				p.fail(fmt.Errorf("passivelight: session %d chunk carries no sample rate and the source declares none", chunk.Session))
				return
			}
			if chunk.acks != nil && p.acks.Load() == nil {
				p.acks.Store(chunk.acks)
			}
			p.samplesIn.Add(int64(len(chunk.Samples)))
			err = eng.FeedTagged(chunk.Session, chunk.Fs, chunk.Samples, chunk.ackTag())
			// Feed has copied the samples into the session ring (or
			// dropped them); the pooled wire buffer can go back now.
			chunk.Release()
			if err != nil {
				p.fail(err)
				return
			}
		}
	}()
	return nil
}

// sessionEnded is the engine's release hook. An idle release means
// the session decoded and flushed everything it was fed, so the
// pipeline acks its stream upstream through the last chunk it fed
// (the engine's feed tag) — not through the listener's cursor, which
// may already cover chunks still queued for a fresh session. End and
// close releases are not acked: an end means the stream moved away or
// restarted (a new epoch the ack must not alias), and close means the
// engine is going down.
func (p *Pipeline) sessionEnded(id uint64, stats SessionStats, reason string, tag uint64) {
	if reason == "idle" && tag != 0 {
		if l := p.acks.Load(); l != nil {
			l.AckThrough(id, uint32(tag>>32), uint32(tag))
		}
	}
	if p.cfg.onSessionEnd != nil {
		p.cfg.onSessionEnd(id, stats, reason)
	}
}

// runWholeStream buffers each session and runs the whole-stream
// analysis (Collision, DTWClassify) at end of stream — or at a Reset
// boundary, which closes the session's previous epoch.
func (p *Pipeline) runWholeStream(ctx context.Context, fs float64, out chan Event) {
	defer close(out)
	defer p.src.Close()
	type accum struct {
		fs  float64
		buf []float64
	}
	bufs := make(map[uint64]*accum)
	var order []uint64
	analyze := func(id uint64, a *accum) {
		if len(a.buf) == 0 {
			return
		}
		p.emit(out, p.analyzeWhole(id, a.fs, a.buf))
		a.buf = nil
	}
	for {
		chunk, err := p.src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			p.fail(err)
			return
		}
		cfs := chunk.Fs
		if cfs == 0 {
			cfs = fs
		}
		if cfs == 0 {
			p.fail(fmt.Errorf("passivelight: session %d chunk carries no sample rate and the source declares none", chunk.Session))
			return
		}
		a, ok := bufs[chunk.Session]
		if !ok {
			a = &accum{fs: cfs}
			bufs[chunk.Session] = a
			order = append(order, chunk.Session)
		}
		if chunk.Reset {
			analyze(chunk.Session, a)
			a.fs = cfs
		}
		a.buf = append(a.buf, chunk.Samples...)
		p.samplesIn.Add(int64(len(chunk.Samples)))
		chunk.Release()
	}
	for _, id := range order {
		analyze(id, bufs[id])
	}
}

// analyzeWhole runs the whole-stream strategy over one session's
// buffered samples.
func (p *Pipeline) analyzeWhole(id uint64, fs float64, buf []float64) Event {
	ev := Event{CodeIndex: -1}
	ev.Session = id
	ev.End = int64(len(buf))
	ev.TimeSec = float64(len(buf)) / fs
	tr := trace.New(fs, 0, buf)
	switch p.strat.kind {
	case strategyCollision:
		rep, err := decoder.AnalyzeCollision(tr, p.strat.collision)
		if err != nil {
			ev.Err = err
			return ev
		}
		ev.Collision = &rep
	case strategyDTW:
		matches, err := p.strat.classifier.Classify(tr)
		if err != nil {
			ev.Err = err
			return ev
		}
		ev.Matches = matches
		if len(matches) > 0 {
			ev.Label = matches[0].Label
		}
	}
	return ev
}

// event converts one engine detection into a pipeline event, applying
// the codebook stage.
func (p *Pipeline) event(det StreamDetection) Event {
	ev := Event{StreamDetection: det, CodeIndex: -1}
	if p.cfg.codebook != nil && det.Err == nil {
		bits := make([]coding.Bit, len(det.Bits))
		for i, b := range det.Bits {
			bits[i] = coding.Bit(b)
		}
		ev.CodeIndex, ev.CodeDistance = p.cfg.codebook.Decode(bits)
	}
	return ev
}

// emit runs sinks and delivers the event in stream order.
func (p *Pipeline) emit(out chan Event, ev Event) {
	if p.tel != nil {
		p.tel.events.Inc()
		if ev.Err != nil {
			p.tel.errors.Inc()
		}
		// Whole-stream strategies carry no arrival stamp (they analyze
		// at end of stream); only streaming events feed the latency
		// histogram.
		if !ev.Arrival.IsZero() {
			p.tel.latency.Observe(int64(time.Since(ev.Arrival)))
		}
	}
	for _, sink := range p.cfg.sinks {
		sink(ev)
	}
	out <- ev
}

// Run starts the pipeline and collects every event until the source
// ends or the context is canceled. The returned error is the first
// pipeline failure (context cancellation included); per-segment
// decode errors arrive as events with Err set, not as a Run error.
func (p *Pipeline) Run(ctx context.Context) ([]Event, error) {
	ch, err := p.Stream(ctx)
	if err != nil {
		return nil, err
	}
	var events []Event
	for ev := range ch {
		events = append(events, ev)
	}
	return events, p.Err()
}

// Flush forces end-of-stream on every open session of a streaming
// strategy: pending samples decode and open segments flush now,
// without waiting out the quiet hold. No-op for whole-stream
// strategies (they analyze when the source ends).
func (p *Pipeline) Flush() {
	p.mu.Lock()
	eng := p.engine
	p.mu.Unlock()
	if eng != nil {
		eng.FlushAll()
	}
}

// Stats returns an operational snapshot: the engine's counters for
// streaming strategies, or the ingest count for whole-stream ones.
func (p *Pipeline) Stats() StreamStats {
	p.mu.Lock()
	eng := p.engine
	p.mu.Unlock()
	if eng != nil {
		return eng.Stats()
	}
	return StreamStats{SamplesIn: p.samplesIn.Load()}
}

// Occupancy reports the streaming engine's queue fill on a 0..1
// scale (0 before the engine starts or for whole-stream strategies).
// Feed it to NetSource.AutoThrottle to close the cluster
// backpressure loop.
func (p *Pipeline) Occupancy() float64 {
	p.mu.Lock()
	eng := p.engine
	p.mu.Unlock()
	if eng == nil {
		return 0
	}
	return eng.Occupancy()
}

// Err returns the first pipeline failure (nil on a clean end of
// stream). Meaningful once the Stream channel has closed or Run has
// returned.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}
