package passivelight

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"passivelight/internal/rxnet"
)

// SourceChunk is one batch of RSS samples produced by a Source.
type SourceChunk struct {
	// Session distinguishes concurrent streams from a multi-stream
	// source (e.g. one per receiver node); single-stream sources leave
	// it zero.
	Session uint64
	// Fs is the chunk's sample rate; zero adopts the source's default
	// rate from SourceInfo.
	Fs float64
	// Samples are RSS values (ADC counts). The slice may be reused by
	// the source after the pipeline consumes the chunk; consumers that
	// retain it must copy.
	Samples []float64
	// Reset marks a restarted stream (reconnect, sequence gap): the
	// pipeline ends any open decode session for Session before feeding
	// these samples, so old and new epochs cannot splice together.
	Reset bool
	// buf, when non-nil, is the pooled buffer backing Samples (the
	// rxnet listener pool). The pipeline calls Release once the
	// samples have been consumed; sources whose chunks are plain
	// slices leave it nil.
	buf *rxnet.SampleBuf
	// acks, epoch and seq name the chunk in its NetSource listener, so
	// the pipeline can acknowledge consumption through exactly this
	// chunk. They survive a pass-through Source wrapping the NetSource;
	// acks is nil for every other source.
	acks       *rxnet.ChunkListener
	epoch, seq uint32
}

// Release hands the chunk's sample buffer back to its source's pool,
// if the chunk carries one. After Release the Samples slice must not
// be used. Safe to call on any chunk (no-op without a pooled buffer)
// but not twice on the same pooled chunk.
func (c SourceChunk) Release() { c.buf.Release() }

// ackTag packs the chunk's listener epoch and Seq into the engine's
// feed tag, which the engine stamps on each detection (Detection.Tag)
// and hands to the release hook; the pipeline acks through it. It is
// 0 for chunks of other sources (listener epochs start at 1).
func (c SourceChunk) ackTag() uint64 { return uint64(c.epoch)<<32 | uint64(c.seq) }

// SourceInfo describes an opened source.
type SourceInfo struct {
	// Fs is the default sample rate (Hz) for chunks that do not carry
	// their own. Zero means every chunk declares its rate (network
	// sources) — the pipeline then requires per-chunk rates.
	Fs float64
	// Name labels the source in diagnostics.
	Name string
}

// Source produces RSS sample chunks for a Pipeline: a recorded trace,
// a live chunked feed, a simulated link, or a receiver-network stream.
// The pipeline calls Open once, Next until it returns io.EOF (or the
// context is canceled), then Close. Implementations need not be safe
// for concurrent use; the pipeline serializes calls.
type Source interface {
	// Open starts the source and reports its default sample rate.
	Open(ctx context.Context) (SourceInfo, error)
	// Next returns the next chunk, blocking until one is available.
	// io.EOF ends the stream cleanly; ctx cancellation should abort a
	// blocked Next with ctx.Err().
	Next(ctx context.Context) (SourceChunk, error)
	// Close releases the source's resources. It must be safe to call
	// after Next returned an error.
	Close() error
}

// TraceSource replays a recorded trace in chunks.
type TraceSource struct {
	tr    *Trace
	chunk int
	pos   int
}

// NewTraceSource wraps a recorded trace as a source, replayed in
// chunks of chunkSize samples (<= 0 replays the whole trace as one
// chunk). Decoding a trace through a Pipeline in batch-equivalent
// mode (WithPreRoll(-1)) is bit-identical to the batch Decode.
func NewTraceSource(tr *Trace, chunkSize int) *TraceSource {
	return &TraceSource{tr: tr, chunk: chunkSize}
}

// Open implements Source.
func (s *TraceSource) Open(ctx context.Context) (SourceInfo, error) {
	if s.tr == nil || s.tr.Len() == 0 {
		return SourceInfo{}, errors.New("passivelight: trace source has no samples")
	}
	if s.chunk <= 0 {
		s.chunk = s.tr.Len()
	}
	s.pos = 0
	return SourceInfo{Fs: s.tr.Fs, Name: "trace"}, nil
}

// Next implements Source.
func (s *TraceSource) Next(ctx context.Context) (SourceChunk, error) {
	if err := ctx.Err(); err != nil {
		return SourceChunk{}, err
	}
	if s.pos >= s.tr.Len() {
		return SourceChunk{}, io.EOF
	}
	hi := s.pos + s.chunk
	if hi > s.tr.Len() {
		hi = s.tr.Len()
	}
	out := SourceChunk{Samples: s.tr.Samples[s.pos:hi]}
	s.pos = hi
	return out, nil
}

// Close implements Source.
func (s *TraceSource) Close() error { return nil }

// SimSource simulates a configured scenario on Open and replays the
// rendered trace as one chunk — the programmatic equivalent of one
// pass of the paper's testbed feeding the decode pipeline.
type SimSource struct {
	build func() (*Link, Packet, error)
	name  string

	customize  []func(*Link)
	selectHook func(cands []ReceiverDevice) error

	packet      Packet
	trace       *Trace
	inner       *TraceSource
	receiverTag string
}

// compileSpec compiles a scenario spec into its link and first tag
// payload.
func compileSpec(spec Scenario) (*Link, Packet, error) {
	c, err := spec.Compile()
	if err != nil {
		return nil, Packet{}, err
	}
	return c.Link, c.Packet(), nil
}

// NewScenarioSource simulates any declarative scenario — a registry
// preset, a -spec JSON file, or a hand-built Spec — as a pipeline
// source. With WithReceiverAutoSelect the receiver device is chosen
// per the Sec. 4.4 dual-receiver policy against the scenario's
// ambient level (uniform optics only) before compilation; note the
// swap keeps an explicitly set DurationSec, so presets sized for one
// device's FoV should leave DurationSec zero if they expect
// auto-selection to change the footprint materially.
func NewScenarioSource(spec Scenario) *SimSource {
	s := &SimSource{name: "scenario"}
	if spec.Name != "" {
		s.name = spec.Name
	}
	s.build = func() (*Link, Packet, error) { return compileSpec(spec) }
	s.selectHook = func(cands []ReceiverDevice) error {
		floor, ok := spec.AmbientLux()
		if !ok {
			return fmt.Errorf("passivelight: scenario %q has no ambient noise floor (optics %q); receiver auto-select needs a uniform source", s.name, spec.Optics.Kind)
		}
		dev, err := SelectReceiver(floor, cands...)
		if err != nil {
			return err
		}
		spec.SetReceiverDevice(dev)
		s.receiverTag = dev.Name
		return nil
	}
	return s
}

// NewBenchSource simulates the paper's indoor bench (Sec. 4) as a
// pipeline source — a thin preset wrapper over the scenario layer.
func NewBenchSource(b IndoorBench) *SimSource {
	s := &SimSource{name: "bench"}
	s.build = func() (*Link, Packet, error) {
		spec, err := b.Spec()
		if err != nil {
			return nil, Packet{}, err
		}
		return compileSpec(spec)
	}
	return s
}

// NewCarPassSource simulates the paper's outdoor car pass (Sec. 5) as
// a pipeline source — a thin preset wrapper over the scenario layer.
// With WithReceiverAutoSelect the receiver device is chosen per the
// Sec. 4.4 dual-receiver policy against the pass's ambient noise
// floor before the scenario is compiled.
func NewCarPassSource(p OutdoorCarPass) *SimSource {
	s := &SimSource{name: "carpass"}
	// The build closure and the select hook share p, so auto-selecting
	// a receiver before Open changes the spec the scenario layer
	// compiles (lead-in geometry and window follow the device's FoV).
	s.build = func() (*Link, Packet, error) {
		spec, err := p.Spec()
		if err != nil {
			return nil, Packet{}, err
		}
		return compileSpec(spec)
	}
	s.selectHook = func(cands []ReceiverDevice) error {
		dev, err := SelectReceiver(p.NoiseFloorLux, cands...)
		if err != nil {
			return err
		}
		p.Receiver = dev
		s.receiverTag = dev.Name
		return nil
	}
	return s
}

// receiverSelectable is implemented by sources that can apply the
// WithReceiverAutoSelect policy (they know their ambient level).
type receiverSelectable interface {
	applyReceiverAutoSelect(cands []ReceiverDevice) error
}

func (s *SimSource) applyReceiverAutoSelect(cands []ReceiverDevice) error {
	if s.selectHook == nil {
		return fmt.Errorf("passivelight: source %q does not support receiver auto-select", s.name)
	}
	return s.selectHook(cands)
}

// Customize registers a hook run on the built link before simulation
// (swap the light source, bend the trajectory...). Returns the source
// for chaining.
func (s *SimSource) Customize(fn func(*Link)) *SimSource {
	s.customize = append(s.customize, fn)
	return s
}

// Open implements Source: build the link, render the channel, and
// prepare the replay.
func (s *SimSource) Open(ctx context.Context) (SourceInfo, error) {
	if err := ctx.Err(); err != nil {
		return SourceInfo{}, err
	}
	link, pkt, err := s.build()
	if err != nil {
		return SourceInfo{}, err
	}
	for _, fn := range s.customize {
		fn(link)
	}
	tr, err := link.Simulate()
	if err != nil {
		return SourceInfo{}, err
	}
	s.packet, s.trace = pkt, tr
	s.inner = NewTraceSource(tr, 0)
	info, err := s.inner.Open(ctx)
	info.Name = s.name
	return info, err
}

// Next implements Source.
func (s *SimSource) Next(ctx context.Context) (SourceChunk, error) {
	if s.inner == nil {
		return SourceChunk{}, errors.New("passivelight: source not opened")
	}
	return s.inner.Next(ctx)
}

// Close implements Source.
func (s *SimSource) Close() error { return nil }

// Packet returns the payload physically encoded on the simulated tag
// (zero value for bare-car passes). Valid after the pipeline opened
// the source. Multi-object scenarios report their first tag; the
// load source's Streams list every payload.
func (s *SimSource) Packet() Packet { return s.packet }

// Trace returns the rendered trace. Valid after the pipeline opened
// the source.
func (s *SimSource) Trace() *Trace { return s.trace }

// Receiver returns the name of the receiver device chosen by
// WithReceiverAutoSelect (empty without it).
func (s *SimSource) Receiver() string { return s.receiverTag }

// MultiStream identifies one link of an opened MultiSource: which
// load session and which receiver of the compiled scenario the
// stream id stands for. Pipeline events carry the stream id in
// Event.Session, so detections attribute back through this table.
type MultiStream struct {
	// ID is the stream id chunks carry (ScenarioStreamID(Session,
	// Receiver)).
	ID uint64
	// Session is the load session index.
	Session int
	// Receiver is the receiver index within the scenario.
	Receiver int
	// Name labels the receiver ("pole-led", "rx0-pd-G1", ...).
	Name string
	// Scenario is the per-session spec name.
	Scenario string
	// Packets are the payloads physically present in the stream's
	// world, in object order.
	Packets []ScenarioPacket
}

// multiStream is one link's replay state.
type multiStream struct {
	info MultiStream
	link *Link
	fs   float64
	tr   *Trace
	pos  int
}

// multiChunk is the replay chunk size of a MultiSource, in samples.
const multiChunk = 1024

// MultiSource compiles an expanded Load (NewLoadSource) into
// sessions × receivers deterministic links and replays them as one
// interleaved multi-session stream: every chunk carries its link's
// stream id, so one Pipeline decodes the whole receiver network (or
// fleet) concurrently and events attribute back to (session,
// receiver) through Streams. Links render lazily as their replay
// starts.
type MultiSource struct {
	name  string
	build func() ([]*multiStream, error)
	paced bool

	streams []*multiStream
	active  []*multiStream
	cursor  int
	start   time.Time // wall-clock anchor of a paced replay
}

// NewLoadSource expands a load spec into its staggered per-session
// scenarios, compiles every session's receiver links, and replays
// sessions × receivers streams into one pipeline — spec-driven load
// generation for engine-scale runs. One session with no stagger or
// jitter replays the base scenario itself, every receiver a stream.
//
// By default the replay runs as fast as possible (right for
// throughput tests and benchmarks). The load's Pace field switches it
// to stream-clock pacing: a chunk whose first sample lies at t
// seconds into its stream is not emitted before t seconds of wall
// clock have elapsed since the first Next, so every stream delivers
// samples at its own rate in real time — the replay a live receiver
// fleet would produce, which a cluster drain rehearsal or latency
// measurement needs.
func NewLoadSource(load ScenarioLoad) *MultiSource {
	s := &MultiSource{name: "load", paced: load.Pace}
	if load.Name != "" {
		s.name = load.Name
	}
	s.build = func() ([]*multiStream, error) {
		specs, err := load.Expand()
		if err != nil {
			return nil, err
		}
		var out []*multiStream
		for k, spec := range specs {
			m, err := spec.CompileMulti()
			if err != nil {
				return nil, fmt.Errorf("passivelight: load session %d: %w", k, err)
			}
			out = append(out, multiStreams(m, k)...)
		}
		return out, nil
	}
	return s
}

// multiStreams keys one compiled scenario's links under a session
// index.
func multiStreams(m *ScenarioMultiWorld, session int) []*multiStream {
	out := make([]*multiStream, len(m.Links))
	for i, l := range m.Links {
		// The front-end chain carries the compile-resolved sample
		// rate, so chunks always declare the rate the trace actually
		// renders at.
		fs := l.Link.Frontend.Fs
		out[i] = &multiStream{
			info: MultiStream{
				ID:       ScenarioStreamID(session, l.Index),
				Session:  session,
				Receiver: l.Index,
				Name:     l.Name,
				Scenario: m.Spec.Name,
				Packets:  m.Packets,
			},
			link: l.Link,
			fs:   fs,
		}
	}
	return out
}

// Open implements Source: compile every link. Rendering is lazy (a
// link simulates when its replay starts).
func (s *MultiSource) Open(ctx context.Context) (SourceInfo, error) {
	if err := ctx.Err(); err != nil {
		return SourceInfo{}, err
	}
	streams, err := s.build()
	if err != nil {
		return SourceInfo{}, err
	}
	if len(streams) == 0 {
		return SourceInfo{}, errors.New("passivelight: multi source compiled no links")
	}
	s.streams = streams
	s.active = append([]*multiStream(nil), streams...)
	s.cursor = 0
	// Chunks always carry their own rate (links may sample at
	// different rates); declare the common one when it exists.
	info := SourceInfo{Fs: streams[0].fs, Name: s.name}
	for _, st := range streams {
		if st.fs != info.Fs {
			info.Fs = 0
			break
		}
	}
	return info, nil
}

// Next implements Source: round-robin one chunk per live stream. The
// first chunk of every stream is a Reset, so re-used stream ids (or
// engine-evicted sessions) start a fresh decode epoch.
func (s *MultiSource) Next(ctx context.Context) (SourceChunk, error) {
	if err := ctx.Err(); err != nil {
		return SourceChunk{}, err
	}
	if s.streams == nil {
		return SourceChunk{}, errors.New("passivelight: source not opened")
	}
	if len(s.active) == 0 {
		return SourceChunk{}, io.EOF
	}
	if s.cursor >= len(s.active) {
		s.cursor = 0
	}
	st := s.active[s.cursor]
	if st.tr == nil {
		tr, err := st.link.Simulate()
		if err != nil {
			return SourceChunk{}, fmt.Errorf("passivelight: stream %d (%s): %w", st.info.ID, st.info.Name, err)
		}
		st.tr = tr
	}
	if s.paced {
		if s.start.IsZero() {
			s.start = time.Now()
		}
		// Round-robin keeps active streams within one chunk of each
		// other, so gating each chunk on its own stream clock paces the
		// whole interleave.
		due := s.start.Add(time.Duration(float64(st.pos) / st.fs * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return SourceChunk{}, ctx.Err()
			}
		}
	}
	hi := min(st.pos+multiChunk, st.tr.Len())
	out := SourceChunk{
		Session: st.info.ID,
		Fs:      st.fs,
		Samples: st.tr.Samples[st.pos:hi],
		Reset:   st.pos == 0,
	}
	st.pos = hi
	if st.pos >= st.tr.Len() {
		// Stream done: release its trace.
		st.tr = nil
		s.active = append(s.active[:s.cursor], s.active[s.cursor+1:]...)
	} else {
		s.cursor++
	}
	return out, nil
}

// Close implements Source.
func (s *MultiSource) Close() error { return nil }

// Streams describes every link of the source, in replay order. Valid
// after the pipeline opened the source.
func (s *MultiSource) Streams() []MultiStream {
	out := make([]MultiStream, len(s.streams))
	for i, st := range s.streams {
		out[i] = st.info
	}
	return out
}

// ChunkSource adapts a live feed: the producer sends SourceChunks on
// a channel (closing it to signal end of stream), the pipeline pulls
// them. Chunks may carry per-session ids and rates, so one ChunkSource
// can multiplex many physical receivers.
type ChunkSource struct {
	fs float64
	ch <-chan SourceChunk
}

// NewChunkSource wraps a channel of chunks as a source with the given
// default sample rate. Close the channel to end the stream.
func NewChunkSource(fs float64, ch <-chan SourceChunk) *ChunkSource {
	return &ChunkSource{fs: fs, ch: ch}
}

// Open implements Source.
func (s *ChunkSource) Open(ctx context.Context) (SourceInfo, error) {
	if s.ch == nil {
		return SourceInfo{}, errors.New("passivelight: chunk source has no channel")
	}
	return SourceInfo{Fs: s.fs, Name: "chunks"}, nil
}

// Next implements Source.
func (s *ChunkSource) Next(ctx context.Context) (SourceChunk, error) {
	select {
	case c, ok := <-s.ch:
		if !ok {
			return SourceChunk{}, io.EOF
		}
		return c, nil
	case <-ctx.Done():
		return SourceChunk{}, ctx.Err()
	}
}

// Close implements Source.
func (s *ChunkSource) Close() error { return nil }

// NodeHello is a receiver node's registration (id, position, name) as
// seen by a NetSource.
type NodeHello = rxnet.Hello

// NetSource accepts receiver-node connections speaking the rxnet
// frame protocol and yields their raw SampleChunk streams — the
// paper's testbed inverted, with all DSP running wherever the
// pipeline runs. Each (node, stream) pair becomes one pipeline
// session; reconnects and sequence gaps arrive as Reset chunks so
// decode epochs cannot splice.
type NetSource struct {
	l       *rxnet.ChunkListener
	onHello func(NodeHello)
}

// NetSourceConfig tunes a NetSource's ingest path.
type NetSourceConfig struct {
	// Telemetry registers the listener's ingest series (per-node
	// ingest bytes, frame errors, queue depth, close-time drops) into
	// the registry — typically the same one passed to WithTelemetry.
	Telemetry *Telemetry
	// PaceGuardIdle, when positive, is this engine's session idle
	// timeout: if an arriving chunk spans at least that much signal
	// time (its pacing gap would expire idle sessions between
	// chunks), the listener warns once and publishes the worst ratio
	// as pl_rxnet_pace_gap_ratio.
	PaceGuardIdle time.Duration
	// Logf receives transport diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// ListenSourceConfig starts a NetSource listening on addr
// ("host:port"; empty port picks an ephemeral one). The zero config
// runs with no telemetry and no pace guard.
func ListenSourceConfig(addr string, cfg NetSourceConfig) (*NetSource, error) {
	l, err := rxnet.ListenChunksConfig(addr, rxnet.ChunkListenerConfig{
		Logf:          cfg.Logf,
		Metrics:       cfg.Telemetry,
		PaceGuardIdle: cfg.PaceGuardIdle,
	})
	if err != nil {
		return nil, err
	}
	return &NetSource{l: l}, nil
}

// Addr returns the bound listen address (for nodes to Dial).
func (s *NetSource) Addr() string { return s.l.Addr() }

// DroppedChunks reports how many chunks the source discarded because
// it closed while its ingest queue was full. Ingest is otherwise
// lossless (a full queue pushes back on the nodes over TCP), so this
// is zero until Close.
func (s *NetSource) DroppedChunks() int64 { return s.l.DroppedChunks() }

// DuplicateChunks reports how many replayed chunks the ingest side
// discarded because the stream's continuity cursor had already
// consumed them — a router failover replays its unacked buffer, and
// everything this engine already decoded lands here instead of being
// fed (and counted) as fresh samples.
func (s *NetSource) DuplicateChunks() int64 { return s.l.DuplicateChunks() }

// OnHello registers a callback invoked (from the pipeline's pull
// goroutine) for each node registration — e.g. to register node
// positions with a track-fusion aggregator. Returns the source for
// chaining.
func (s *NetSource) OnHello(fn func(NodeHello)) *NetSource {
	s.onHello = fn
	return s
}

// Drain switches the source into cluster drain mode: connected peers
// are notified, new streams are refused (NACKed back to the router so
// it re-routes them) and in-flight streams keep flowing so they finish
// losslessly. Idempotent.
func (s *NetSource) Drain() { s.l.Drain() }

// Draining reports whether the source is refusing new streams.
func (s *NetSource) Draining() bool { return s.l.Draining() }

// DrainRequests signals drain orders arriving over the wire (an ops
// client asking this engine to drain). Level-triggered and coalesced.
func (s *NetSource) DrainRequests() <-chan struct{} { return s.l.DrainRequests() }

// Sessions lists the streams currently flowing through the source,
// for drain bookkeeping.
func (s *NetSource) Sessions() []uint64 { return s.l.Sessions() }

// ForceRedirect evicts one in-flight stream: the pipeline flushes and
// releases its decode session, and the stream's router replays the
// unconsumed remainder on another engine. Reports whether the stream
// was known. Used to finish a drain that must not wait for streams to
// end naturally.
func (s *NetSource) ForceRedirect(session uint64) bool { return s.l.ForceRedirect(session) }

// AckSession sends nothing and reports false: a Pipeline over this
// source acks on its own, through the last chunk each decode step
// consumed. It remains only for perfbench's paced-routed sink, which
// still calls it.
func (s *NetSource) AckSession(session uint64) bool { return false }

// Throttle flips the source's backpressure signal: paused sends a
// Throttle frame to every connected peer (a cluster router relays it
// to the receiver nodes feeding this engine, and they stall at the
// edge until released), resume releases them.
// Idempotent per state.
func (s *NetSource) Throttle(paused bool) { s.l.SetThrottled(paused) }

// Throttled reports whether the source currently signals
// backpressure.
func (s *NetSource) Throttled() bool { return s.l.Throttled() }

// StreamResets reports how many continuity resets the ingest side has
// observed (reconnects, sequence gaps) — the "counted,
// never silent" loss ledger.
func (s *NetSource) StreamResets() int64 { return s.l.StreamResets() }

// AutoThrottle ties the throttle signal to a load measure with
// hysteresis: a monitor goroutine samples occupancy (typically
// Pipeline.Occupancy) every interval, engages the throttle at high
// and releases it back below low. Zero interval selects 250 ms; low
// defaults to high/2 when not below high. The returned stop function
// ends the monitor and releases any engaged throttle.
func (s *NetSource) AutoThrottle(occupancy func() float64, high, low float64, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	if low <= 0 || low >= high {
		low = high / 2
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				occ := occupancy()
				if occ >= high && !s.Throttled() {
					s.Throttle(true)
				} else if occ <= low && s.Throttled() {
					s.Throttle(false)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			if s.Throttled() {
				s.Throttle(false)
			}
		})
	}
}

// Open implements Source. Network streams carry their own sample
// rates, so the default rate is zero.
func (s *NetSource) Open(ctx context.Context) (SourceInfo, error) {
	return SourceInfo{Fs: 0, Name: "rxnet"}, nil
}

// Next implements Source. It never returns io.EOF on its own — a
// network source ends when the context is canceled or the source is
// closed.
func (s *NetSource) Next(ctx context.Context) (SourceChunk, error) {
	for {
		select {
		case ev, ok := <-s.l.Chunks():
			if !ok {
				return SourceChunk{}, io.EOF
			}
			if ev.End {
				// A cluster router (or ForceRedirect) ended the stream:
				// an empty Reset chunk makes the pipeline flush and
				// release the decode session without feeding samples.
				return SourceChunk{Session: ev.Session, Reset: true}, nil
			}
			// Zero-copy path: the samples still live in the listener's
			// pooled buffer; the pipeline releases it after Engine.FeedTagged
			// has copied them into the session ring.
			return SourceChunk{
				Session: ev.Session, Fs: ev.Fs, Samples: ev.Samples, Reset: ev.Reset,
				buf: ev.Buf, acks: s.l, epoch: ev.Epoch, seq: ev.Seq,
			}, nil
		case h, ok := <-s.l.Hellos():
			if ok && s.onHello != nil {
				s.onHello(h)
			}
		case <-ctx.Done():
			return SourceChunk{}, ctx.Err()
		}
	}
}

// Close implements Source, stopping the listener and all node
// connections.
func (s *NetSource) Close() error { return s.l.Close() }
