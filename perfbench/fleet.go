package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"passivelight"
	"passivelight/internal/decoder"
	"passivelight/internal/rxnet"
	"passivelight/internal/stream"
)

// Shared by flood-direct and paced-routed: the rendered fleet-load
// passes, the decode pipeline configured as plnet's load and engine
// modes configure it, and the sink that records every event for the
// correctness oracle.

const (
	// fleetPool is how many distinct fleet passes set-up renders; the
	// generators cycle through them under fresh stream ids.
	fleetPool = 64
	// fleetSymbols is the indoor bench's symbol count (4 preamble plus
	// two per payload bit) at the 2-bit payloads the pool draws.
	fleetSymbols = 8
)

// fleetPass is one rendered pass and the payload its world encodes.
// completing and end are filled in by a replay: the chunk whose
// samples completed the pass's detection, and the detection's end.
type fleetPass struct {
	bits       string
	fs         float64
	samples    []float64
	completing int
	end        int64
}

// chunks returns how many chunks of size c the pass splits into.
func (p fleetPass) chunks(c int) int { return (len(p.samples) + c - 1) / c }

// chunk returns chunk k of size c.
func (p fleetPass) chunk(k, c int) []float64 {
	return p.samples[k*c : min((k+1)*c, len(p.samples))]
}

// renderFleet expands the fleet-load preset into sessions seeded from
// the workload seed, gives each a 2-bit payload drawn from the same
// seed, extends each pass by tailSec of ambient signal, and renders
// them until n passes are kept. keep, when not nil, may reject a pass
// (and fill in its replay fields). staggered keeps the preset's
// stagger, which opens each pass with a growing ambient lead-in as
// plnet's replay sends it; without it only the preset's jitter delays
// each pass.
func renderFleet(seed int64, n int, tailSec float64, staggered bool, keep func(*fleetPass) bool) ([]fleetPass, string, error) {
	load, err := passivelight.ScenarioLoadPreset("fleet-load")
	if err != nil {
		return nil, "", err
	}
	rng := rand.New(rand.NewSource(seed))
	// Expansion is sequential in the seed, so the first sessions are
	// the same whatever the count; twice n leaves room for rejects.
	load.Sessions = 2 * n
	if !staggered {
		load.StaggerSec = 0
	}
	load.Seed = 1 + rng.Int63n(1<<40)
	specs, err := load.Expand()
	if err != nil {
		return nil, "", err
	}
	h := sha256.New()
	out := make([]fleetPass, 0, n)
	for k, spec := range specs {
		if len(out) == n {
			break
		}
		spec.Objects[0].Payload = fmt.Sprintf("%d%d", rng.Intn(2), rng.Intn(2))
		spec.DurationSec += tailSec
		world, err := spec.CompileMulti()
		if err != nil {
			return nil, "", fmt.Errorf("fleet session %d: %w", k, err)
		}
		tr, err := world.Links[0].Link.Simulate()
		if err != nil {
			return nil, "", fmt.Errorf("fleet session %d: %w", k, err)
		}
		p := fleetPass{bits: world.Packets[0].Packet.BitString(), fs: tr.Fs, samples: tr.Samples}
		if keep != nil && !keep(&p) {
			continue
		}
		out = append(out, p)
		fmt.Fprintf(h, "%s:%g:", p.bits, tr.Fs)
		var b [8]byte
		for _, v := range tr.Samples {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if len(out) < n {
		return nil, "", fmt.Errorf("only %d of %d fleet passes kept", len(out), n)
	}
	return out, fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// sinkEvent is one pipeline event as the sink saw it. The payload is
// kept as text in a fixed array, so recording allocates nothing.
type sinkEvent struct {
	session uint64
	at      time.Time
	end     int64
	err     bool
	nbits   uint8
	bits    [8]byte
}

// sinkLog records every event and wakes a waiter once a target count
// has arrived. Its storage is allocated before the heap baseline, so
// the benchmark's own bookkeeping never counts as the system's state.
type sinkLog struct {
	mu     sync.Mutex
	events []sinkEvent
	want   int
	done   chan struct{}
}

func newSinkLog(capacity int) *sinkLog { return &sinkLog{events: make([]sinkEvent, 0, capacity)} }

func (s *sinkLog) record(ev passivelight.Event) {
	e := sinkEvent{session: ev.Session, at: time.Now(), end: ev.End, err: ev.Err != nil}
	for _, b := range ev.Bits[:min(len(ev.Bits), len(e.bits))] {
		e.bits[e.nbits] = '0' + b
		e.nbits++
	}
	s.mu.Lock()
	s.events = append(s.events, e)
	if s.done != nil && len(s.events) >= s.want {
		close(s.done)
		s.done = nil
	}
	s.mu.Unlock()
}

// await blocks until n events have arrived or timeout passes, and
// reports whether they all arrived.
func (s *sinkLog) await(n int, timeout time.Duration) bool {
	s.mu.Lock()
	if len(s.events) >= n {
		s.mu.Unlock()
		return true
	}
	done := make(chan struct{})
	s.want, s.done = n, done
	s.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// snapshot copies the events seen so far.
func (s *sinkLog) snapshot() []sinkEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sinkEvent(nil), s.events...)
}

// byPass groups events by session.
func byPass(events []sinkEvent) map[uint64][]sinkEvent {
	out := make(map[uint64][]sinkEvent, len(events))
	for _, e := range events {
		out[e.session] = append(out[e.session], e)
	}
	return out
}

// outcomes converts a pass's events for classifyPass.
func outcomes(evs []sinkEvent) []outcome {
	out := make([]outcome, len(evs))
	for i, e := range evs {
		out[i] = outcome{Bits: string(e.bits[:e.nbits]), Err: e.err}
	}
	return out
}

// timedSource passes a NetSource through to the pipeline. Traced, it
// records how long the pipeline's pull goroutine waits inside Next
// (starved) and how long it spends between Next returns (feeding the
// engine, or blocked on it).
type timedSource struct {
	inner *passivelight.NetSource
	buf   *spanBuf
	last  time.Time
}

func (s *timedSource) Open(ctx context.Context) (passivelight.SourceInfo, error) {
	return s.inner.Open(ctx)
}

func (s *timedSource) Close() error { return s.inner.Close() }

func (s *timedSource) Next(ctx context.Context) (passivelight.SourceChunk, error) {
	if s.buf == nil {
		return s.inner.Next(ctx)
	}
	t0 := time.Now()
	if !s.last.IsZero() {
		s.buf.add("source.feed", s.last, t0, -1)
	}
	c, err := s.inner.Next(ctx)
	s.last = time.Now()
	s.buf.add("source.next", t0, s.last, int64(c.Session))
	return c, err
}

// engineSide is the system under test behind the network: a NetSource
// listener feeding one decode pipeline with a telemetry registry
// attached, default workers and shards.
type engineSide struct {
	reg     *passivelight.Telemetry
	src     *passivelight.NetSource
	pipe    *passivelight.Pipeline
	sink    *sinkLog
	hellos  chan struct{}
	cancel  context.CancelFunc
	drained chan struct{}
}

// engineOptions are the plnet engine-mode settings paced-routed adds.
type engineOptions struct {
	idle    time.Duration // session idle timeout (0 keeps the default)
	ack     bool          // acknowledge decoded sessions upstream
	trigger float64       // occupancy that engages backpressure (0: none)
	buf     *spanBuf
	nodes   int // node hellos set-up will wait for
	sink    *sinkLog
}

func startEngine(opt engineOptions) (*engineSide, error) {
	strat, err := passivelight.StrategyForScenario(passivelight.ScenarioDecode{Strategy: "threshold"})
	if err != nil {
		return nil, err
	}
	reg := passivelight.NewTelemetry()
	src, err := passivelight.ListenSourceConfig("127.0.0.1:0", passivelight.NetSourceConfig{Telemetry: reg, PaceGuardIdle: opt.idle})
	if err != nil {
		return nil, err
	}
	e := &engineSide{reg: reg, src: src, sink: opt.sink, hellos: make(chan struct{}, opt.nodes), drained: make(chan struct{})}
	src.OnHello(func(passivelight.NodeHello) {
		select {
		case e.hellos <- struct{}{}:
		default:
		}
	})
	sink := e.sink.record
	if opt.ack {
		sink = func(ev passivelight.Event) {
			e.sink.record(ev)
			if ev.Err == nil {
				src.AckSession(ev.Session)
			}
		}
	}
	opts := []passivelight.Option{
		passivelight.WithExpectedSymbols(fleetSymbols),
		passivelight.WithTelemetry(reg),
		passivelight.WithSink(sink),
	}
	if opt.idle > 0 {
		opts = append(opts, passivelight.WithIdleTimeout(opt.idle))
	}
	pipe, err := passivelight.NewPipeline(&timedSource{inner: src, buf: opt.buf}, strat, opts...)
	if err != nil {
		src.Close()
		return nil, err
	}
	e.pipe = pipe
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	events, err := pipe.Stream(ctx)
	if err != nil {
		cancel()
		return nil, err
	}
	go func() {
		for range events { // the sink already recorded them
		}
		close(e.drained)
	}()
	if opt.trigger > 0 {
		stop := src.AutoThrottle(pipe.Occupancy, opt.trigger, 0, 0)
		prev := e.cancel
		e.cancel = func() { stop(); prev() }
	}
	return e, nil
}

// awaitHellos blocks until n node registrations have reached the
// pipeline — proof that every connection, and every hop in front of
// the engine, is up.
func (e *engineSide) awaitHellos(n int, timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for i := 0; i < n; i++ {
		select {
		case <-e.hellos:
		case <-t.C:
			return fmt.Errorf("only %d of %d node hellos reached the pipeline", i, n)
		}
	}
	return nil
}

// close stops the pipeline and waits until its event stream has
// drained.
func (e *engineSide) close() {
	e.cancel()
	<-e.drained
}

// engineCounters reads the counters that must stay zero, and the
// engine's own histograms, into the result.
func (e *engineSide) engineCounters(res *result) {
	st := e.pipe.Stats()
	res.layers["stream.samples_in"] = float64(st.SamplesIn)
	res.layers["stream.detections"] = float64(st.Detections)
	res.layers["stream.decode_errors"] = float64(st.DecodeErrors)
	res.layers["stream.dropped_samples"] = float64(st.DroppedSamples)
	res.layers["stream.sessions_evicted"] = float64(st.Evicted)
	res.layers["rxnet.dropped_chunks"] = float64(e.src.DroppedChunks())
	res.layers["rxnet.duplicate_chunks"] = float64(e.src.DuplicateChunks())
	res.layers["rxnet.stream_resets"] = float64(e.src.StreamResets())
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"stream.dropped_samples", st.DroppedSamples},
		{"stream.dropped_detections", st.DroppedDetections},
		{"stream.decode_errors", st.DecodeErrors},
		{"rxnet.dropped_chunks", e.src.DroppedChunks()},
		{"rxnet.duplicate_chunks", e.src.DuplicateChunks()},
		{"rxnet.stream_resets", e.src.StreamResets()},
	} {
		if c.v != 0 {
			res.invariant = append(res.invariant, fmt.Sprintf("%s = %d", c.name, c.v))
		}
	}
	snap := e.reg.Snapshot()
	step := snap.Histograms["pl_engine_decode_step_ns"]
	lat := snap.Histograms["pl_engine_detection_latency_ns"]
	res.layers["stream.decode_step_p50_us"] = step.P50 / 1e3
	res.layers["stream.decode_step_p99_us"] = step.P99 / 1e3
	res.layers["stream.detection_latency_p50_us"] = lat.P50 / 1e3
	res.layers["stream.detection_latency_p99_us"] = lat.P99 / 1e3
}

// replayPass feeds one pass through a standalone streaming decoder
// configured as the pipeline's sessions are, chunk by chunk, on this
// goroutine. It fills in the chunk that completed the detection (-1
// when only the end-of-stream flush produced one) and the detection's
// end, and returns the time the decoder spent.
func replayPass(p *fleetPass, chunk int) (time.Duration, error) {
	d, err := stream.NewDecoder(stream.Config{Fs: p.fs, Decode: decoder.Options{ExpectedSymbols: fleetSymbols}})
	if err != nil {
		return 0, err
	}
	p.completing, p.end = -1, -1
	t0 := time.Now()
	for k := 0; k < p.chunks(chunk); k++ {
		if dets := d.Feed(p.chunk(k, chunk)); len(dets) > 0 && p.completing < 0 {
			p.completing, p.end = k, dets[0].End
		}
	}
	if dets := d.Flush(); len(dets) > 0 && p.end < 0 {
		p.end = dets[0].End
	}
	return time.Since(t0), nil
}

// replayDecode replays every pool pass and returns the decoder's cost
// per sample.
func replayDecode(pool []fleetPass, chunk int) (float64, error) {
	var spent time.Duration
	samples := 0
	for i := range pool {
		d, err := replayPass(&pool[i], chunk)
		if err != nil {
			return 0, err
		}
		spent += d
		samples += len(pool[i].samples)
	}
	return float64(spent) / float64(samples), nil
}

// replayUnmarshal marshals every pool chunk as a node would and times
// UnmarshalSampleChunk over the frames on this goroutine.
func replayUnmarshal(pool []fleetPass, chunk int) (float64, error) {
	var frames [][]byte
	samples := 0
	for i, p := range pool {
		for k := 0; k < p.chunks(chunk); k++ {
			c := p.chunk(k, chunk)
			body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{NodeID: 1, StreamID: uint32(i + 1), Seq: uint32(k + 1), Fs: p.fs, Start: uint64(k * chunk), Samples: c})
			if err != nil {
				return 0, err
			}
			frames = append(frames, body)
			samples += len(c)
		}
	}
	t0 := time.Now()
	for _, f := range frames {
		if _, err := rxnet.UnmarshalSampleChunk(f); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(samples), nil
}
