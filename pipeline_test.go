package passivelight

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"passivelight/internal/coding"
	"passivelight/internal/decoder"
	"passivelight/internal/rxnet"
)

// synthPacketStream synthesizes one session's observation (quiet,
// packet, quiet) for network streaming tests.
func synthPacketStream(payload string, fs float64, seed int64) []float64 {
	const high, low, baseline = 90.0, 12.0, 10.0
	rng := rand.New(rand.NewSource(seed))
	gap := int(2.0 * fs)
	perSymbol := int(0.2 * fs)
	var out []float64
	quiet := func(n int) {
		for i := 0; i < n; i++ {
			out = append(out, baseline+0.3*rng.NormFloat64())
		}
	}
	quiet(gap)
	for _, s := range coding.MustPacket(payload).Symbols() {
		level := low
		if s == coding.High {
			level = high
		}
		for i := 0; i < perSymbol; i++ {
			out = append(out, level+0.3*rng.NormFloat64())
		}
	}
	quiet(gap)
	return out
}

// testTrace renders the standard indoor '10' pass.
func testTrace(t *testing.T) (*Trace, Packet) {
	t.Helper()
	link, packet, err := (IndoorBench{
		Height:      0.20,
		SymbolWidth: 0.03,
		Speed:       0.08,
		Payload:     "10",
		Seed:        42,
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := link.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	return tr, packet
}

// TestPipelineBatchEquivalence is the pipeline-vs-batch contract: a
// Pipeline over a recorded Trace source in batch-equivalent mode must
// produce detections bit-identical to the batch decoder.Decode of the
// same trace — same payload bits, same symbol string.
func TestPipelineBatchEquivalence(t *testing.T) {
	tr, _ := testTrace(t)
	legacy, err := decoder.Decode(tr, DecodeOptions{ExpectedSymbols: 8})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.ParseErr != nil {
		t.Fatal(legacy.ParseErr)
	}

	pipe, err := NewPipeline(NewTraceSource(tr, 512), Threshold(),
		WithExpectedSymbols(8),
		WithPreRoll(-1),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("pipeline produced %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Err != nil {
		t.Fatal(ev.Err)
	}
	if ev.BitString() != legacy.Packet.BitString() {
		t.Fatalf("pipeline bits %q != batch bits %q", ev.BitString(), legacy.Packet.BitString())
	}
	if ev.Symbols != legacy.SymbolString() {
		t.Fatalf("pipeline symbols %q != batch symbols %q", ev.Symbols, legacy.SymbolString())
	}
	if ev.CodeIndex != -1 {
		t.Fatalf("no codebook configured but CodeIndex=%d", ev.CodeIndex)
	}
}

// TestPipelineOnlineMode checks the default bounded-memory streaming
// configuration decodes the same packet.
func TestPipelineOnlineMode(t *testing.T) {
	tr, packet := testTrace(t)
	pipe, err := NewPipeline(NewTraceSource(tr, 500), Threshold(), WithExpectedSymbols(8))
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range events {
		if ev.Err == nil {
			got = append(got, ev.BitString())
		}
	}
	if len(got) != 1 || got[0] != packet.BitString() {
		t.Fatalf("online pipeline decoded %v, want [%s]", got, packet.BitString())
	}
}

// TestPipelineTwoPhaseAutoSelect runs the outdoor path: simulated car
// pass, receiver picked by the Sec. 4.4 policy, two-phase decode.
func TestPipelineTwoPhaseAutoSelect(t *testing.T) {
	src := NewCarPassSource(OutdoorCarPass{
		Payload:        "00",
		NoiseFloorLux:  6200,
		ReceiverHeight: 0.75,
		Seed:           5,
	})
	pipe, err := NewPipeline(src, TwoPhase(),
		WithExpectedSymbols(8),
		WithPreRoll(-1),
		WithReceiverAutoSelect(),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if src.Receiver() != "rx-led" {
		t.Fatalf("6200 lux auto-select picked %q, want rx-led", src.Receiver())
	}
	if len(events) != 1 || events[0].Err != nil {
		t.Fatalf("events %+v", events)
	}
	if events[0].BitString() != src.Packet().BitString() {
		t.Fatalf("decoded %q, want %q", events[0].BitString(), src.Packet().BitString())
	}
}

// TestPipelineAutoSelectUnsupported: only sources that know their
// ambient level support the policy.
func TestPipelineAutoSelectUnsupported(t *testing.T) {
	tr, _ := testTrace(t)
	pipe, err := NewPipeline(NewTraceSource(tr, 0), Threshold(), WithReceiverAutoSelect())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Stream(context.Background()); err == nil {
		t.Fatal("trace source should reject WithReceiverAutoSelect")
	}
}

// TestPipelineCodebook: the codebook stage fills CodeIndex and
// corrects within the codebook's Hamming budget.
func TestPipelineCodebook(t *testing.T) {
	cb, err := NewCodebook(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, packet := testTrace(t)
	pipe, err := NewPipeline(NewTraceSource(tr, 0), Threshold(),
		WithExpectedSymbols(8), WithPreRoll(-1), WithCodebook(cb))
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Err != nil {
		t.Fatalf("events %+v", events)
	}
	ev := events[0]
	if ev.CodeIndex < 0 || ev.CodeDistance != 0 {
		t.Fatalf("codebook stage: index %d distance %d", ev.CodeIndex, ev.CodeDistance)
	}
	word, err := cb.Encode(ev.CodeIndex)
	if err != nil {
		t.Fatal(err)
	}
	got := ""
	for _, b := range word {
		got += string('0' + byte(b))
	}
	if got != packet.BitString() {
		t.Fatalf("codeword %q, want %q", got, packet.BitString())
	}
}

// TestPipelineCollision: the whole-stream Collision strategy carries
// the spectral report on its events.
func TestPipelineCollision(t *testing.T) {
	tr, _ := testTrace(t)
	pipe, err := NewPipeline(NewTraceSource(tr, 700), Collision(CollisionOptions{MaxFreq: 100}))
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Err != nil {
		t.Fatalf("events %+v", events)
	}
	if events[0].Collision == nil || events[0].Collision.DominantFreq <= 0 {
		t.Fatalf("collision report %+v", events[0].Collision)
	}
}

// TestPipelineCancel: a blocked live source unblocks on context
// cancellation and the pipeline reports the cancellation.
func TestPipelineCancel(t *testing.T) {
	ch := make(chan SourceChunk) // never fed, never closed
	pipe, err := NewPipeline(NewChunkSource(1000, ch), Threshold())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	events, err := pipe.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case _, ok := <-events:
		if ok {
			t.Fatal("unexpected event from an empty canceled pipeline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled pipeline did not close its event channel")
	}
	if !errors.Is(pipe.Err(), context.Canceled) {
		t.Fatalf("pipeline error %v, want context.Canceled", pipe.Err())
	}
}

// TestPipelineSingleShot: Run/Stream may be called once.
func TestPipelineSingleShot(t *testing.T) {
	tr, _ := testTrace(t)
	pipe, err := NewPipeline(NewTraceSource(tr, 0), Threshold(), WithExpectedSymbols(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Stream(context.Background()); err == nil {
		t.Fatal("second Stream should fail")
	}
}

// TestPipelineNetSource: a node streams a synthetic packet pass over
// the rxnet protocol into a NetSource pipeline; the detection carries
// the node's session key.
func TestPipelineNetSource(t *testing.T) {
	src, err := ListenSourceConfig("127.0.0.1:0", NetSourceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var hello NodeHello
	helloSeen := make(chan struct{})
	src.OnHello(func(h NodeHello) {
		hello = h
		close(helloSeen)
	})
	pipe, err := NewPipeline(src, Threshold(), WithExpectedSymbols(12))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := pipe.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}

	stream := synthPacketStream("1001", 1000, 3)
	node, err := rxnet.DialReliable(ctx, src.Addr(), rxnet.Hello{NodeID: 9, PosX: 1, Height: 0.75, Name: "pole-9"}, rxnet.RedialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.StreamChunk(0, 1000, stream); err != nil {
		t.Fatal(err)
	}
	node.Close()

	// Wait for full ingest, then flush the open segment.
	deadline := time.Now().Add(10 * time.Second)
	for pipe.Stats().SamplesIn < int64(len(stream)) {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d samples", pipe.Stats().SamplesIn, len(stream))
		}
		time.Sleep(2 * time.Millisecond)
	}
	pipe.Flush()

	select {
	case ev := <-events:
		if ev.Err != nil {
			t.Fatal(ev.Err)
		}
		if ev.BitString() != "1001" {
			t.Fatalf("decoded %q over the network, want 1001", ev.BitString())
		}
		if ev.Session != uint64(9)<<32 {
			t.Fatalf("session %d, want %d", ev.Session, uint64(9)<<32)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no detection from the net source")
	}
	select {
	case <-helloSeen:
		if hello.NodeID != 9 || hello.Name != "pole-9" {
			t.Fatalf("hello %+v", hello)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hello callback not invoked")
	}
	cancel()
	for range events {
	}
	if !errors.Is(pipe.Err(), context.Canceled) {
		t.Fatalf("pipeline error %v after cancel", pipe.Err())
	}
}

// startNetFusion wires the production receiver-network path: nodes
// stream raw samples to a NetSource, a Pipeline decodes them, and
// its sink feeds every clean event into an Aggregator's track fusion.
// Canceling ctx stops the pipeline and closes the source.
func startNetFusion(ctx context.Context, t *testing.T, symbols int, opts ...Option) (*NetSource, *Pipeline, *rxnet.Aggregator, <-chan Event) {
	t.Helper()
	agg := rxnet.NewAggregator(rxnet.AggregatorOptions{TrackGap: time.Minute})
	t.Cleanup(func() { agg.Close() })
	src, err := ListenSourceConfig("127.0.0.1:0", NetSourceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	src.OnHello(agg.RegisterNode)
	opts = append(opts, WithExpectedSymbols(symbols),
		WithSink(func(ev Event) {
			if ev.Err != nil {
				return
			}
			agg.Ingest(rxnet.Detection{
				NodeID:     rxnet.SessionNodeID(ev.Session),
				Time:       ev.Wall,
				Bits:       ev.Bits,
				RSSPeak:    ev.RSSPeak,
				NoiseFloor: ev.NoiseFloor,
				SymbolRate: ev.SymbolRate,
			})
		}))
	pipe, err := NewPipeline(src, Threshold(), opts...)
	if err != nil {
		src.Close()
		t.Fatal(err)
	}
	events, err := pipe.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return src, pipe, agg, events
}

// streamFromNode dials the source as the given node, ships samples in
// 700-sample chunks on stream 0 and hangs up. A fresh node restarts
// the stream at Seq 1, Start 0.
func streamFromNode(ctx context.Context, t *testing.T, addr string, hello rxnet.Hello, samples []float64) {
	t.Helper()
	node, err := rxnet.DialReliable(ctx, addr, hello, rxnet.RedialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	for lo := 0; lo < len(samples); lo += 700 {
		if err := node.StreamChunk(0, 1000, samples[lo:min(lo+700, len(samples))]); err != nil {
			t.Fatal(err)
		}
	}
}

// waitIngested blocks until the pipeline has fed want samples (TCP is
// asynchronous).
func waitIngested(t *testing.T, pipe *Pipeline, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for pipe.Stats().SamplesIn < want {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d samples", pipe.Stats().SamplesIn, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPipelineNetSourceFusesTrack is the full receiver-network loop:
// three nodes along a road stream raw samples in the order a car
// passes them, the pipeline decodes server-side, and the aggregator
// fuses the detections into one track moving toward +x.
func TestPipelineNetSourceFusesTrack(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src, pipe, agg, events := startNetFusion(ctx, t, 12)
	go func() {
		for range events { // the sink does the work
		}
	}()

	const payload = "1001"
	var sent int64
	for i, x := range []float64{0, 25, 50} {
		samples := synthPacketStream(payload, 1000, int64(i+1))
		streamFromNode(ctx, t, src.Addr(), rxnet.Hello{NodeID: uint32(i + 1), PosX: x, Height: 0.75, Name: "pole"}, samples)
		// Flushing each node's decode before the next node streams
		// keeps detection times in pass order.
		sent += int64(len(samples))
		waitIngested(t, pipe, sent)
		pipe.Flush()
		time.Sleep(30 * time.Millisecond)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if tracks := agg.Tracks(); len(tracks) > 0 {
			last := tracks[len(tracks)-1]
			if got := rxnet.BitsString(last.ObjectBits); got != payload {
				t.Fatalf("track object %s, want %s", got, payload)
			}
			if last.SpeedMS <= 0 {
				t.Fatalf("track speed %v m/s, want > 0 (nodes passed in +x order)", last.SpeedMS)
			}
			if last.Confirmations < 2 {
				t.Fatalf("confirmations %d", last.Confirmations)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no track fused; pipeline stats %+v", pipe.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := pipe.Stats(); st.Detections < 3 {
		t.Fatalf("pipeline decoded %d detections, want >= 3", st.Detections)
	}
}

// TestPipelineNetSourceRestartMidPacket: a node whose connection dies
// mid-packet and that restarts its stream from zero on a new
// connection must not splice into the stale decode session. The
// listener flags the restart, the pipeline ends the session holding
// exactly the cut-off samples, and the packet decodes once. (The cut
// falls right after the preamble, so the stale epoch flushes as a
// preamble with no payload bits.)
func TestPipelineNetSourceRestartMidPacket(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ended := make(chan SessionStats, 4)
	src, pipe, _, events := startNetFusion(ctx, t, 8,
		WithSessionEnd(func(_ uint64, st SessionStats, reason string) {
			if reason == "end" {
				ended <- st
			}
		}))

	samples := synthPacketStream("10", 1000, 4)
	cut := len(samples) / 2 // mid-packet
	hello := rxnet.Hello{NodeID: 9, Name: "pole"}
	streamFromNode(ctx, t, src.Addr(), hello, samples[:cut])
	waitIngested(t, pipe, int64(cut))
	streamFromNode(ctx, t, src.Addr(), hello, samples)
	waitIngested(t, pipe, int64(cut+len(samples)))
	pipe.Flush()

	var decoded []string
	timeout := time.After(10 * time.Second)
	for len(decoded) == 0 {
		select {
		case ev := <-events:
			if ev.Err == nil && len(ev.Bits) > 0 {
				decoded = append(decoded, ev.BitString())
			}
		case <-timeout:
			t.Fatalf("no detection after the restart: %+v", pipe.Stats())
		}
	}
	cancel()
	for ev := range events {
		if ev.Err == nil && len(ev.Bits) > 0 {
			decoded = append(decoded, ev.BitString())
		}
	}
	if len(decoded) != 1 || decoded[0] != "10" {
		t.Fatalf("decoded payloads %v, want exactly [10]", decoded)
	}
	if got := src.StreamResets(); got != 1 {
		t.Fatalf("stream resets %d, want 1", got)
	}
	select {
	case st := <-ended:
		if st.Samples != int64(cut) {
			t.Fatalf("restart ended a session of %d samples, want the %d cut off", st.Samples, cut)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the restart did not end the stale decode session")
	}
}

// TestPipelineWithTelemetry runs a streaming pipeline with a metrics
// registry attached and checks the full observability surface: the
// per-strategy event counters and detection-latency histogram, plus
// the engine series wired through the same registry.
func TestPipelineWithTelemetry(t *testing.T) {
	tr, packet := testTrace(t)
	tel := NewTelemetry()
	pipe, err := NewPipeline(NewTraceSource(tr, 500), Threshold(),
		WithExpectedSymbols(8),
		WithTelemetry(tel),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var decoded int
	for _, ev := range events {
		if ev.Err == nil && ev.BitString() == packet.BitString() {
			decoded++
		}
	}
	if decoded != 1 {
		t.Fatalf("decoded %d matching events, want 1", decoded)
	}

	snap := tel.Snapshot()
	if got := snap.Counters[`pl_pipeline_events_total{strategy="threshold"}`]; got != int64(len(events)) {
		t.Fatalf("pl_pipeline_events_total = %d, want %d", got, len(events))
	}
	var errEvents int64
	for _, ev := range events {
		if ev.Err != nil {
			errEvents++
		}
	}
	if got := snap.Counters[`pl_pipeline_event_errors_total{strategy="threshold"}`]; got != errEvents {
		t.Fatalf("pl_pipeline_event_errors_total = %d, want %d", got, errEvents)
	}
	lat, ok := snap.Histograms[`pl_pipeline_detection_latency_ns{strategy="threshold"}`]
	if !ok {
		t.Fatal("detection latency histogram not registered")
	}
	if lat.Count != int64(len(events)) {
		t.Fatalf("latency histogram count = %d, want %d", lat.Count, len(events))
	}
	if lat.P50 <= 0 || lat.P99 < lat.P50 || lat.Max < int64(lat.P99) {
		t.Fatalf("latency quantiles inconsistent: p50=%g p99=%g max=%d", lat.P50, lat.P99, lat.Max)
	}

	// The engine's own series must land in the same registry.
	if got := snap.Counters["pl_engine_detections_total"]; got != 1 {
		t.Fatalf("pl_engine_detections_total = %d, want 1", got)
	}
	if snap.Counters["pl_engine_samples_in_total"] != pipe.Stats().SamplesIn {
		t.Fatalf("pl_engine_samples_in_total = %d, want %d",
			snap.Counters["pl_engine_samples_in_total"], pipe.Stats().SamplesIn)
	}
	if _, ok := snap.Histograms["pl_engine_decode_step_ns"]; !ok {
		t.Fatal("engine decode-step histogram not registered")
	}
}

// TestPipelineWholeStreamTelemetry checks that a whole-stream
// strategy counts its events (no latency stamp — analysis runs at end
// of stream).
func TestPipelineWholeStreamTelemetry(t *testing.T) {
	tr, _ := testTrace(t)
	tel := NewTelemetry()
	pipe, err := NewPipeline(NewTraceSource(tr, 1024), Collision(CollisionOptions{}),
		WithTelemetry(tel),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("%d events, want 1", len(events))
	}
	snap := tel.Snapshot()
	if got := snap.Counters[`pl_pipeline_events_total{strategy="collision"}`]; got != 1 {
		t.Fatalf("pl_pipeline_events_total = %d, want 1", got)
	}
	if lat := snap.Histograms[`pl_pipeline_detection_latency_ns{strategy="collision"}`]; lat.Count != 0 {
		t.Fatalf("whole-stream latency histogram count = %d, want 0", lat.Count)
	}
}
