package passivelight

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"passivelight/internal/decoder"
)

// TestMultiLinkRxLanesAttribution is the acceptance lock for the
// multi-receiver fan-out: the rx-lanes preset compiles to two
// heterogeneous links that decode end to end through one Pipeline,
// and every detection attributes back to its receiver via the stream
// id.
func TestMultiLinkRxLanesAttribution(t *testing.T) {
	spec, err := ScenarioPreset("rx-lanes")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Receivers) < 2 {
		t.Fatalf("rx-lanes declares %d receivers, want >= 2", len(spec.Receivers))
	}
	src := NewLoadSource(ScenarioLoad{Base: &spec, Sessions: 1})
	pipe, err := NewPipeline(src, TwoPhase(), WithExpectedSymbols(spec.Decode.ExpectedSymbols))
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	streams := src.Streams()
	if len(streams) != len(spec.Receivers) {
		t.Fatalf("%d streams for %d receivers", len(streams), len(spec.Receivers))
	}
	byStream := map[uint64][]string{}
	for _, st := range streams {
		if st.Session != 0 || st.ID != ScenarioStreamID(0, st.Receiver) {
			t.Fatalf("stream %s keyed (%d,%d) id=%d", st.Name, st.Session, st.Receiver, st.ID)
		}
		byStream[st.ID] = nil
	}
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("session %d event error: %v", ev.Session, ev.Err)
		}
		if _, ok := byStream[ev.Session]; !ok {
			t.Fatalf("event on stream %d, which Streams does not list", ev.Session)
		}
		byStream[ev.Session] = append(byStream[ev.Session], ev.BitString())
	}
	for _, st := range streams {
		got := byStream[st.ID]
		if len(got) != len(st.Packets) {
			t.Fatalf("receiver %s decoded %d packets (%v), scene encodes %d", st.Name, len(got), got, len(st.Packets))
		}
		for i, want := range st.Packets {
			if got[i] != want.Packet.BitString() {
				t.Fatalf("receiver %s packet %d: decoded %q, want %q", st.Name, i, got[i], want.Packet.BitString())
			}
		}
	}
}

// TestLoadSourceFleetThroughPipeline: a fleet-load expansion streams
// sessions × receivers through one pipeline, and every staggered
// session's packet comes back attributed to its session index.
func TestLoadSourceFleetThroughPipeline(t *testing.T) {
	load, err := ScenarioLoadPreset("fleet-load")
	if err != nil {
		t.Fatal(err)
	}
	load.Sessions = 12
	src := NewLoadSource(load)
	pipe, err := NewPipeline(src, Threshold(), WithExpectedSymbols(8))
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	streams := src.Streams()
	if len(streams) != load.Sessions {
		t.Fatalf("%d streams for %d sessions", len(streams), load.Sessions)
	}
	byID := map[uint64]MultiStream{}
	for _, st := range streams {
		byID[st.ID] = st
	}
	decoded := map[int][]string{}
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("session %d event error: %v", ev.Session, ev.Err)
		}
		st, ok := byID[ev.Session]
		if !ok {
			t.Fatalf("event on stream %d, which Streams does not list", ev.Session)
		}
		decoded[st.Session] = append(decoded[st.Session], ev.BitString())
	}
	for _, st := range streams {
		got := decoded[st.Session]
		if len(got) != len(st.Packets) {
			t.Fatalf("session %d (%s): decoded %v, want %d packets", st.Session, st.Scenario, got, len(st.Packets))
		}
		for i, want := range st.Packets {
			if got[i] != want.Packet.BitString() {
				t.Fatalf("session %d packet %d: decoded %q, want %q", st.Session, i, got[i], want.Packet.BitString())
			}
		}
	}
	if st := pipe.Stats(); st.Detections != int64(load.Sessions) {
		t.Fatalf("engine counted %d detections for %d sessions", st.Detections, load.Sessions)
	}
}

// TestLoadOversubscriptionSurfacesTableFull: a fleet larger than
// WithMaxSessions with eviction disabled must fail loudly — the
// ErrSessionTableFull sentinel unwraps from Pipeline.Err and the
// engine counters record the rejected feed.
func TestLoadOversubscriptionSurfacesTableFull(t *testing.T) {
	load, err := ScenarioLoadPreset("fleet-load")
	if err != nil {
		t.Fatal(err)
	}
	load.Sessions = 12
	const maxSessions = 4
	src := NewLoadSource(load)
	pipe, err := NewPipeline(src, Threshold(),
		WithExpectedSymbols(8),
		WithMaxSessions(maxSessions),
		WithIdleTimeout(-1), // no eviction: the table can only grow
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(context.Background()); err == nil {
		t.Fatal("oversubscribed fleet should fail the pipeline")
	}
	if err := pipe.Err(); !errors.Is(err, ErrSessionTableFull) {
		t.Fatalf("pipeline error %v, want ErrSessionTableFull", err)
	}
	st := pipe.Stats()
	if st.Sessions > maxSessions {
		t.Fatalf("engine tracks %d sessions past the %d cap", st.Sessions, maxSessions)
	}
	if st.DroppedSamples == 0 {
		t.Fatal("rejected feed should count dropped samples")
	}
}

// TestLoadEvictionKeepsFleetFlowing: with idle eviction enabled, a
// fleet far larger than the session table flows through — finished
// sessions are evicted between staggered arrivals (Stats().Evicted
// counts them), the table never overflows, and every packet still
// decodes. The Reset chunk each new stream leads with exercises the
// pipeline's evicted-session tolerance (EndSession on an unknown or
// evicted id must not fail the run).
func TestLoadEvictionKeepsFleetFlowing(t *testing.T) {
	load, err := ScenarioLoadPreset("fleet-load")
	if err != nil {
		t.Fatal(err)
	}
	load.Sessions = 12
	const maxSessions = 3
	// Replay the fleet once to collect each session's chunks, then
	// feed the sessions one after another, with a gap before each that
	// gives the idle janitor wall-clock room to evict finished ones.
	src := NewLoadSource(load)
	ctx := context.Background()
	info, err := src.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bySession := map[uint64][]SourceChunk{}
	var order []uint64
	n := 0
	for {
		c, err := src.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.Reset {
			order = append(order, c.Session)
		}
		bySession[c.Session] = append(bySession[c.Session], c)
		n++
	}
	ch := make(chan SourceChunk, n) // the feeder never blocks
	go func() {
		defer close(ch)
		for _, id := range order {
			time.Sleep(40 * time.Millisecond)
			for _, c := range bySession[id] {
				ch <- c
			}
		}
	}()
	pipe, err := NewPipeline(NewChunkSource(info.Fs, ch), Threshold(),
		WithExpectedSymbols(8),
		WithMaxSessions(maxSessions),
		WithIdleTimeout(5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(ctx)
	if err != nil {
		t.Fatalf("evicting fleet should flow: %v", err)
	}
	got := 0
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("session %d event error: %v", ev.Session, ev.Err)
		}
		got++
	}
	if got != load.Sessions {
		t.Fatalf("decoded %d of %d sessions", got, load.Sessions)
	}
	st := pipe.Stats()
	if st.Evicted == 0 {
		t.Fatal("idle janitor evicted nothing; the fleet must have overflowed the table instead")
	}
	if st.DroppedSamples != 0 {
		t.Fatalf("dropped %d samples", st.DroppedSamples)
	}
}

// TestStopAndGoClassifiesThroughPipeline renders the stop-and-go
// preset (mid-packet dwell) through a scenario source and classifies
// its trace with the Sec. 4.2 DTW classifier, as plexperiments does:
// the nearest baseline carries the sent label even though the dwell
// defeats plain threshold slicing.
func TestStopAndGoClassifiesThroughPipeline(t *testing.T) {
	cls := decoder.NewClassifier(256)
	for i, payload := range []string{"00", "10"} {
		link, _, err := (IndoorBench{
			Height: 0.20, SymbolWidth: 0.03, Speed: 0.08,
			Payload: payload, Seed: int64(10 + i),
		}).Build()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := link.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if err := cls.AddBaseline(payload, tr); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := ScenarioPreset("stop-and-go")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Decode.Strategy != "dtw" {
		t.Fatalf("stop-and-go declares strategy %q, want dtw", spec.Decode.Strategy)
	}
	if _, err := StrategyForScenario(spec.Decode); err == nil {
		t.Fatal("the dtw hint should have no pipeline strategy")
	}
	src := NewScenarioSource(spec)
	if _, err := src.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	matches, err := cls.Classify(src.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if want := src.Packet().BitString(); matches[0].Label != want {
		t.Fatalf("classified %q, want %q (matches %v)", matches[0].Label, want, matches)
	}
}

// TestPacedReplayHoldsStreamClock: a paced load source may not emit a
// chunk before its stream clock — the whole replay therefore takes at
// least the rendered duration of its longest stream. The lower bound
// is what matters (and is timing-robust); as-fast-as-possible replay
// is locked in by every other load test finishing instantly.
func TestPacedReplayHoldsStreamClock(t *testing.T) {
	spec, err := ScenarioPreset("multi-lane")
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the pass to three chunks at the preset's 2 kHz; pacing,
	// not decoding, is under test.
	spec.DurationSec = 1.5
	src := NewLoadSource(ScenarioLoad{Base: &spec, Sessions: 1, Pace: true})
	ctx := context.Background()
	info, err := src.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fs <= 0 {
		t.Fatalf("single-receiver scenario should declare a rate, got %v", info.Fs)
	}
	start := time.Now()
	total := 0
	for {
		c, err := src.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(c.Samples)
	}
	elapsed := time.Since(start)
	if total <= 2*multiChunk {
		t.Fatalf("stream of %d samples spans under three %d-sample chunks; the floor below would prove little", total, multiChunk)
	}
	// The final chunk is due when its first sample's stream time
	// arrives, so the floor is (total - chunk) samples of wall clock.
	floor := time.Duration(float64(total-multiChunk) / info.Fs * float64(time.Second))
	if elapsed < floor {
		t.Fatalf("paced replay of %d samples at %v Hz took %v, want >= %v", total, info.Fs, elapsed, floor)
	}
}

// TestLoadPaceFlagPlumbsToSource: NewLoadSource adopts the load
// spec's Pace field.
func TestLoadPaceFlagPlumbsToSource(t *testing.T) {
	load, err := ScenarioLoadPreset("fleet-load")
	if err != nil {
		t.Fatal(err)
	}
	if src := NewLoadSource(load); src.paced {
		t.Fatal("pace should default off")
	}
	load.Pace = true
	if src := NewLoadSource(load); !src.paced {
		t.Fatal("load.Pace did not reach the source")
	}
}
