package passivelight

import (
	"context"
	"errors"
	"testing"

	"passivelight/internal/stream"
	"passivelight/internal/trace"
)

// flatEvents runs a Threshold pipeline in batch-equivalent mode over
// a flat trace (no peaks to anchor A/B/C) fed in chunkSize chunks.
func flatEvents(t *testing.T, chunkSize int) []Event {
	t.Helper()
	flat := trace.New(1000, 0, make([]float64, 1000))
	pipe, err := NewPipeline(NewTraceSource(flat, chunkSize), Threshold(), WithPreRoll(-1))
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestSentinelErrorsEndToEnd: the typed sentinels must unwrap with
// errors.Is through every layer — facade functions, the streaming
// engine and the pipeline share one error vocabulary.
func TestSentinelErrorsEndToEnd(t *testing.T) {
	// ErrSaturated out of the receiver-selection policy.
	if _, err := SelectReceiver(1e6); !errors.Is(err, ErrSaturated) {
		t.Fatalf("SelectReceiver(1e6): %v, want ErrSaturated", err)
	}

	// ErrNoPreamble out of a flat trace decoded whole.
	if events := flatEvents(t, 0); len(events) != 1 || !errors.Is(events[0].Err, ErrNoPreamble) {
		t.Fatalf("flat trace events %+v, want one ErrNoPreamble", events)
	}

	// ErrSessionEvicted for an unknown engine session; ErrEngineClosed
	// after shutdown. The pipeline hides the engine, so drive the
	// engine behind it directly.
	eng, err := stream.NewEngine(stream.EngineConfig{Session: stream.Config{Fs: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EndSession(42); !errors.Is(err, ErrSessionEvicted) {
		t.Fatalf("EndSession(42): %v, want ErrSessionEvicted", err)
	}
	eng.Close()
	if err := eng.FeedTagged(1, 0, []float64{1, 2, 3}, 0); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("FeedTagged after Close: %v, want ErrEngineClosed", err)
	}
}

// TestSentinelErrorsThroughStreamDetections: a decode failure inside
// a chunk-fed streaming session surfaces the same sentinel on the
// pipeline event.
func TestSentinelErrorsThroughStreamDetections(t *testing.T) {
	events := flatEvents(t, 100)
	if len(events) != 1 {
		t.Fatalf("flush produced %d events", len(events))
	}
	if !errors.Is(events[0].Err, ErrNoPreamble) {
		t.Fatalf("stream event error %v, want ErrNoPreamble", events[0].Err)
	}
}
