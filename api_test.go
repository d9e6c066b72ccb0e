package passivelight

import (
	"context"
	"testing"
)

func TestQuickstartEndToEnd(t *testing.T) {
	src := NewBenchSource(IndoorBench{
		Height:      0.20,
		SymbolWidth: 0.03,
		Speed:       0.08,
		Payload:     "10",
		Seed:        42,
	})
	pipe, err := NewPipeline(src, Threshold(), WithPreRoll(-1))
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
	if events[0].BitString() != src.Packet().BitString() {
		t.Fatalf("decoded %s, sent %s", events[0].Symbols, src.Packet().SymbolString())
	}
	if events[0].BitString() != "10" {
		t.Fatalf("payload %q", events[0].BitString())
	}
}

func TestFacadePacketHelpers(t *testing.T) {
	p, err := NewPacket("0110")
	if err != nil {
		t.Fatal(err)
	}
	if p.SymbolString() != "HLHL.HLLHLHHL" {
		t.Fatalf("symbol string %q", p.SymbolString())
	}
	if MustPacket("1").BitString() != "1" {
		t.Fatal("MustPacket")
	}
	if _, err := NewPacket("abc"); err == nil {
		t.Fatal("invalid payload should fail")
	}
}

func TestFacadeCodebook(t *testing.T) {
	cb, err := NewCodebook(6, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Len() != 4 {
		t.Fatalf("codebook size %d", cb.Len())
	}
	w, err := cb.Encode(2)
	if err != nil {
		t.Fatal(err)
	}
	idx, dist := cb.Decode(w)
	if idx != 2 || dist != 0 {
		t.Fatalf("decode %d (dist %d)", idx, dist)
	}
}

func TestFacadeReceiverSelection(t *testing.T) {
	dev, err := SelectReceiver(6200)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Name != "rx-led" {
		t.Fatalf("6200 lux -> %s", dev.Name)
	}
	pd := PDReceiver(GainG1)
	if pd.SaturationLux != 450 {
		t.Fatalf("pd-g1 saturation %v", pd.SaturationLux)
	}
	led := RXLEDReceiver()
	if led.SaturationLux != 35000 {
		t.Fatalf("rx-led saturation %v", led.SaturationLux)
	}
}

func TestFacadeOutdoorCarPass(t *testing.T) {
	src := NewCarPassSource(OutdoorCarPass{
		Payload:        "00",
		NoiseFloorLux:  6200,
		ReceiverHeight: 0.75,
		Seed:           5,
	})
	pipe, err := NewPipeline(src, TwoPhase(), WithExpectedSymbols(8), WithPreRoll(-1))
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
	if got, want := events[0].BitString(), src.Packet().BitString(); got != want {
		t.Fatalf("decoded %q, want %q", got, want)
	}
}

// TestFacadeStreaming feeds a rendered trace chunk by chunk through a
// ChunkSource, the live-feed path, in the default bounded-memory mode.
func TestFacadeStreaming(t *testing.T) {
	src := NewBenchSource(IndoorBench{
		Height:      0.20,
		SymbolWidth: 0.03,
		Speed:       0.08,
		Payload:     "10",
		Seed:        42,
	})
	if _, err := src.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr := src.Trace()
	ch := make(chan SourceChunk)
	go func() {
		defer close(ch)
		for chunk := range tr.Chunks(500) {
			ch <- SourceChunk{Session: 1, Samples: chunk}
		}
	}()
	pipe, err := NewPipeline(NewChunkSource(tr.Fs, ch), Threshold(), WithExpectedSymbols(8))
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range events {
		if ev.Err == nil && ev.Session == 1 {
			got = append(got, ev.BitString())
		}
	}
	if len(got) != 1 || got[0] != src.Packet().BitString() {
		t.Fatalf("streamed decode %v, want [%s]", got, src.Packet().BitString())
	}
	st := pipe.Stats()
	if st.SamplesIn != int64(tr.Len()) || st.Detections != 1 {
		t.Fatalf("engine stats %+v", st)
	}
}

func TestFacadeCollisionAnalysis(t *testing.T) {
	// Re-analyze a car pass through the Collision strategy.
	src := NewCarPassSource(OutdoorCarPass{Payload: "00", NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: 5})
	pipe, err := NewPipeline(src, Collision(CollisionOptions{MaxFreq: 100}))
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Err != nil || events[0].Collision == nil {
		t.Fatalf("events %+v", events)
	}
	// A single packet: one dominant symbol-rate region.
	if events[0].Collision.DominantFreq <= 0 {
		t.Fatal("no dominant frequency found")
	}
}
