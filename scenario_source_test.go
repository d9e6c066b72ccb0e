package passivelight

import (
	"context"
	"encoding/json"
	"testing"
)

// TestScenarioMultiLaneStreamsThroughPipeline is the acceptance lock
// for the scenario layer: the multi-lane preset (two staggered tagged
// cars in adjacent lanes) feeds a streaming TwoPhase pipeline in
// 1024-sample chunks, and every encoded packet comes back as its own
// detection, in lane order.
func TestScenarioMultiLaneStreamsThroughPipeline(t *testing.T) {
	spec, err := ScenarioPreset("multi-lane")
	if err != nil {
		t.Fatal(err)
	}
	world, tr, err := spec.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	src := NewTraceSource(tr, 1024) // stream in real chunks
	pipe, err := NewPipeline(src, TwoPhase(),
		WithExpectedSymbols(spec.Decode.ExpectedSymbols),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	packets := world.Packets
	if len(packets) != 2 {
		t.Fatalf("multi-lane should encode 2 packets, got %d", len(packets))
	}
	var decoded []string
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("event error: %v", ev.Err)
		}
		decoded = append(decoded, ev.BitString())
	}
	if len(decoded) != len(packets) {
		t.Fatalf("decoded %d packets (%v), want %d", len(decoded), decoded, len(packets))
	}
	for i, want := range packets {
		if decoded[i] != want.Packet.BitString() {
			t.Fatalf("lane %d (%s): decoded %q, want %q", i+1, want.Object, decoded[i], want.Packet.BitString())
		}
	}
}

// TestScenarioPresetsThroughPipelines drives every registry preset
// with a declared packet strategy through a real Pipeline.
func TestScenarioPresetsThroughPipelines(t *testing.T) {
	for _, e := range ScenarioPresets() {
		spec, err := e.Spec()
		if err != nil {
			t.Fatal(err)
		}
		var strat Strategy
		switch spec.Decode.Strategy {
		case "threshold":
			strat = Threshold()
		case "two-phase":
			strat = TwoPhase()
		case "collision":
			strat = Collision(CollisionOptions{MinFreq: 1.0, MaxFreq: 4.0, MinSeparation: 0.9, SignificanceRatio: 0.6})
		default:
			continue // shape-only presets are covered in internal/scenario
		}
		t.Run(e.Name, func(t *testing.T) {
			if len(spec.Receivers) > 0 {
				// Multi-receiver preset: all links through one pipeline,
				// one event per (receiver, packet).
				src := NewLoadSource(ScenarioLoad{Base: &spec, Sessions: 1})
				pipe, err := NewPipeline(src, strat, WithExpectedSymbols(spec.Decode.ExpectedSymbols))
				if err != nil {
					t.Fatal(err)
				}
				events, err := pipe.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				streams := src.Streams()
				perStream := map[uint64]int{}
				for _, ev := range events {
					if ev.Err != nil {
						t.Fatalf("event error: %v", ev.Err)
					}
					perStream[ev.Session]++
				}
				for _, st := range streams {
					if got := perStream[st.ID]; got != len(st.Packets) {
						t.Fatalf("receiver %s: %d events for %d packets", st.Name, got, len(st.Packets))
					}
				}
				return
			}
			src := NewScenarioSource(spec)
			pipe, err := NewPipeline(src, strat, WithExpectedSymbols(spec.Decode.ExpectedSymbols))
			if err != nil {
				t.Fatal(err)
			}
			events, err := pipe.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("no events")
			}
			for _, ev := range events {
				if ev.Err != nil {
					t.Fatalf("event error: %v", ev.Err)
				}
			}
			if spec.Decode.Strategy == "collision" {
				return
			}
			world, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != len(world.Packets) {
				t.Fatalf("%d events for %d packets", len(events), len(world.Packets))
			}
		})
	}
}

// TestScenarioSourceAutoSelect applies the Sec. 4.4 receiver policy
// to a declarative scenario: the dim pass picks the capped PD over
// the RX-LED, exactly like the typed car-pass source does.
func TestScenarioSourceAutoSelect(t *testing.T) {
	spec, err := (OutdoorCarPass{Payload: "00", NoiseFloorLux: 100, ReceiverHeight: 0.25, Seed: 9}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	spec.DurationSec = 0 // let the window follow the selected device's FoV
	src := NewScenarioSource(spec)
	pipe, err := NewPipeline(src, TwoPhase(),
		WithExpectedSymbols(8),
		WithPreRoll(-1),
		WithReceiverAutoSelect(PDReceiver(GainG2).WithCap(), RXLEDReceiver()),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if src.Receiver() != "pd-G2+cap" {
		t.Fatalf("selected %q, want the capped PD at 100 lux", src.Receiver())
	}
	ok := false
	for _, ev := range events {
		if ev.Err == nil && ev.BitString() == "00" {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("capped PD should decode the dim pass; events: %+v", events)
	}
	// A lamp-lit scenario has no ambient floor to select against.
	bench, err := (IndoorBench{Height: 0.2, SymbolWidth: 0.03, Speed: 0.08, Payload: "10", Seed: 1}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	lampSrc := NewScenarioSource(bench)
	lampPipe, err := NewPipeline(lampSrc, Threshold(), WithReceiverAutoSelect())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lampPipe.Run(context.Background()); err == nil {
		t.Fatal("auto-select over a point lamp should fail loudly")
	}
}

// TestScenarioJSONThroughPublicSurface loads a spec from JSON (as
// plsim -spec does) and replays it through the public API.
func TestScenarioJSONThroughPublicSurface(t *testing.T) {
	spec, err := ScenarioPreset("indoor-bench")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Scenario
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	src := NewScenarioSource(loaded)
	pipe, err := NewPipeline(src, Threshold(), WithExpectedSymbols(8), WithPreRoll(-1))
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Err != nil || events[0].BitString() != "10" {
		t.Fatalf("JSON-loaded bench should decode '10': %+v", events)
	}
}
