package decoder_test

import (
	"fmt"
	"testing"

	"passivelight/internal/decoder"
	"passivelight/internal/scenario"
	"passivelight/internal/trace"
)

// gridSpan is one sample window the decode pass runs on, with the
// options it is decoded under.
type gridSpan struct {
	name    string
	samples []float64
	fs      float64
	opt     decoder.Options
}

// streamSpans segments a trace with the default Incremental
// configuration, as the streaming engine does, and returns every
// completed segment, plus the whole trace as the batch Decode sees
// it. A two-phase span starts its search at the roof the car-shape
// phase finds, as DecodeCarPass does; spans whose shape phase fails
// are dropped.
func streamSpans(name string, tr *trace.Trace, expected int, twoPhase bool) []gridSpan {
	opt := decoder.Options{ExpectedSymbols: expected}
	inc := decoder.NewIncremental(tr.Fs, opt, decoder.IncrementalConfig{})
	segs := append(inc.Feed(tr.Samples), inc.Flush()...)
	windows := [][2]int64{{0, int64(tr.Len())}}
	for _, s := range segs {
		windows = append(windows, [2]int64{s.Start, s.End})
	}
	var out []gridSpan
	for i, w := range windows {
		span := gridSpan{name: fmt.Sprintf("%s/span%d", name, i), samples: tr.Samples[w[0]:w[1]], fs: tr.Fs, opt: opt}
		if twoPhase {
			sig, err := decoder.DetectCarShape(trace.New(tr.Fs, 0, span.samples))
			if err != nil {
				continue
			}
			span.opt.SearchFrom = sig.RoofStartIndex
		}
		out = append(out, span)
	}
	return out
}

// fleetSpans renders sessions of the fleet-load preset, the passes
// flood-direct streams into the engine.
func fleetSpans(t *testing.T, sessions int) []gridSpan {
	t.Helper()
	load, err := scenario.GetLoad("fleet-load")
	if err != nil {
		t.Fatal(err)
	}
	load.Sessions = sessions
	specs, err := load.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var out []gridSpan
	for i, spec := range specs {
		out = append(out, specSpans(t, fmt.Sprintf("fleet-load/%d", i), spec)...)
	}
	return out
}

// specSpans simulates every receiver link of spec and returns their
// stream and batch spans under the spec's symbol count.
func specSpans(t *testing.T, name string, spec scenario.Spec) []gridSpan {
	t.Helper()
	m, err := spec.CompileMulti()
	if err != nil {
		t.Fatal(err)
	}
	var out []gridSpan
	for li, cl := range m.Links {
		tr, err := cl.Link.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, streamSpans(fmt.Sprintf("%s/link%d", name, li), tr, spec.Decode.ExpectedSymbols, spec.Decode.Strategy == "two-phase")...)
	}
	return out
}

// TestGridSearchMatchesExhaustive locks the branch-and-bound timing
// search to the exhaustive one it replaced: the same symbols, window
// maxima, step and anchor, bit for bit, on fleet-load passes, every
// registry preset at three seeds, outdoor roof segments across
// heights, light levels and speeds, each both with the spec's symbol
// count and in auto mode (ExpectedSymbols 0). A share of the spans is
// searched again with the tau estimate skewed far enough off that the
// re-acquisition round and the coarse sweep run; the test checks both
// did.
func TestGridSearchMatchesExhaustive(t *testing.T) {
	spans := fleetSpans(t, 12)
	for _, e := range scenario.Entries() {
		for seed := int64(1); seed <= 3; seed++ {
			spec, err := e.Spec()
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = seed
			spans = append(spans, specSpans(t, fmt.Sprintf("%s/s%d", e.Name, seed), spec)...)
		}
	}
	for i, p := range []scenario.OutdoorParams{
		{Payload: "00", NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: 1},
		{Payload: "01", NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: 2},
		{Payload: "10", NoiseFloorLux: 3700, ReceiverHeight: 0.25, Seed: 3},
		{Payload: "11", NoiseFloorLux: 450, ReceiverHeight: 1.00, Seed: 4},
		{Payload: "0110", NoiseFloorLux: 5500, ReceiverHeight: 0.75, SpeedKmh: 30, Seed: 5},
		{Payload: "10", NoiseFloorLux: 100, ReceiverHeight: 0.75, CalmNoise: true, Seed: 6},
		{Payload: "1001", NoiseFloorLux: 2000, ReceiverHeight: 0.50, SpeedKmh: 12, Seed: 7},
	} {
		spec, err := p.Spec()
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, specSpans(t, fmt.Sprintf("outdoor/%d", i), spec)...)
	}
	searched, rounds := 0, 0
	for i, s := range spans {
		scales := []float64{1}
		if i%3 == 0 {
			scales = append(scales, 0.45, 0.6, 1.7, 2.3)
		}
		for _, expected := range []int{s.opt.ExpectedSymbols, 0} {
			opt := s.opt
			opt.ExpectedSymbols = expected
			for _, scale := range scales {
				ok, r, mismatch := decoder.GridSearchMismatch(s.samples, s.fs, opt, scale)
				if mismatch != "" {
					t.Fatalf("%s (%d symbols, tau x%v): %s", s.name, expected, scale, mismatch)
				}
				if ok {
					searched++
					rounds |= r
				}
			}
		}
	}
	if searched < len(spans) {
		t.Fatalf("only %d searches over %d spans reached the timing search", searched, len(spans))
	}
	if rounds != 7 {
		t.Fatalf("search rounds run: %03b, want all three", rounds)
	}
	t.Logf("%d spans, %d searches", len(spans), searched)
}
