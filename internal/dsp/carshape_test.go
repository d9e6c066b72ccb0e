package dsp_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"passivelight/internal/core"
	"passivelight/internal/decoder"
	"passivelight/internal/dsp"
	"passivelight/internal/scenario"
	"passivelight/internal/scene"
	"passivelight/internal/trace"
)

// refDetectCarShape is the list-based car-shape detector that
// decoder.DetectCarShape replaced: exact prominences for every raw
// extremum from the reference FindPeaks/FindValleys, each list
// filtered and thinned there.
func refDetectCarShape(tr *trace.Trace) (decoder.CarSignature, error) {
	if tr == nil || tr.Len() < 16 {
		return decoder.CarSignature{}, errors.New("decoder: trace too short for shape detection")
	}
	win := int(tr.Fs * 0.04)
	if win < 3 {
		win = 3
	}
	smooth := dsp.MovingAverage(tr.Samples, win)
	lo, hi := dsp.MinMax(smooth)
	rng := hi - lo
	if rng <= 0 {
		return decoder.CarSignature{}, errors.New("decoder: flat trace")
	}
	prom := 0.2 * rng
	minDist := int(tr.Fs * 0.1)
	peaks := dsp.FindPeaks(smooth, dsp.PeakOptions{MinProminence: prom, MinDistance: minDist})
	valleys := dsp.FindValleys(smooth, dsp.PeakOptions{MinProminence: prom, MinDistance: minDist})
	if len(peaks) == 0 || len(valleys) == 0 {
		return decoder.CarSignature{}, errors.New("decoder: no car-shape features found")
	}
	sig := decoder.CarSignature{HoodPeakIndex: -1, WindshieldValleyIndex: -1}
	sig.HoodPeakIndex = peaks[0].Index
	for _, v := range valleys {
		if v.Index > sig.HoodPeakIndex {
			sig.WindshieldValleyIndex = v.Index
			break
		}
	}
	if sig.WindshieldValleyIndex < 0 {
		return decoder.CarSignature{}, errors.New("decoder: hood peak without windshield valley")
	}
	sig.RoofStartIndex = sig.WindshieldValleyIndex
	pi, vi := 0, 0
	for pi < len(peaks) || vi < len(valleys) {
		switch {
		case pi == len(peaks):
			sig.Extrema = append(sig.Extrema, decoder.ShapeExtremum{Index: valleys[vi].Index, Value: valleys[vi].Value})
			vi++
		case vi == len(valleys):
			sig.Extrema = append(sig.Extrema, decoder.ShapeExtremum{Index: peaks[pi].Index, Value: peaks[pi].Value, IsPeak: true})
			pi++
		case peaks[pi].Index < valleys[vi].Index:
			sig.Extrema = append(sig.Extrema, decoder.ShapeExtremum{Index: peaks[pi].Index, Value: peaks[pi].Value, IsPeak: true})
			pi++
		default:
			sig.Extrema = append(sig.Extrema, decoder.ShapeExtremum{Index: valleys[vi].Index, Value: valleys[vi].Value})
			vi++
		}
	}
	return sig, nil
}

// sameCarShape reports how DetectCarShape's result differs from the
// reference detector's, or "" when indices, value bits, extrema and
// errors all agree.
func sameCarShape(tr *trace.Trace) string {
	got, gotErr := decoder.DetectCarShape(tr)
	want, wantErr := refDetectCarShape(tr)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if got.HoodPeakIndex != want.HoodPeakIndex || got.WindshieldValleyIndex != want.WindshieldValleyIndex ||
		got.RoofStartIndex != want.RoofStartIndex || len(got.Extrema) != len(want.Extrema) {
		return fmt.Sprintf("signature %+v, reference %+v", got, want)
	}
	for k, g := range got.Extrema {
		w := want.Extrema[k]
		if g.Index != w.Index || g.IsPeak != w.IsPeak || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			return fmt.Sprintf("extremum %d: %+v, reference %+v", k, g, w)
		}
	}
	return ""
}

func simulate(t *testing.T, link *core.Link) *trace.Trace {
	t.Helper()
	tr, err := link.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDetectCarShapeMatchesReference holds the one-scan car-shape
// detector to the list-based reference on real traces: 200 outdoor
// passes drawn from two seeds across payloads, ambient levels and
// receiver heights, every registry preset that decodes two-phase, and
// the bare Volvo V40 and BMW 3 of Figs. 13-14. Every one of them shows
// a car, so synthetic traces take each error path.
func TestDetectCarShapeMatchesReference(t *testing.T) {
	check := func(name string, tr *trace.Trace) {
		t.Helper()
		if diff := sameCarShape(tr); diff != "" {
			t.Fatalf("%s: %s", name, diff)
		}
	}
	levels := func(lv ...float64) *trace.Trace {
		var x []float64
		for _, v := range lv {
			for i := 0; i < 600; i++ {
				x = append(x, v)
			}
		}
		return trace.New(2000, 0, x)
	}
	check("nil trace", nil)
	check("short trace", trace.New(2000, 0, make([]float64, 10)))
	check("flat trace", levels(40))
	check("bump without valleys", levels(20, 80, 20))
	check("valley before the only peak", levels(50, 20, 50, 80, 50))
	floors := []float64{100, 450, 3700, 6200}
	heights := []float64{0.25, 0.75, 1.00}
	for _, seed := range []int64{1, 7} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			payload := make([]byte, 2+rng.Intn(3))
			for k := range payload {
				payload[k] = '0' + byte(rng.Intn(2))
			}
			p := scenario.OutdoorParams{
				Payload:        string(payload),
				NoiseFloorLux:  floors[rng.Intn(len(floors))],
				ReceiverHeight: heights[rng.Intn(len(heights))],
				Seed:           rng.Int63(),
			}
			link, _, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("seed %d pass %d (%+v)", seed, i, p), simulate(t, link))
		}
	}
	presets := 0
	for _, e := range scenario.Entries() {
		spec, err := e.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if spec.Decode.Strategy != "two-phase" {
			continue
		}
		presets++
		for seed := int64(1); seed <= 3; seed++ {
			spec.Seed = seed
			m, err := spec.CompileMulti()
			if err != nil {
				t.Fatal(err)
			}
			for k, cl := range m.Links {
				check(fmt.Sprintf("%s/s%d link %d", e.Name, seed, k), simulate(t, cl.Link))
			}
		}
	}
	if presets == 0 {
		t.Fatal("no registry preset decodes two-phase")
	}
	for _, car := range []scene.CarModel{scene.VolvoV40(), scene.BMW3()} {
		link, _, err := scenario.OutdoorParams{Car: car, NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: 40}.Build()
		if err != nil {
			t.Fatal(err)
		}
		check(car.Name, simulate(t, link))
	}
}
