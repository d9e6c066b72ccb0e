package decoder

import (
	"math"
	"reflect"
	"testing"

	"passivelight/internal/trace"
)

// syntheticCarTrace emulates a car pass: ground baseline, hood peak,
// windshield valley, roof (optionally carrying a stripe code), rear
// glass valley, optional trunk peak, ground.
func syntheticCarTrace(fs float64, withTrunk bool, roofCode []float64) *trace.Trace {
	seg := func(level float64, dur float64) []float64 {
		out := make([]float64, int(dur*fs))
		for i := range out {
			out[i] = level
		}
		return out
	}
	var x []float64
	x = append(x, seg(20, 0.3)...)  // ground
	x = append(x, seg(80, 0.25)...) // hood
	x = append(x, seg(30, 0.15)...) // windshield
	if roofCode == nil {
		x = append(x, seg(75, 0.3)...) // bare roof
	} else {
		x = append(x, seg(75, 0.05)...) // roof before tag
		for _, level := range roofCode {
			x = append(x, seg(level, 0.04)...)
		}
		x = append(x, seg(75, 0.05)...) // roof after tag
	}
	x = append(x, seg(28, 0.15)...) // rear glass
	if withTrunk {
		x = append(x, seg(78, 0.2)...) // trunk
	}
	x = append(x, seg(20, 0.3)...) // ground
	return trace.New(fs, 0, x)
}

func TestDetectCarShape(t *testing.T) {
	tr := syntheticCarTrace(2000, false, nil)
	sig, err := DetectCarShape(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sig.HoodPeakIndex <= 0 {
		t.Fatal("hood peak not found")
	}
	if sig.WindshieldValleyIndex <= sig.HoodPeakIndex {
		t.Fatal("windshield valley must follow the hood peak")
	}
	if sig.RoofStartIndex != sig.WindshieldValleyIndex {
		t.Fatal("roof start should anchor at the windshield valley")
	}
	// Hood peak lands inside the hood segment (0.3-0.55 s).
	hoodT := tr.TimeAt(sig.HoodPeakIndex)
	if hoodT < 0.3 || hoodT > 0.55 {
		t.Fatalf("hood peak at %.3f s", hoodT)
	}
}

func TestMatchCarModelHatchbackVsSedan(t *testing.T) {
	hatch, err := DetectCarShape(syntheticCarTrace(2000, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := MatchCarModel(hatch); got != "hatchback" {
		t.Fatalf("hatchback classified as %q", got)
	}
	sedan, err := DetectCarShape(syntheticCarTrace(2000, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := MatchCarModel(sedan); got != "sedan" {
		t.Fatalf("sedan classified as %q", got)
	}
}

func TestDetectCarShapeErrors(t *testing.T) {
	if _, err := DetectCarShape(nil); err == nil {
		t.Fatal("nil trace should fail")
	}
	flat := make([]float64, 1000)
	for i := range flat {
		flat[i] = 40
	}
	if _, err := DetectCarShape(trace.New(2000, 0, flat)); err == nil {
		t.Fatal("flat trace should fail")
	}
}

// TestCarShapeNaNRangeKeepsEveryExtremum pins what a NaN range does:
// it passes the flat-trace test (NaN <= 0 is false), and the NaN
// prominence threshold then keeps every extremum, as the list-based
// detector's filter did, leaving only the distance thinning. Prefix
// sums spread a NaN sample over the whole smoothed trace, so the
// smoothed samples are given directly.
func TestCarShapeNaNRangeKeepsEveryExtremum(t *testing.T) {
	smooth := []float64{math.NaN(), 0, 1, 0, 0.5, 0.4, 0.5, 0}
	sig, err := new(shapeScratch).signature(smooth, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := CarSignature{
		HoodPeakIndex: 2, WindshieldValleyIndex: 3, RoofStartIndex: 3,
		Extrema: []ShapeExtremum{{2, 1, true}, {3, 0, false}, {4, 0.5, true}, {5, 0.4, false}, {6, 0.5, true}},
	}
	if !reflect.DeepEqual(sig, want) {
		t.Fatalf("signature %+v, want %+v", sig, want)
	}
	// Thinning still applies: at 3 samples, the hood peak drops the
	// peak at 4 and the windshield valley the valley at 5.
	sig, err = new(shapeScratch).signature(smooth, 3)
	if err != nil {
		t.Fatal(err)
	}
	want.Extrema = []ShapeExtremum{{2, 1, true}, {3, 0, false}, {6, 0.5, true}}
	if !reflect.DeepEqual(sig, want) {
		t.Fatalf("minDist 3: signature %+v, want %+v", sig, want)
	}
}

func TestDecodeCarPassTwoPhases(t *testing.T) {
	// Roof code HLHL.HLHL as plateau levels (H=95, L=35 on a 75 roof).
	code := []float64{95, 35, 95, 35, 95, 35, 95, 35}
	tr := syntheticCarTrace(2000, false, code)
	res, err := DecodeCarPass(tr, Options{ExpectedSymbols: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decode.ParseErr != nil {
		t.Fatalf("parse: %v (%s)", res.Decode.ParseErr, res.Decode.SymbolString())
	}
	if got := res.Decode.Packet.BitString(); got != "00" {
		t.Fatalf("decoded %q, want 00", got)
	}
}

func TestDecodeCarPassFailsWithoutCar(t *testing.T) {
	flat := make([]float64, 2000)
	for i := range flat {
		flat[i] = 40
	}
	if _, err := DecodeCarPass(trace.New(2000, 0, flat), Options{}); err == nil {
		t.Fatal("expected phase-1 failure")
	}
}

func TestMatchCarModelUnknown(t *testing.T) {
	if got := MatchCarModel(CarSignature{}); got != "unknown" {
		t.Fatalf("empty signature classified as %q", got)
	}
}
