package optics

import (
	"math"
	"testing"
)

func TestPointLampInverseSquare(t *testing.T) {
	lamp := PointLamp{Height: 0.2, Intensity: 10, LambertOrder: 1}
	e1 := lamp.IlluminanceAt(0, 0)
	lamp2 := lamp
	lamp2.Height = 0.4
	e2 := lamp2.IlluminanceAt(0, 0)
	if math.Abs(e1/e2-4) > 1e-9 {
		t.Fatalf("doubling height should quarter the lux: %.3f vs %.3f", e1, e2)
	}
}

func TestPointLampOffAxisFalloff(t *testing.T) {
	lamp := PointLamp{Height: 0.3, Intensity: 10, LambertOrder: 4}
	center := lamp.IlluminanceAt(0, 0)
	off := lamp.IlluminanceAt(0.3, 0) // 45 degrees off axis
	if off >= center {
		t.Fatalf("off-axis brighter than center: %.3f vs %.3f", off, center)
	}
	// Higher Lambert order narrows the beam.
	narrow := lamp
	narrow.LambertOrder = 20
	if narrow.IlluminanceAt(0.3, 0) >= off {
		t.Fatal("higher Lambert order should dim off-axis points")
	}
}

func TestLampForLuxCalibration(t *testing.T) {
	// Intensity = lux·h² puts exactly lux directly under the lamp: the
	// calibration the scenario point-lamp optics use.
	lamp := PointLamp{Height: 0.25, Intensity: 300 * 0.25 * 0.25, LambertOrder: 4}
	if got := lamp.IlluminanceAt(0, 0); math.Abs(got-300) > 1e-9 {
		t.Fatalf("center lux %.3f, want 300", got)
	}
}

func TestPointLampZeroHeight(t *testing.T) {
	lamp := PointLamp{Height: 0, Intensity: 10}
	if lamp.IlluminanceAt(0, 0) != 0 {
		t.Fatal("zero-height lamp should emit nothing")
	}
}

func TestCeilingLightRipple(t *testing.T) {
	c := CeilingLight{Lux: 200, RippleDepth: 0.2, MainsHz: 50}
	// Ripple at 100 Hz: period 10 ms. Sample a full period.
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	var sum float64
	n := 1000
	for i := 0; i < n; i++ {
		ti := 0.01 * float64(i) / float64(n)
		e := c.IlluminanceAt(0, ti)
		sum += e
		lo = math.Min(lo, e)
		hi = math.Max(hi, e)
	}
	if math.Abs(sum/float64(n)-200) > 1 {
		t.Fatalf("mean lux %.2f, want ~200", sum/float64(n))
	}
	if math.Abs(hi-240) > 1 || math.Abs(lo-160) > 1 {
		t.Fatalf("ripple extremes %.1f..%.1f, want 160..240", lo, hi)
	}
	// Spatially uniform.
	if c.IlluminanceAt(5, 0.003) != c.IlluminanceAt(-5, 0.003) {
		t.Fatal("ceiling light should be uniform in x")
	}
}

func TestCeilingLightRipplePeriod(t *testing.T) {
	c := CeilingLight{Lux: 100, RippleDepth: 0.1, MainsHz: 50}
	// The optical ripple is at 2x mains: value at t and t+10ms match.
	a := c.IlluminanceAt(0, 0.0012)
	b := c.IlluminanceAt(0, 0.0112)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("ripple not periodic at 100 Hz: %.6f vs %.6f", a, b)
	}
}

func TestCeilingLightNeverNegative(t *testing.T) {
	c := CeilingLight{Lux: 100, RippleDepth: 2, MainsHz: 50} // absurd depth
	for i := 0; i < 100; i++ {
		if e := c.IlluminanceAt(0, float64(i)*0.0001); e < 0 {
			t.Fatalf("negative illuminance %.3f", e)
		}
	}
}

func TestCeilingLightHarmonics(t *testing.T) {
	base := CeilingLight{Lux: 100, RippleDepth: 0.1, MainsHz: 50}
	rich := CeilingLight{Lux: 100, RippleDepth: 0.1, MainsHz: 50, Harmonics: []float64{0.5}}
	same := true
	for i := 0; i < 50; i++ {
		ti := float64(i) * 0.0002
		if math.Abs(base.IlluminanceAt(0, ti)-rich.IlluminanceAt(0, ti)) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("harmonics had no effect")
	}
}

func TestSunConstantAndDrift(t *testing.T) {
	s := Sun{Lux: 6200}
	if s.IlluminanceAt(0, 0) != s.IlluminanceAt(100, 3600) {
		t.Fatal("sun without drift should be constant")
	}
	d := Sun{Lux: 6200, SlowDriftAmp: 0.1, DriftPeriod: 60}
	if d.IlluminanceAt(0, 15) == d.IlluminanceAt(0, 45) {
		t.Fatal("drifting sun should vary")
	}
	// Mean over a full period is the nominal lux.
	if got := MeanLux(d, 0, 60, 600); math.Abs(got-6200) > 31 {
		t.Fatalf("drift mean %.1f, want ~6200", got)
	}
}

func TestCompositeSums(t *testing.T) {
	c := Composite{Sources: []Source{
		Sun{Lux: 100},
		CeilingLight{Lux: 50, MainsHz: 50},
	}}
	if got := c.IlluminanceAt(0, 0); math.Abs(got-150) > 1e-9 {
		t.Fatalf("composite %.2f, want 150", got)
	}
	if c.Name() != "composite(2)" {
		t.Fatalf("name %q", c.Name())
	}
}

func TestMeanLux(t *testing.T) {
	if got := MeanLux(Sun{Lux: 450}, 0, 1, 16); got != 450 {
		t.Fatalf("mean lux %.2f", got)
	}
	// n < 1 clamps to one sample.
	if got := MeanLux(Sun{Lux: 450}, 0, 1, 0); got != 450 {
		t.Fatalf("mean lux with n=0: %.2f", got)
	}
}
