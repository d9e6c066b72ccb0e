package noise

import (
	"math"
	"testing"
)

func constant(v float64, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = v
	}
	return x
}

func TestQuietIsPassthrough(t *testing.T) {
	in := []float64{1, 2, 3, 0, 5}
	x := append([]float64(nil), in...)
	out := Model{}.ApplyInPlace(x)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("sample %d changed: %v", i, out[i])
		}
	}
	if &out[0] != &x[0] {
		t.Fatal("ApplyInPlace did not write over its input")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	m := Model{ThermalSigma: 1, Seed: 42}
	a := m.ApplyInPlace(constant(10, 100))
	b := m.ApplyInPlace(constant(10, 100))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the same noise")
		}
	}
	m2 := Model{ThermalSigma: 1, Seed: 43}
	c := m2.ApplyInPlace(constant(10, 100))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestThermalNoiseStatistics(t *testing.T) {
	m := Model{ThermalSigma: 2, Seed: 1}
	out := m.ApplyInPlace(constant(100, 20000))
	var sum, sq float64
	for _, v := range out {
		sum += v
	}
	mean := sum / float64(len(out))
	for _, v := range out {
		d := v - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(out)))
	if math.Abs(mean-100) > 0.1 {
		t.Fatalf("mean %v", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Fatalf("std %v, want ~2", std)
	}
}

func TestShotNoiseScalesWithLevel(t *testing.T) {
	m := Model{ShotCoeff: 0.5, Seed: 2}
	dim := m.ApplyInPlace(constant(10, 20000))
	bright := Model{ShotCoeff: 0.5, Seed: 2}.ApplyInPlace(constant(1000, 20000))
	stdOf := func(x []float64, mean float64) float64 {
		var sq float64
		for _, v := range x {
			d := v - mean
			sq += d * d
		}
		return math.Sqrt(sq / float64(len(x)))
	}
	sDim := stdOf(dim, 10)
	sBright := stdOf(bright, 1000)
	// sigma ~ sqrt(level): ratio should be ~10.
	if r := sBright / sDim; r < 7 || r > 13 {
		t.Fatalf("shot scaling ratio %v, want ~10", r)
	}
}

func TestClampsAtZero(t *testing.T) {
	m := Model{ThermalSigma: 100, Seed: 3}
	out := m.ApplyInPlace(constant(0.1, 1000))
	for _, v := range out {
		if v < 0 {
			t.Fatalf("negative illuminance %v", v)
		}
	}
}

func TestGlints(t *testing.T) {
	m := Model{GlintProb: 0.1, GlintAmp: 50, Seed: 4}
	out := m.ApplyInPlace(constant(10, 5000))
	spikes := 0
	for _, v := range out {
		if v > 40 {
			spikes++
		}
	}
	if spikes < 300 || spikes > 700 {
		t.Fatalf("glint count %d, want ~500", spikes)
	}
}

func TestDriftAccumulates(t *testing.T) {
	m := Model{DriftSigma: 0.5, Seed: 5}
	out := m.ApplyInPlace(constant(100, 10000))
	// A random walk's late deviation should typically exceed its
	// early deviation.
	early := math.Abs(out[10] - 100)
	late := math.Abs(out[9999] - 100)
	if late <= early {
		t.Logf("early %v late %v (random walk can recross; checking variance growth instead)", early, late)
	}
	var lateVar float64
	for _, v := range out[9000:] {
		d := v - 100
		lateVar += d * d
	}
	lateVar /= 1000
	var earlyVar float64
	for _, v := range out[:1000] {
		d := v - 100
		earlyVar += d * d
	}
	earlyVar /= 1000
	if lateVar <= earlyVar {
		t.Fatalf("drift variance did not grow: early %v late %v", earlyVar, lateVar)
	}
}

func TestPresetModels(t *testing.T) {
	in := Indoor(1)
	if in.ThermalSigma <= 0 || in.ShotCoeff <= 0 {
		t.Fatal("indoor preset incomplete")
	}
	out := Outdoor(1)
	if out.DriftSigma <= 0 || out.GlintProb <= 0 {
		t.Fatal("outdoor preset incomplete")
	}
	if out.ThermalSigma <= in.ThermalSigma {
		t.Fatal("outdoor noise should exceed indoor")
	}
}

// TestQuietModelAllocatesNothing checks that a model with every term
// zero (the scenario "quiet" profile) seeds no PRNG and leaves the
// series as it was.
func TestQuietModelAllocatesNothing(t *testing.T) {
	m := Model{Seed: 7}
	x := []float64{1, 2, 3, 4}
	if allocs := testing.AllocsPerRun(100, func() { m.ApplyInPlace(x) }); allocs != 0 {
		t.Fatalf("quiet model allocated %v times per call, want 0", allocs)
	}
	for i, v := range x {
		if v != float64(i+1) {
			t.Fatalf("quiet model changed sample %d to %v", i, v)
		}
	}
}
