package frontend

import (
	"errors"
	"math"
	"testing"
)

func TestFig11Table(t *testing.T) {
	// The device table from the paper's Fig. 11 must be encoded
	// exactly.
	cases := []struct {
		dev  Receiver
		sat  float64
		sens float64
	}{
		{PD(G1), 450, 1.0},
		{PD(G2), 1200, 0.45},
		{PD(G3), 5000, 0.089},
		{RXLED(), 35000, 0.013},
	}
	for _, c := range cases {
		if c.dev.SaturationLux != c.sat {
			t.Errorf("%s saturation %v, want %v", c.dev.Name, c.dev.SaturationLux, c.sat)
		}
		if c.dev.Sensitivity != c.sens {
			t.Errorf("%s sensitivity %v, want %v", c.dev.Name, c.dev.Sensitivity, c.sens)
		}
		if err := c.dev.Validate(); err != nil {
			t.Errorf("%s: %v", c.dev.Name, err)
		}
	}
}

func TestSaturationTimesSensitivityNearConstant(t *testing.T) {
	// The Fig. 11 rows satisfy sat*sens ~ 450-540 lux: they are one
	// front-end scaling seen through different gains.
	for _, dev := range []Receiver{PD(G1), PD(G2), PD(G3), RXLED()} {
		prod := dev.SaturationLux * dev.Sensitivity
		if prod < 440 || prod > 560 {
			t.Errorf("%s: sat*sens = %.1f outside [440, 560]", dev.Name, prod)
		}
	}
}

func TestWithCapNarrowsFoV(t *testing.T) {
	bare := PD(G2)
	capped := bare.WithCap()
	if capped.FoVHalfAngleDeg >= bare.FoVHalfAngleDeg {
		t.Fatal("cap should narrow the FoV")
	}
	if capped.Sensitivity >= bare.Sensitivity {
		t.Fatal("cap should cost sensitivity")
	}
	if capped.Name != "pd-G2+cap" {
		t.Fatalf("name %q", capped.Name)
	}
}

func TestChainQuantizesToCounts(t *testing.T) {
	fe, err := NewChain(PD(G1), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	fe.DisableNoise = true
	out := fe.Digitize([]float64{100, 100, 100})
	for _, v := range out {
		if v != math.Trunc(v) {
			t.Fatalf("non-integer count %v", v)
		}
		if v < 0 || v > 1023 {
			t.Fatalf("count %v outside 10-bit range", v)
		}
	}
}

func TestChainSaturationClips(t *testing.T) {
	fe, err := NewChain(PD(G1), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	fe.DisableNoise = true
	low := fe.Digitize([]float64{400})[0]
	atSat := fe.Digitize([]float64{450})[0]
	beyond := fe.Digitize([]float64{2000})[0]
	if low >= atSat {
		t.Fatalf("below saturation should grow: %v vs %v", low, atSat)
	}
	if beyond > atSat {
		t.Fatalf("beyond saturation should clip: %v vs %v", beyond, atSat)
	}
}

func TestChainSensitivityScalesOutput(t *testing.T) {
	g1, err := NewChain(PD(G1), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1.DisableNoise = true
	led, err := NewChain(RXLED(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	led.DisableNoise = true
	aG1 := g1.Digitize([]float64{200})[0]
	aLED := led.Digitize([]float64{200})[0]
	ratio := aLED / aG1
	if math.Abs(ratio-0.013) > 0.01 {
		t.Fatalf("output ratio %v, want ~0.013", ratio)
	}
}

func TestChainResponseTimeSmoothsSteps(t *testing.T) {
	slow := PD(G1)
	slow.ResponseHz = 20 // artificially slow receiver
	fe, err := NewChain(slow, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	fe.DisableNoise = true
	in := make([]float64, 100)
	for i := 50; i < 100; i++ {
		in[i] = 300
	}
	out := fe.Digitize(in)
	// Immediately after the step the slow receiver lags.
	if out[51] >= out[99]*0.5 {
		t.Fatalf("slow receiver reacted instantly: %v vs %v", out[51], out[99])
	}
	if out[99] < out[51] {
		t.Fatal("output should keep rising toward the step level")
	}
}

func TestChainNoiseDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []float64 {
		fe, err := NewChain(PD(G1), 1000, seed)
		if err != nil {
			t.Fatal(err)
		}
		return fe.Digitize([]float64{100, 100, 100, 100})
	}
	a := mk(7)
	b := mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce identical noise")
		}
	}
}

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(Receiver{}, 1000, 1); err == nil {
		t.Fatal("invalid receiver should fail")
	}
	if _, err := NewChain(PD(G1), 0, 1); err == nil {
		t.Fatal("zero sample rate should fail")
	}
}

func TestSelectReceiverPolicy(t *testing.T) {
	cases := []struct {
		lux  float64
		want string
	}{
		{100, "pd-G1"},
		{430, "pd-G1"},
		{450, "pd-G2"}, // G1 saturates within 2% of 450
		{1200, "pd-G3"},
		{4800, "pd-G3"},
		{5000, "rx-led"},
		{30000, "rx-led"},
	}
	for _, c := range cases {
		got, err := SelectReceiver(c.lux)
		if err != nil {
			t.Fatalf("%v lux: %v", c.lux, err)
		}
		if got.Name != c.want {
			t.Errorf("%v lux -> %s, want %s", c.lux, got.Name, c.want)
		}
	}
	if _, err := SelectReceiver(40000); err == nil {
		t.Fatal("40 klux should saturate everything")
	}
	// Explicit candidate list is honored.
	got, err := SelectReceiver(100, RXLED())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rx-led" {
		t.Fatalf("candidate list ignored: %s", got.Name)
	}
}

func TestGainLevelString(t *testing.T) {
	if G1.String() != "G1" || G2.String() != "G2" || G3.String() != "G3" {
		t.Fatal("gain level strings")
	}
	if GainLevel(9).String() == "" {
		t.Fatal("unknown gain level should still render")
	}
}

func TestADCFullScale(t *testing.T) {
	if (ADC{Bits: 10}).FullScale() != 1023 {
		t.Fatal("10-bit full scale")
	}
	if (ADC{}).FullScale() != 1023 {
		t.Fatal("default full scale should be 10-bit")
	}
	if (ADC{Bits: 8}).FullScale() != 255 {
		t.Fatal("8-bit full scale")
	}
}

func TestSelectReceiverAllSaturated(t *testing.T) {
	// Brighter than every device's saturation point: the error must
	// unwrap to the ErrSaturated sentinel.
	_, err := SelectReceiver(1e6)
	if err == nil {
		t.Fatal("1M lux should saturate every default device")
	}
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("error %v does not unwrap to ErrSaturated", err)
	}
	// Same with an explicit candidate list.
	_, err = SelectReceiver(500, PD(G1))
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated explicit candidate: %v", err)
	}
}

func TestSelectReceiverEmptyCandidates(t *testing.T) {
	// No candidates selects the four Fig. 11 devices; in the dark the
	// most sensitive (PD at G1) must win.
	dev, err := SelectReceiver(10)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Name != "pd-G1" {
		t.Fatalf("10 lux with default devices -> %s, want pd-G1", dev.Name)
	}
	// At 2000 lux G1/G2 saturate and G3 is the most sensitive left.
	dev, err = SelectReceiver(2000)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Name != "pd-G3" {
		t.Fatalf("2000 lux -> %s, want pd-G3", dev.Name)
	}
}

// TestDigitizeWithoutNoiseAllocatesNothing checks that a chain that
// draws no noise, because noise is off or the receiver has no dark
// noise, seeds no PRNG and writes the counts over its input.
func TestDigitizeWithoutNoiseAllocatesNothing(t *testing.T) {
	off, err := NewChain(PD(G1), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	off.DisableNoise = true
	dark := PD(G1)
	dark.DarkNoiseCounts = 0
	silent, err := NewChain(dark, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, fe := range map[string]*Chain{"noise off": off, "no dark noise": silent} {
		buf := make([]float64, 4)
		allocs := testing.AllocsPerRun(100, func() {
			for i := range buf {
				buf[i] = 100
			}
			if out := fe.Digitize(buf); &out[0] != &buf[0] {
				t.Fatalf("%s: Digitize did not write over its input", name)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Digitize allocated %v times per call, want 0", name, allocs)
		}
	}
}
