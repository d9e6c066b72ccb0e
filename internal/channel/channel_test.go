package channel

import (
	"math"
	"testing"

	"passivelight/internal/coding"
	"passivelight/internal/material"
	"passivelight/internal/optics"
	"passivelight/internal/scene"
	"passivelight/internal/tag"
)

func TestKernelWeightsNormalizedAndSymmetric(t *testing.T) {
	r := Receiver{Height: 0.3, FoVHalfAngleDeg: 10}
	offsets, weights := r.Kernel()
	if len(offsets) != len(weights) {
		t.Fatal("length mismatch")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			t.Fatal("negative weight")
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Symmetric about center, maximal in the middle.
	n := len(weights)
	for i := 0; i < n/2; i++ {
		if math.Abs(weights[i]-weights[n-1-i]) > 1e-12 {
			t.Fatalf("asymmetric weights at %d", i)
		}
	}
	if weights[n/2] < weights[0] {
		t.Fatal("center weight should dominate")
	}
	// Footprint endpoints.
	wantR := 0.3 * math.Tan(10*math.Pi/180)
	if math.Abs(offsets[n-1]-wantR) > 1e-9 || math.Abs(offsets[0]+wantR) > 1e-9 {
		t.Fatalf("footprint edges %v..%v, want +-%v", offsets[0], offsets[n-1], wantR)
	}
}

func TestReceiverValidation(t *testing.T) {
	bad := []Receiver{
		{Height: 0, FoVHalfAngleDeg: 10},
		{Height: 1, FoVHalfAngleDeg: 0},
		{Height: 1, FoVHalfAngleDeg: 95},
		{Height: 1, FoVHalfAngleDeg: 10, CollectionEfficiency: 2},
		{Height: 1, FoVHalfAngleDeg: 10, StrayCoupling: -0.1},
		{Height: 1, FoVHalfAngleDeg: 10, KernelSamples: -1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	good := Receiver{Height: 0.25, FoVHalfAngleDeg: 40}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderStaticSceneIsFlat(t *testing.T) {
	sc := scene.New(optics.Sun{Lux: 500})
	r := Receiver{Height: 0.5, FoVHalfAngleDeg: 10}
	out, err := Render(sc, r, 0, 0.1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("samples %d", len(out))
	}
	for i, v := range out {
		if math.Abs(v-out[0]) > 1e-9 {
			t.Fatalf("sample %d differs: %v vs %v", i, v, out[0])
		}
	}
	// Expected level: eta*rho_ground*E + stray*E with defaults.
	want := DefaultCollectionEfficiency*material.Tarmac.Reflectance*500 + DefaultStrayCoupling*500
	if math.Abs(out[0]-want) > 1e-9 {
		t.Fatalf("level %v, want %v", out[0], want)
	}
}

func TestRenderBrightStripeCreatesBump(t *testing.T) {
	hiTag, err := tag.NewFromSymbols([]coding.Symbol{coding.High}, tag.Config{SymbolWidth: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := scene.NewTagObject("stripe", hiTag, scene.ConstantSpeed{Start: -0.2, Speed: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := scene.New(optics.Sun{Lux: 500}, obj)
	r := Receiver{Height: 0.2, FoVHalfAngleDeg: 5}
	out, err := Render(sc, r, 0, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := out[0], out[0]
	hiIdx := 0
	for i, v := range out {
		if v > hi {
			hi, hiIdx = v, i
		}
		if v < lo {
			lo = v
		}
	}
	if hi <= lo {
		t.Fatal("no bump rendered")
	}
	// The stripe center passes the receiver (x=0) when the leading
	// edge is at +0.025: t = 0.225/0.1 = 2.25 s -> sample 450.
	if math.Abs(float64(hiIdx)-450) > 40 {
		t.Fatalf("bump at sample %d, want ~450", hiIdx)
	}
}

func TestRenderISIWithWideFoV(t *testing.T) {
	// The same alternating tag rendered with a narrow and a wide FoV:
	// the wide footprint must reduce the peak-to-peak excursion
	// (inter-symbol interference, Fig. 2(b)).
	mk := func(fov float64) float64 {
		tg, err := tag.New(coding.MustPacket("00"), tag.Config{SymbolWidth: 0.03})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := scene.NewTagObject("tag", tg, scene.ConstantSpeed{Start: -0.2, Speed: 0.08}, 1)
		if err != nil {
			t.Fatal(err)
		}
		sc := scene.New(optics.Sun{Lux: 500}, obj)
		out, err := Render(sc, Receiver{Height: 0.3, FoVHalfAngleDeg: fov}, 0, 8, 200)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := out[0], out[0]
		for _, v := range out {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	narrow := mk(3)
	wide := mk(25)
	if wide >= narrow*0.8 {
		t.Fatalf("wide FoV should smear symbols: narrow %.2f wide %.2f", narrow, wide)
	}
}

func TestRenderErrors(t *testing.T) {
	sc := scene.New(optics.Sun{Lux: 100})
	if _, err := Render(sc, Receiver{Height: 0, FoVHalfAngleDeg: 10}, 0, 1, 100); err == nil {
		t.Fatal("invalid receiver should fail")
	}
	r := Receiver{Height: 1, FoVHalfAngleDeg: 10}
	if _, err := Render(sc, r, 0, 0, 100); err == nil {
		t.Fatal("zero duration should fail")
	}
	if _, err := Render(sc, r, 0, 1, 0); err == nil {
		t.Fatal("zero sample rate should fail")
	}
}

func TestLevelAtMatchesRender(t *testing.T) {
	sc := scene.New(optics.Sun{Lux: 300})
	r := Receiver{Height: 0.4, FoVHalfAngleDeg: 15}
	out, err := Render(sc, r, 0.5, 0.01, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := LevelAt(sc, r, 0.5); math.Abs(got-out[0]) > 1e-9 {
		t.Fatalf("LevelAt %v vs Render %v", got, out[0])
	}
}

func TestPassWindow(t *testing.T) {
	tg, err := tag.New(coding.MustPacket("0"), tag.Config{SymbolWidth: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := scene.NewTagObject("tag", tg, scene.ConstantSpeed{Start: -1, Speed: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := Receiver{Height: 0.2, FoVHalfAngleDeg: 5}
	t0, t1, ok := PassWindow(obj, r, 10, 0.01, 0.1)
	if !ok {
		t.Fatal("pass not found")
	}
	// The tag (0.3 m long) reaches the FoV edge (~ -0.0175) when its
	// leading edge arrives: t ~ (1-0.0175)/0.5 ~ 1.97 s; it leaves
	// when its tail passes +0.0175: t ~ (1 + 0.3 + 0.0175)/0.5 ~ 2.64.
	if t0 > 1.97 || t0 < 1.5 {
		t.Fatalf("t0 = %v", t0)
	}
	if t1 < 2.6 || t1 > 3.1 {
		t.Fatalf("t1 = %v", t1)
	}
	// An object moving away never enters.
	away, err := scene.NewTagObject("away", tg, scene.ConstantSpeed{Start: -1, Speed: -0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := PassWindow(away, r, 10, 0.01, 0.1); ok {
		t.Fatal("receding object should not produce a window")
	}
}

func TestStrayCouplingSetsPedestal(t *testing.T) {
	sc := scene.New(optics.Sun{Lux: 1000})
	sc.Ground = material.DarkCloth
	withStray := Receiver{Height: 0.5, FoVHalfAngleDeg: 10, StrayCoupling: 0.3, CollectionEfficiency: 0.5}
	noStray := Receiver{Height: 0.5, FoVHalfAngleDeg: 10, StrayCoupling: -1, CollectionEfficiency: 0.5}
	// StrayCoupling < 0 is invalid; emulate "no stray" with a tiny
	// positive value instead.
	noStray.StrayCoupling = 1e-9
	a := LevelAt(sc, withStray, 0)
	b := LevelAt(sc, noStray, 0)
	if a-b < 0.3*1000*0.9 {
		t.Fatalf("stray pedestal missing: %v vs %v", a, b)
	}
}

func BenchmarkRenderCarPassWindow(b *testing.B) {
	tg, err := tag.New(coding.MustPacket("00"), tag.Config{SymbolWidth: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	obj, err := scene.NewTagObject("tag", tg, scene.ConstantSpeed{Start: -1, Speed: 5}, 1)
	if err != nil {
		b.Fatal(err)
	}
	sc := scene.New(optics.Sun{Lux: 6200}, obj)
	r := Receiver{Height: 0.75, FoVHalfAngleDeg: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Render(sc, r, 0, 0.5, 2000); err != nil {
			b.Fatal(err)
		}
	}
}
