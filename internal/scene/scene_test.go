package scene

import (
	"math"
	"testing"

	"passivelight/internal/coding"
	"passivelight/internal/material"
	"passivelight/internal/optics"
	"passivelight/internal/tag"
)

func testTag(t *testing.T, payload string, width float64) *tag.Tag {
	t.Helper()
	tg, err := tag.New(coding.MustPacket(payload), tag.Config{SymbolWidth: width})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestConstantSpeedTrajectory(t *testing.T) {
	c := ConstantSpeed{Start: -1, Speed: 0.5}
	if c.PositionAt(0) != -1 {
		t.Fatal("start position")
	}
	if c.PositionAt(4) != 1 {
		t.Fatal("position after 4 s")
	}
}

func TestPiecewiseSpeedIntegration(t *testing.T) {
	p, err := NewPiecewiseSpeed(0, []SpeedSegment{
		{Until: 2, Speed: 1},
		{Until: 4, Speed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PositionAt(1); got != 1 {
		t.Fatalf("t=1: %v", got)
	}
	if got := p.PositionAt(2); got != 2 {
		t.Fatalf("t=2: %v", got)
	}
	if got := p.PositionAt(3); got != 5 {
		t.Fatalf("t=3: %v", got)
	}
	if got := p.PositionAt(4); got != 8 {
		t.Fatalf("t=4: %v", got)
	}
	// Beyond the last segment: last speed continues.
	if got := p.PositionAt(5); got != 11 {
		t.Fatalf("t=5: %v", got)
	}
}

func TestPiecewiseSpeedValidation(t *testing.T) {
	if _, err := NewPiecewiseSpeed(0, nil); err == nil {
		t.Fatal("empty segments should fail")
	}
	if _, err := NewPiecewiseSpeed(0, []SpeedSegment{
		{Until: 2, Speed: 1},
		{Until: 1, Speed: 2},
	}); err == nil {
		t.Fatal("non-increasing Until should fail")
	}
}

func TestSpeedDoublerSwitchesAtMidpoint(t *testing.T) {
	const (
		start  = -0.5
		tagLen = 0.24
		rx     = 0.0
		baseV  = 0.08
	)
	traj, err := SpeedDoubler(start, tagLen, rx, baseV)
	if err != nil {
		t.Fatal(err)
	}
	// The midpoint (leading edge - tagLen/2) reaches rx when the
	// leading edge is at rx + tagLen/2 = 0.12, i.e. after traveling
	// 0.62 m at 0.08 m/s = 7.75 s.
	tSwitch := (rx + tagLen/2 - start) / baseV
	before := traj.PositionAt(tSwitch - 0.1)
	at := traj.PositionAt(tSwitch)
	after := traj.PositionAt(tSwitch + 0.1)
	vBefore := (at - before) / 0.1
	vAfter := (after - at) / 0.1
	if math.Abs(vBefore-baseV) > 1e-9 {
		t.Fatalf("speed before switch %v", vBefore)
	}
	if math.Abs(vAfter-2*baseV) > 1e-9 {
		t.Fatalf("speed after switch %v", vAfter)
	}
	if _, err := SpeedDoubler(0.5, tagLen, 0, baseV); err == nil {
		t.Fatal("receiver behind midpoint should fail")
	}
	if _, err := SpeedDoubler(start, tagLen, rx, 0); err == nil {
		t.Fatal("zero speed should fail")
	}
}

func TestKmhToMs(t *testing.T) {
	if got := KmhToMs(18); math.Abs(got-5) > 1e-12 {
		t.Fatalf("18 km/h = %v m/s", got)
	}
}

func TestObjectReflectanceSweep(t *testing.T) {
	tg := testTag(t, "0", 0.1) // HLHL + HL: stripes of 10 cm
	obj, err := NewTagObject("o", tg, ConstantSpeed{Start: 0, Speed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// At t=0 the leading edge is at x=0: ground point x=-0.05 has
	// local coordinate u = 0 - (-0.05) = 0.05 -> first stripe (H).
	rho, ok := obj.ReflectanceAt(-0.05, 0)
	if !ok || rho < 0.5 {
		t.Fatalf("first stripe: rho=%v ok=%v", rho, ok)
	}
	// Point ahead of the object: not covered.
	if _, ok := obj.ReflectanceAt(0.05, 0); ok {
		t.Fatal("point ahead of leading edge should be uncovered")
	}
	// After 0.35 s the leading edge is at 0.35; x=0.1 has u=0.25 ->
	// third stripe (H).
	rho, ok = obj.ReflectanceAt(0.1, 0.35)
	if !ok || rho < 0.5 {
		t.Fatalf("third stripe: rho=%v ok=%v", rho, ok)
	}
}

func TestNewTagObjectValidation(t *testing.T) {
	tg := testTag(t, "0", 0.1)
	if _, err := NewTagObject("o", nil, ConstantSpeed{}, 1); err == nil {
		t.Fatal("nil tag should fail")
	}
	if _, err := NewTagObject("o", tg, ConstantSpeed{}, 0); err == nil {
		t.Fatal("zero share should fail")
	}
	if _, err := NewTagObject("o", tg, ConstantSpeed{}, 1.5); err == nil {
		t.Fatal("share > 1 should fail")
	}
}

func TestSceneBlendsShares(t *testing.T) {
	// Two half-share objects: a HIGH-stripe over the full tag length
	// each. Build single-stripe tags via NewFromSymbols.
	hiTag, err := tag.NewFromSymbols([]coding.Symbol{coding.High}, tag.Config{SymbolWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	loTag, err := tag.NewFromSymbols([]coding.Symbol{coding.Low}, tag.Config{SymbolWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewTagObject("hi", hiTag, ConstantSpeed{Start: 1, Speed: 0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTagObject("lo", loTag, ConstantSpeed{Start: 1, Speed: 0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sc := New(optics.Sun{Lux: 100}, a, b)
	s := sc.SampleAt(0.5, 0)
	want := 0.5*material.AluminumTape.Reflectance + 0.5*material.BlackNapkin.Reflectance
	if math.Abs(s.Reflectance-want) > 1e-9 {
		t.Fatalf("blended reflectance %v, want %v", s.Reflectance, want)
	}
	if s.CoveredBy != 2 {
		t.Fatalf("covered by %d", s.CoveredBy)
	}
	// Uncovered point shows the ground.
	g := sc.SampleAt(10, 0)
	if g.Reflectance != material.Tarmac.Reflectance || g.CoveredBy != 0 {
		t.Fatalf("ground sample %+v", g)
	}
}

func TestSceneShareClamping(t *testing.T) {
	hiTag, err := tag.NewFromSymbols([]coding.Symbol{coding.High}, tag.Config{SymbolWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Three 0.5-share objects: total clamps at 1, no ground contribution.
	var objs []*Object
	for i := 0; i < 3; i++ {
		o, err := NewTagObject("o", hiTag, ConstantSpeed{Start: 1, Speed: 0}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	sc := New(optics.Sun{Lux: 100}, objs...)
	s := sc.SampleAt(0.5, 0)
	if math.Abs(s.Reflectance-material.AluminumTape.Reflectance) > 1e-9 {
		t.Fatalf("clamped reflectance %v", s.Reflectance)
	}
}

func TestSceneIlluminance(t *testing.T) {
	sc := New(optics.Sun{Lux: 321})
	if got := sc.IlluminanceAt(0, 0); got != 321 {
		t.Fatalf("illuminance %v", got)
	}
	empty := &Scene{}
	if got := empty.IlluminanceAt(0, 0); got != 0 {
		t.Fatalf("no-source illuminance %v", got)
	}
}

func TestWithGround(t *testing.T) {
	sc := New(optics.Sun{Lux: 100})
	sc.Ground = material.WhitePaper
	s := sc.SampleAt(0, 0)
	if s.Reflectance != material.WhitePaper.Reflectance {
		t.Fatalf("ground reflectance %v", s.Reflectance)
	}
}
