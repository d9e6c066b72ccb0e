package channel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"passivelight/internal/coding"
	"passivelight/internal/material"
	"passivelight/internal/optics"
	"passivelight/internal/scene"
	"passivelight/internal/tag"
)

// planScenes builds one scene per specialization the renderPlan
// handles: steady point lamp + tag, rippling ceiling light (uniform
// source), sun + tagged car, and a two-object collision scene.
func planScenes(t *testing.T) map[string]*scene.Scene {
	t.Helper()
	mustTag := func(payload string, w float64) *tag.Tag {
		pkt, err := coding.NewPacket(payload)
		if err != nil {
			t.Fatal(err)
		}
		return tag.MustNew(pkt, tag.Config{SymbolWidth: w})
	}
	tagObj := func(tg *tag.Tag, start, speed, share float64) *scene.Object {
		obj, err := scene.NewTagObject("tag", tg, scene.ConstantSpeed{Start: start, Speed: speed}, share)
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	out := map[string]*scene.Scene{}

	lamp := optics.LampForLux(0, 0.2, 900, 30)
	out["lamp+tag"] = scene.New(lamp, tagObj(mustTag("10", 0.03), -0.2, 0.08, 1.0))

	ceiling := optics.CeilingLight{Lux: 300, RippleDepth: 0.12, MainsHz: 50, Harmonics: []float64{0.25}}
	out["ceiling+tag"] = scene.New(ceiling, tagObj(mustTag("00", 0.03), -0.2, 0.08, 1.0))

	car, err := scene.NewTaggedCarObject(scene.VolvoV40(), mustTag("10", 0.10), scene.ConstantSpeed{Start: -3, Speed: 5})
	if err != nil {
		t.Fatal(err)
	}
	out["sun+car"] = scene.New(optics.Sun{Lux: 6200}, car)

	out["sun+drift+collision"] = scene.New(
		optics.Sun{Lux: 450, SlowDriftAmp: 0.05, DriftPeriod: 20},
		tagObj(mustTag("10", 0.04), -0.3, 0.08, 0.8),
		tagObj(mustTag("01", 0.02), -0.5, 0.12, 0.2),
	)
	return out
}

// outdoorReceiver and outdoorFs are the paper's Sec. 5 pole: the
// RX-LED 75 cm above the roof plane, sampled at 2000 S/s.
var outdoorReceiver = Receiver{Height: 0.75, FoVHalfAngleDeg: 4}

const outdoorFs = 2000.0

// outdoorScene is the paper's 18 km/h pass: a Volvo V40 with a 10 cm
// roof tag under 6200 lux of sun, its front starting 1 m before the
// footprint edge.
func outdoorScene(tb testing.TB, payload string) (*scene.Scene, float64) {
	tb.Helper()
	pkt, err := coding.NewPacket(payload)
	if err != nil {
		tb.Fatal(err)
	}
	model := scene.VolvoV40()
	const speed = 5.0
	start := -(1 + outdoorReceiver.FootprintRadius())
	car, err := scene.NewTaggedCarObject(model, tag.MustNew(pkt, tag.Config{SymbolWidth: 0.10}), scene.ConstantSpeed{Start: start, Speed: speed})
	if err != nil {
		tb.Fatal(err)
	}
	dur := (model.Length() - start + outdoorReceiver.FootprintRadius() + 0.5) / speed
	return scene.New(optics.Sun{Lux: 6200}, car), dur
}

// assertPlanMatchesGeneric renders n samples of s through the plan
// and the generic evaluator and fails on the first differing bit. It
// returns the plan's source kind.
func assertPlanMatchesGeneric(t *testing.T, name string, s *scene.Scene, r Receiver, t0, fs float64, n int) srcKind {
	t.Helper()
	r = r.withDefaults()
	offsets, weights := r.Kernel()
	plan, ok := newRenderPlan(s, r, offsets, weights)
	if !ok {
		t.Fatalf("%s: scene did not take the fast path", name)
	}
	fast := make([]float64, n)
	plan.render(t0, fs, fast)
	slow := make([]float64, n)
	renderGeneric(s, r, offsets, weights, t0, fs, slow)
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("%s: sample %d differs: fast=%v generic=%v", name, i, fast[i], slow[i])
		}
	}
	return plan.srcKind
}

// TestRenderPlanMatchesGeneric locks the fast path to the generic
// evaluator bit for bit across every specialization and on the
// paper's outdoor pass.
func TestRenderPlanMatchesGeneric(t *testing.T) {
	r := Receiver{Height: 0.2, FoVHalfAngleDeg: 5}
	for name, s := range planScenes(t) {
		assertPlanMatchesGeneric(t, name, s, r, 0, 500, 2000)
	}
	s, dur := outdoorScene(t, "1001")
	assertPlanMatchesGeneric(t, "outdoor", s, outdoorReceiver, 0, outdoorFs, int(dur*outdoorFs))
}

// planDraws draws the random scene parameters. On a grid draw every
// position, length, speed, time and share is a round decimal, so
// footprint positions, segment edges and share sums tie exactly and
// each boundary comparison meets its equality case; off the grid they
// never do.
type planDraws struct {
	*rand.Rand
	grid bool
}

// in draws from [lo, hi), rounded to multiples of 1/per on a grid.
func (d planDraws) in(lo, hi, per float64) float64 {
	x := lo + d.Float64()*(hi-lo)
	if d.grid {
		x = math.Round(x*per) / per
	}
	return x
}

// tiedAt returns the value p with p - x == u exactly in float64 (x + u
// itself may round off by an ulp), or false if a few ulps do not reach
// one.
func tiedAt(x, u float64) (float64, bool) {
	p := x + u
	for range 4 {
		switch d := p - x; {
		case d == u:
			return p, true
		case d < u:
			p = math.Nextafter(p, math.Inf(1))
		default:
			p = math.Nextafter(p, math.Inf(-1))
		}
	}
	return 0, false
}

// parkOnBoundary parks obj so that one of its profile boundaries —
// a base edge, or an overlay edge including the overlay's start and
// end — falls exactly on footprint point x: the tie every boundary
// comparison must break like the reference lookup.
func parkOnBoundary(d planDraws, obj *scene.Object, x float64) {
	fp := obj.Profile.(scene.PiecewiseConstant).FlatReflectance()
	u := fp.Edges[d.Intn(len(fp.Edges))]
	if ov := fp.Overlay; ov != nil && d.Intn(2) == 0 {
		var ok bool
		if u, ok = tiedAt(ov.Offset, ov.Edges[d.Intn(len(ov.Edges))]); !ok {
			return
		}
	}
	if lead, ok := tiedAt(x, u); ok {
		obj.Trajectory = scene.ConstantSpeed{Start: lead}
	}
}

// randomPlanScene draws a piecewise-constant scene: 1–4 objects (tags
// with random payloads, widths and materials, bare and roof-tagged
// cars), lateral shares drawn independently so their total often
// exceeds 1 and SampleAt's clamp fires, constant or stop-and-go
// motion or parked on a boundary tie, and one of the three source
// kinds. It returns the scene and
// a time span covering every object's crossing of the footprint.
func randomPlanScene(t *testing.T, d planDraws, r Receiver) (*scene.Scene, float64) {
	t.Helper()
	mats := []material.Material{material.AluminumTape, material.BlackNapkin, material.CarPaintMetal, material.WindshieldGlass, material.Tarmac}
	randTag := func(maxLen float64) *tag.Tag {
		bits := make([]byte, 1+d.Intn(6))
		for i := range bits {
			bits[i] = byte('0' + d.Intn(2))
		}
		pkt, err := coding.NewPacket(string(bits))
		if err != nil {
			t.Fatal(err)
		}
		symbols := float64(coding.PreambleLen + 2*len(bits))
		w := min(d.in(0.005, 0.125, 1000), math.Floor(0.99*maxLen/symbols*1000)/1000)
		hi, lo := mats[d.Intn(len(mats))], mats[d.Intn(len(mats))]
		return tag.MustNew(pkt, tag.Config{SymbolWidth: w, HighMat: &hi, LowMat: &lo})
	}
	rad := r.FootprintRadius()
	offsets, _ := r.withDefaults().Kernel()
	n := 1 + d.Intn(4)
	objs := make([]*scene.Object, n)
	span := 0.0
	for j := range objs {
		speed := d.in(0.05, 6, 100)
		start := r.X - d.in(rad, rad+0.4, 100)
		var traj scene.Trajectory = scene.ConstantSpeed{Start: start, Speed: speed}
		dwell := 0.0
		if d.Intn(2) == 0 {
			dwell = d.in(0.01, 0.2, 100)
			at := max(d.in(0.05/speed, 0.55/speed, 100), 0.01)
			sg, err := scene.StopAndGo(start, speed, []scene.Stop{{At: at, Dwell: dwell}})
			if err != nil {
				t.Fatal(err)
			}
			traj = sg
		}
		var obj *scene.Object
		var err error
		model := []scene.CarModel{scene.VolvoV40(), scene.BMW3()}[d.Intn(2)]
		switch d.Intn(3) {
		case 0:
			obj, err = scene.NewTagObject("tag", randTag(1.5), traj, 1)
		case 1:
			obj, err = scene.NewCarObject(model, traj)
		default:
			obj, err = scene.NewTaggedCarObject(model, randTag(model.Segments[model.RoofIndex].Length), traj)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Shares in (0, 1], a quarter of them exactly 1.
		obj.LateralShare = 1
		if d.Intn(4) != 0 {
			obj.LateralShare = d.in(0.05, 1, 10)
		}
		objs[j] = obj
		span = max(span, (obj.Profile.Length()+2*rad+(r.X-rad-start))/speed+dwell)
		if d.Intn(4) == 0 {
			parkOnBoundary(d, obj, r.X+offsets[d.Intn(len(offsets))])
		}
	}
	var src optics.Source
	switch d.Intn(3) {
	case 0: // steady
		src = optics.LampForLux(r.X+d.Float64()*0.4-0.2, 0.3+d.Float64(), 200+d.Float64()*800, 1+d.Float64()*30)
	case 1: // uniform: a rippling ceiling or a drifting sun
		if d.Intn(2) == 0 {
			src = optics.CeilingLight{Lux: 300, RippleDepth: 0.05 + d.Float64()*0.2, MainsHz: 50, Harmonics: []float64{0.25}}
		} else {
			src = optics.Sun{Lux: 450 + d.Float64()*6000, SlowDriftAmp: 0.05, DriftPeriod: 1 + d.Float64()*20}
		}
	default: // generic: position- and time-varying
		src = optics.Composite{Sources: []optics.Source{
			optics.LampForLux(r.X, 0.5, 500, 10),
			optics.CeilingLight{Lux: 100, RippleDepth: 0.1, MainsHz: 60},
		}}
	}
	return scene.New(src, objs...), span
}

// TestRenderPlanRandomScenes is the property form of
// TestRenderPlanMatchesGeneric: seeded random piecewise-constant
// scenes, on and off a decimal grid, kernels of 3 to 257 points (even
// counts included) and the paper's outdoor geometry, each rendered
// bit-identically by both paths for every source kind.
func TestRenderPlanRandomScenes(t *testing.T) {
	cases := 160
	if testing.Short() {
		cases = 40
	}
	rng := rand.New(rand.NewSource(20160406))
	kinds := map[srcKind]int{}
	for c := 0; c < cases; c++ {
		d := planDraws{Rand: rng, grid: c%2 == 0}
		r := Receiver{
			X:               d.in(-0.5, 0.5, 100),
			Height:          d.in(0.05, 1.25, 100),
			FoVHalfAngleDeg: d.in(2, 40, 1),
			KernelSamples:   3 + d.Intn(255),
		}
		fs := []float64{250, 500, 1000, 2000}[d.Intn(4)]
		if c%4 < 2 {
			r, fs = outdoorReceiver, outdoorFs
		}
		s, span := randomPlanScene(t, d, r)
		n := int(span*fs) + 1
		if n > 1500 && !d.grid {
			n, fs = 1500, 1500/span
		}
		n = min(n, 1500)
		name := fmt.Sprintf("case %d (%d objects, %d-point kernel)", c, len(s.Objects), r.withDefaults().KernelSamples)
		kinds[assertPlanMatchesGeneric(t, name, s, r, 0, fs, n)]++
	}
	for _, k := range []srcKind{srcSteady, srcUniform, srcGeneric} {
		if kinds[k] == 0 {
			t.Fatalf("source kind %d never drawn: %v", k, kinds)
		}
	}
}

// TestRenderFallsBackOnDynamicTag checks the generic path still
// serves scenes the plan cannot specialize.
func TestRenderFallsBackOnDynamicTag(t *testing.T) {
	pktA, err := coding.NewPacket("10")
	if err != nil {
		t.Fatal(err)
	}
	pktB, err := coding.NewPacket("01")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p coding.Packet) *tag.Tag { return tag.MustNew(p, tag.Config{SymbolWidth: 0.03}) }
	dyn, err := tag.NewDynamic([]*tag.Tag{mk(pktA), mk(pktB)}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := scene.NewDynamicTagObject("dyn", dyn, scene.ConstantSpeed{Start: -0.2, Speed: 0.08}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	s := scene.New(optics.LampForLux(0, 0.2, 900, 30), obj)
	r := Receiver{Height: 0.2, FoVHalfAngleDeg: 5}.withDefaults()
	offsets, weights := r.Kernel()
	if _, ok := newRenderPlan(s, r, offsets, weights); ok {
		t.Fatal("dynamic tag scene must not take the fast path")
	}
	if _, err := Render(s, r, 0, 1.0, 500); err != nil {
		t.Fatal(err)
	}
}

// TestCarProfileFlatMatchesLookup sweeps the merged car+tag flat
// profile against the reference lookup.
func TestCarProfileFlatMatchesLookup(t *testing.T) {
	pkt, err := coding.NewPacket("10")
	if err != nil {
		t.Fatal(err)
	}
	roofTag := tag.MustNew(pkt, tag.Config{
		SymbolWidth: 0.10,
		HighMat:     &material.AluminumTape,
		LowMat:      &material.BlackNapkin,
	})
	for _, model := range []scene.CarModel{scene.VolvoV40(), scene.BMW3()} {
		for _, tg := range []*tag.Tag{nil, roofTag} {
			var obj *scene.Object
			var err error
			if tg == nil {
				obj, err = scene.NewCarObject(model, scene.ConstantSpeed{})
			} else {
				obj, err = scene.NewTaggedCarObject(model, tg, scene.ConstantSpeed{})
			}
			if err != nil {
				t.Fatal(err)
			}
			pc, ok := obj.Profile.(scene.PiecewiseConstant)
			if !ok {
				t.Fatal("car profile must be piecewise constant")
			}
			fp := pc.FlatReflectance()
			if len(fp.Edges) != len(fp.Rho)+1 || fp.Edges[0] != 0 {
				t.Fatalf("malformed flat profile: %d edges, %d segments", len(fp.Edges), len(fp.Rho))
			}
			if (tg != nil) != (fp.Overlay != nil) {
				t.Fatalf("overlay presence %v does not match tag presence %v", fp.Overlay != nil, tg != nil)
			}
			flatAt := func(u float64) float64 {
				if ov := fp.Overlay; ov != nil {
					if v := u - ov.Offset; v >= 0 && v < ov.Edges[len(ov.Edges)-1] {
						seg := 0
						for v >= ov.Edges[seg+1] {
							seg++
						}
						return ov.Rho[seg]
					}
				}
				seg := 0
				for u >= fp.Edges[seg+1] {
					seg++
				}
				return fp.Rho[seg]
			}
			L := obj.Profile.Length()
			for i := 0; i <= 5000; i++ {
				u := L * float64(i) / 5000 * 0.9999
				want, ok := obj.Profile.ReflectanceAtLocal(u)
				if !ok {
					t.Fatalf("lookup failed inside profile at u=%v", u)
				}
				if got := flatAt(u); got != want {
					t.Fatalf("%s tag=%v: u=%v flat=%v lookup=%v", model.Name, tg != nil, u, got, want)
				}
			}
		}
	}
}

// BenchmarkRenderOutdoorPass is the channel layer of the sim-outdoor
// budget: the paper's 18 km/h tagged-V40 pass (0.75 m, RX-LED, 2000
// S/s) rendered end to end through Render. It reports ns/sample
// alongside allocs/op.
func BenchmarkRenderOutdoorPass(b *testing.B) {
	s, dur := outdoorScene(b, "1001")
	if !PlanSpecialized(s, outdoorReceiver) {
		b.Fatal("outdoor pass fell off the render plan fast path")
	}
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Render(s, outdoorReceiver, 0, dur, outdoorFs)
		if err != nil {
			b.Fatal(err)
		}
		n = len(out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/sample")
}
