package channel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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
		return mustTagOf(t, pkt, tag.Config{SymbolWidth: w})
	}
	tagObj := func(tg *tag.Tag, start, speed, share float64) *scene.Object {
		obj, err := scene.NewTagObject("tag", tg, scene.ConstantSpeed{Start: start, Speed: speed}, share)
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	out := map[string]*scene.Scene{}

	lamp := lampForLux(0, 0.2, 900, 30)
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
	car, err := scene.NewTaggedCarObject(model, mustTagOf(tb, pkt, tag.Config{SymbolWidth: 0.10}), scene.ConstantSpeed{Start: start, Speed: speed})
	if err != nil {
		tb.Fatal(err)
	}
	dur := (model.Length() - start + outdoorReceiver.FootprintRadius() + 0.5) / speed
	return scene.New(optics.Sun{Lux: 6200}, car), dur
}

// assertPlanMatchesGeneric renders n samples of s through the plan
// and the generic evaluator and fails on the first differing bit. It
// returns the plan.
func assertPlanMatchesGeneric(t *testing.T, name string, s *scene.Scene, r Receiver, t0, fs float64, n int) *renderPlan {
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
	return plan
}

// laneCover records the shapes of the lane batches a steady-source
// render formed: the sizes of final batches, whether a quiet step fell
// between two lanes of one batch, and whether one batch's lanes started
// at different footprint indices. It also records the steps that took
// no lane because they repeat the last lane's start and runs: whether
// that lane's batch was still pending or already summed, and whether a
// quiet step came between the repeat and the active step before it;
// and whether a render of many active steps took a single lane, as a
// stationary object's does.
type laneCover struct {
	final                   [lanes + 1]bool
	quietInside, mixedStart bool
	repeats                 map[repeatKind]bool
	oneState                bool
}

// repeatKind is a step that repeats a lane: whether that lane's batch
// was already summed, and whether a quiet step came before the repeat.
type repeatKind struct{ summed, afterQuiet bool }

// add replays the n time steps of a render by p through advance and
// appendRuns and notes the batches renderSteady formed from them.
func (c *laneCover) add(p *renderPlan, t0, fs float64, n int) {
	if p.srcKind != srcSteady {
		return
	}
	var runs, last []planRun
	var from []int // the starts of the pending batch's lanes
	lastFrom, prev := -1, -1
	quiet := false // a quiet step since the last lane
	taken, active := 0, 0
	for i := range n {
		kStart, kEnd := p.advance(t0 + float64(i)/fs)
		if kStart == len(p.xs) {
			quiet = true
			continue
		}
		runs = p.appendRuns(runs[:0], kStart, kEnd)
		afterQuiet := prev >= 0 && i > prev+1
		prev, active = i, active+1
		if kStart == lastFrom && sameRuns(last, runs) {
			if c.repeats == nil {
				c.repeats = map[repeatKind]bool{}
			}
			c.repeats[repeatKind{summed: len(from) == 0, afterQuiet: afterQuiet}] = true
			continue
		}
		if len(from) > 0 {
			c.quietInside = c.quietInside || quiet
			c.mixedStart = c.mixedStart || kStart != from[0]
		}
		last, lastFrom, quiet = append(last[:0], runs...), kStart, false
		from, taken = append(from, kStart), taken+1
		if len(from) == lanes {
			from = from[:0]
		}
	}
	if taken > 0 {
		c.final[(taken-1)%lanes+1] = true
	}
	c.oneState = c.oneState || taken == 1 && active > lanes
}

// check fails unless final batches of 1, 2 and 3 steps, a quiet step
// inside a batch, a batch of differing starts, every kind of repeat
// and a single-lane render were all seen.
func (c *laneCover) check(t *testing.T) {
	t.Helper()
	for size := 1; size < lanes; size++ {
		if !c.final[size] {
			t.Errorf("no render ended on a batch of %d active steps", size)
		}
	}
	if !c.quietInside {
		t.Error("no quiet step fell inside a lane batch")
	}
	if !c.mixedStart {
		t.Error("no lane batch had lanes starting at different footprint indices")
	}
	for _, k := range []repeatKind{{false, false}, {true, false}, {false, true}, {true, true}} {
		if !c.repeats[k] {
			t.Errorf("no step repeated a lane with %+v", k)
		}
	}
	if !c.oneState {
		t.Error("no render of many active steps took a single lane")
	}
}

// TestRenderPlanMatchesGeneric locks the fast path to the generic
// evaluator bit for bit across every specialization, on the paper's
// outdoor pass (whole, cut mid-pass so the last lane batch holds 1 to
// 4 steps, and through a footprint narrower than one step, so two
// steps can differ in reflectance alone), on two tags with a quiet gap
// between them, on a
// parked tag and one that dips in and out of the footprint's edge (so
// steps repeat a lane's state, pending or summed, right after it or
// after a quiet gap), and on a roof-tagged car that backs up halfway
// through the footprint, so the footprint search and the segment
// cursors move both ways.
func TestRenderPlanMatchesGeneric(t *testing.T) {
	var cover laneCover
	r := Receiver{Height: 0.2, FoVHalfAngleDeg: 5}
	for name, s := range planScenes(t) {
		cover.add(assertPlanMatchesGeneric(t, name, s, r, 0, 500, 2000), 0, 500, 2000)
	}
	s, dur := outdoorScene(t, "1001")
	cover.add(assertPlanMatchesGeneric(t, "outdoor", s, outdoorReceiver, 0, outdoorFs, int(dur*outdoorFs)), 0, outdoorFs, int(dur*outdoorFs))
	for cut := range lanes {
		m := int(dur*outdoorFs)/2 + cut
		cover.add(assertPlanMatchesGeneric(t, fmt.Sprintf("outdoor cut at %d", m), s, outdoorReceiver, 0, outdoorFs, m), 0, outdoorFs, m)
	}
	// The same pass seen through a 0.35 mm footprint at 200 S/s: a step
	// moves the car 2.5 cm, so two steps in a row can each sit inside
	// one body panel, with the same run ends and different reflectances.
	narrow := Receiver{Height: 0.2, FoVHalfAngleDeg: 0.05}
	cover.add(assertPlanMatchesGeneric(t, "outdoor, narrow footprint", s, narrow, 0, 200, int(dur*200)), 0, 200, int(dur*200))

	// Two tags 5 cm apart under a lamp: the footprint (3.5 cm wide)
	// sees bare ground between them.
	pkt, err := coding.NewPacket("10")
	if err != nil {
		t.Fatal(err)
	}
	tg := mustTagOf(t, pkt, tag.Config{SymbolWidth: 0.01})
	var gapped []*scene.Object
	for j, start := range []float64{-0.1, -0.1 - 0.05 - tg.Length()} {
		obj, err := scene.NewTagObject(fmt.Sprint("tag", j), tg, scene.ConstantSpeed{Start: start, Speed: 0.1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		gapped = append(gapped, obj)
	}
	cover.add(assertPlanMatchesGeneric(t, "gapped tags", scene.New(lampForLux(0, 0.2, 900, 30), gapped...), r, 0, 997, 3000), 0, 997, 3000)

	// A tag parked across half the footprint: every active step has
	// one state, so the render takes a single lane.
	parked, err := scene.NewTagObject("parked", tg, scene.ConstantSpeed{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cover.add(assertPlanMatchesGeneric(t, "parked tag", scene.New(lampForLux(0, 0.2, 900, 30), parked), r, 0, 500, 600), 0, 500, 600)

	// A tag that dips into the footprint's edge to eight depths, backing
	// out past it each time: its first step back in repeats its last
	// step before the quiet gap. It backs out faster than it went in,
	// so the steps out skip states and the lane that step repeats is
	// pending after some dips and summed after others.
	const dipSpeed = 0.02
	rad := r.FootprintRadius()
	var dips []scene.SpeedSegment
	until := 0.0
	for _, depth := range []float64{0.6e-3, 1.1e-3, 1.9e-3, 2.4e-3, 3.3e-3, 0.9e-3, 1.4e-3, 2.8e-3} {
		in := (0.5e-3 + depth) / dipSpeed
		dips = append(dips, scene.SpeedSegment{Until: until + in, Speed: dipSpeed}, scene.SpeedSegment{Until: until + 1.1*in, Speed: -10 * dipSpeed})
		until += 1.1 * in
	}
	dips = append(dips, scene.SpeedSegment{Until: math.Inf(1)})
	dipTraj, err := scene.NewPiecewiseSpeed(-rad-0.5e-3, dips)
	if err != nil {
		t.Fatal(err)
	}
	dipping, err := scene.NewTagObject("dipping", tg, dipTraj, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := int(until*500) + 10
	cover.add(assertPlanMatchesGeneric(t, "dipping tag", scene.New(lampForLux(0, 0.2, 900, 30), dipping), r, 0, 500, m), 0, 500, m)
	cover.check(t)

	// Forward 3 m (the hood and windshield cross the footprint), back
	// 1.6 m, then forward until the tail has cleared.
	start := -(1 + outdoorReceiver.FootprintRadius())
	traj, err := scene.NewPiecewiseSpeed(start, []scene.SpeedSegment{
		{Until: 0.6, Speed: 5}, {Until: 1.0, Speed: -4}, {Until: math.Inf(1), Speed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err = coding.NewPacket("1001")
	if err != nil {
		t.Fatal(err)
	}
	model := scene.VolvoV40()
	car, err := scene.NewTaggedCarObject(model, mustTagOf(t, pkt, tag.Config{SymbolWidth: 0.10}), traj)
	if err != nil {
		t.Fatal(err)
	}
	dur = 1 + (model.Length()+1.6-3-start+outdoorReceiver.FootprintRadius()+0.5)/5
	if p := assertPlanMatchesGeneric(t, "outdoor reversing", scene.New(optics.Sun{Lux: 6200}, car), outdoorReceiver, 0, outdoorFs, int(dur*outdoorFs)); p.srcKind != srcSteady || p.objs[0].ovRho == nil {
		t.Fatal("the reversing car must take the lanes with its roof-tag overlay")
	}
}

// searchBelow is the reference model of footprint.below: a binary
// search for the first k in [lo, hi) whose local coordinate
// lead - xs[k] - off is below edge, or hi.
func searchBelow(xs []float64, lead float64, lo, hi int, off, edge float64) int {
	return lo + sort.Search(hi-lo, func(d int) bool { return lead-xs[lo+d]-off < edge })
}

// TestBelowMatchesSearch checks the grid-guessing footprint search
// against the binary search on the kernel footprints of 3, 129 and
// 1001 points at several radii (and on random monotone footprints with
// tied points, where the guess is poor), for every sub-range
// lo <= hi, with edges exactly on each point, between points and
// outside the footprint, and with ±Inf and NaN in lead and edge.
func TestBelowMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var grids [][]float64
	for _, ks := range []int{3, 129, 1001} {
		for _, r := range []Receiver{
			{Height: 0.75, FoVHalfAngleDeg: 4},
			{X: 0.37, Height: 0.2, FoVHalfAngleDeg: 5},
			{X: -12.5, Height: 1.25, FoVHalfAngleDeg: 40},
			{X: 1e3, Height: 0.05, FoVHalfAngleDeg: 0.5},
		} {
			r.KernelSamples = ks
			r = r.withDefaults()
			offsets, _ := r.Kernel()
			xs := make([]float64, len(offsets))
			for k, dx := range offsets {
				xs[k] = r.X + dx
			}
			grids = append(grids, xs)
		}
	}
	for range 20 {
		xs := make([]float64, 1+rng.Intn(40))
		x := rng.Float64()
		for k := range xs {
			if rng.Intn(4) != 0 {
				x += math.Round(rng.Float64()*8) / 64
			}
			xs[k] = x
		}
		grids = append(grids, xs)
	}
	inf := math.Inf(1)
	for g, xs := range grids {
		n := len(xs)
		f := newFootprint(xs)
		span := xs[n-1] - xs[0]
		for _, lead := range []float64{xs[0] + rng.Float64()*span, xs[n-1] + 0.3*span, inf, -inf, math.NaN()} {
			off := []float64{0, 0.25, -0.125}[rng.Intn(3)]
			edges := []float64{inf, -inf, math.NaN(), 0, lead - xs[0] - off + span, lead - xs[n-1] - off - span}
			for k := range xs {
				edges = append(edges, lead-xs[k]-off)
				if k+1 < n {
					edges = append(edges, lead-(xs[k]+xs[k+1])/2-off)
				}
			}
			check := func(lo, hi int, edge float64) {
				if got, want := f.below(lead, lo, hi, off, edge), searchBelow(xs, lead, lo, hi, off, edge); got != want {
					t.Fatalf("footprint %d (%d points), lead %v, off %v, edge %v: below(%d, %d) = %d, search = %d", g, n, lead, off, edge, lo, hi, got, want)
				}
			}
			for lo := 0; lo <= n; lo++ {
				if n > 129 && math.IsInf(lead, 0) {
					// Infinite leads on the largest footprints: the
					// whole-range checks below only.
					break
				}
				for hi := lo; hi <= n; hi++ {
					if n > 40 {
						// Each sub-range with one edge, in turn; every edge
						// on the whole footprint below.
						check(lo, hi, edges[(lo*7+hi)%len(edges)])
						continue
					}
					for _, edge := range edges {
						check(lo, hi, edge)
					}
				}
			}
			for _, edge := range edges {
				check(0, n, edge)
			}
		}
	}
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
// exceeds 1 and SampleAt's clamp fires, constant, stop-and-go,
// reversing or creeping motion, parked anywhere over the footprint or
// on a boundary tie, and one of the three source kinds. It returns the scene and a time span covering every
// object's crossing of the footprint.
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
		return mustTagOf(t, pkt, tag.Config{SymbolWidth: w, HighMat: &hi, LowMat: &lo})
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
		// A creeping or parked object's span is a stretch of its stay,
		// not its crossing.
		stay := 0.0
		parked := false
		switch d.Intn(6) {
		case 0:
			dwell = d.in(0.01, 0.2, 100)
			at := max(d.in(0.05/speed, 0.55/speed, 100), 0.01)
			sg, err := scene.StopAndGo(start, speed, []scene.Stop{{At: at, Dwell: dwell}})
			if err != nil {
				t.Fatal(err)
			}
			traj = sg
		case 1, 2:
			// Drives into the footprint, backs out past its start (the
			// footprint goes quiet if nothing else covers it), then
			// drives through: the footprint search and the segment
			// cursors move both ways, and the first step back in may
			// repeat the last one before the quiet gap. It backs out at
			// a drawn multiple of its speed, so the steps out and in
			// need not mirror each other.
			at := (r.X - rad - start + d.in(0.01, 0.3, 100)) / speed
			rev := d.in(0.5, 3, 10)
			back := (at + d.in(0.01, 0.1, 100)) / rev
			ps, err := scene.NewPiecewiseSpeed(start, []scene.SpeedSegment{
				{Until: at, Speed: speed}, {Until: at + back, Speed: -rev * speed}, {Until: math.Inf(1), Speed: speed},
			})
			if err != nil {
				t.Fatal(err)
			}
			traj, dwell = ps, (1+rev)*back
		case 3:
			// Creeps on from somewhere over the footprint: its edges
			// stay between two footprint points for many steps.
			speed = d.in(0.002, 0.05, 1000)
			traj = scene.ConstantSpeed{Start: r.X + d.in(-rad, rad, 1000), Speed: speed}
			stay = d.in(0.1, 0.75, 100)
		case 4:
			// Parked over the footprint, once its length is known.
			parked, stay = true, d.in(0.1, 0.75, 100)
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
		if parked {
			obj.Trajectory = scene.ConstantSpeed{Start: r.X - rad + d.in(0, 1, 100)*(2*rad+obj.Profile.Length())}
		}
		if stay > 0 {
			span = max(span, stay)
		} else {
			span = max(span, (obj.Profile.Length()+2*rad+(r.X-rad-start))/speed+dwell)
		}
		if d.Intn(4) == 0 {
			parkOnBoundary(d, obj, r.X+offsets[d.Intn(len(offsets))])
		}
	}
	var src optics.Source
	switch d.Intn(3) {
	case 0: // steady
		src = lampForLux(r.X+d.Float64()*0.4-0.2, 0.3+d.Float64(), 200+d.Float64()*800, 1+d.Float64()*30)
	case 1: // uniform: a rippling ceiling or a drifting sun
		if d.Intn(2) == 0 {
			src = optics.CeilingLight{Lux: 300, RippleDepth: 0.05 + d.Float64()*0.2, MainsHz: 50, Harmonics: []float64{0.25}}
		} else {
			src = optics.Sun{Lux: 450 + d.Float64()*6000, SlowDriftAmp: 0.05, DriftPeriod: 1 + d.Float64()*20}
		}
	default: // generic: position- and time-varying
		src = optics.Composite{Sources: []optics.Source{
			lampForLux(r.X, 0.5, 500, 10),
			optics.CeilingLight{Lux: 100, RippleDepth: 0.1, MainsHz: 60},
		}}
	}
	return scene.New(src, objs...), span
}

// TestRenderPlanRandomScenes is the property form of
// TestRenderPlanMatchesGeneric: seeded random piecewise-constant
// scenes, on and off a decimal grid, kernels of 3 to 257 points (even
// counts included) and the paper's outdoor geometry, each rendered
// bit-identically by both paths for every source kind. The steady-
// source scenes must include a roof-tag overlay and a reversing object
// and, on the full run, form every lane-batch shape and repeat
// laneCover names.
func TestRenderPlanRandomScenes(t *testing.T) {
	cases := 160
	if testing.Short() {
		cases = 40
	}
	rng := rand.New(rand.NewSource(20160406))
	kinds := map[srcKind]int{}
	var cover laneCover
	var overlay, reversing bool
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
		p := assertPlanMatchesGeneric(t, name, s, r, 0, fs, n)
		kinds[p.srcKind]++
		cover.add(p, 0, fs, n)
		for j, o := range s.Objects {
			if p.srcKind != srcSteady {
				break
			}
			overlay = overlay || p.objs[j].ovRho != nil
			if ps, ok := o.Trajectory.(scene.PiecewiseSpeed); ok {
				reversing = reversing || slices.ContainsFunc(ps.Segments, func(g scene.SpeedSegment) bool { return g.Speed < 0 })
			}
		}
	}
	if !overlay || !reversing {
		t.Fatalf("steady-source scenes drew an overlay %v, a reversing object %v; want both", overlay, reversing)
	}
	if !testing.Short() {
		// The short run's dozen steady scenes may miss a batch shape;
		// TestRenderPlanMatchesGeneric builds each one on purpose.
		cover.check(t)
	}
	for _, k := range []srcKind{srcSteady, srcUniform, srcGeneric} {
		if kinds[k] == 0 {
			t.Fatalf("source kind %d never drawn: %v", k, kinds)
		}
	}
}

// flatProfile is a reflectance profile given by its flat form; its
// lookup is the one FlatReflectance describes: the overlay first, then
// the base segment holding u.
type flatProfile struct{ fp scene.FlatProfile }

func (p flatProfile) FlatReflectance() scene.FlatProfile { return p.fp }

func (p flatProfile) Length() float64 { return p.fp.Edges[len(p.fp.Edges)-1] }

func (p flatProfile) ReflectanceAtLocal(u float64) (float64, bool) {
	if u < 0 || u >= p.Length() {
		return 0, false
	}
	seg := func(edges []float64, u float64) int {
		i := 0
		for u >= edges[i+1] {
			i++
		}
		return i
	}
	if ov := p.fp.Overlay; ov != nil {
		if v := u - ov.Offset; v >= 0 && v < ov.Edges[len(ov.Edges)-1] {
			return ov.Rho[seg(ov.Edges, v)], true
		}
	}
	return p.fp.Rho[seg(p.fp.Edges, u)], true
}

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// flat draws 1–8 segments of 0–25 cm (zero widths included, so edges
// tie) with reflectances in [0, 1].
func (b *fuzzBytes) flat() (edges, rho []float64) {
	edges = []float64{0}
	for range 1 + b.next()%8 {
		edges = append(edges, edges[len(edges)-1]+float64(b.next())/1024)
		rho = append(rho, float64(b.next())/255)
	}
	return edges, rho
}

// FuzzRenderPlan builds a piecewise-constant scene from the input —
// 1–3 objects with their segment edges, reflectances, an optional
// overlay, lateral shares, speed and direction (forward, backward,
// backing up mid-pass, or parked), a steady or uniform source, the
// sample rate and the kernel size — and requires the plan's render to
// be bit-equal to renderGeneric's. The last two seeds hold a parked
// and a slow object under a lamp, whose steps repeat lane states.
func FuzzRenderPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{96, 4, 3, 2, 1, 3, 40, 200, 25, 30, 60, 10, 1, 128, 1, 26, 250, 9, 0, 50, 0})
	f.Add([]byte{200, 30, 126, 3, 2, 5, 100, 12, 0, 90, 100, 200, 0, 0, 7, 64, 2, 30, 1, 1, 80, 7, 40, 3, 25, 255, 3, 2})
	f.Add([]byte{20, 12, 0, 1, 2, 7, 60, 60, 60, 60, 0, 255, 60, 0, 128, 9, 2, 5, 1, 3, 120, 44, 44, 0, 3, 9, 2, 100})
	f.Add([]byte{128, 30, 5, 61, 1, 0, 2, 20, 200, 40, 30, 20, 255, 0, 10, 50, 3, 100, 9, 1, 128, 64, 10})
	f.Add([]byte{128, 30, 5, 13, 1, 0, 2, 20, 200, 40, 30, 20, 255, 0, 0, 0, 0, 9, 1, 128, 64, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		r := Receiver{
			X:               float64(b.next()-128) / 256,
			Height:          0.05 + float64(b.next())/200,
			FoVHalfAngleDeg: 1 + float64(b.next()%40),
			KernelSamples:   3 + b.next(),
		}
		fs := []float64{250, 500, 1000, 2000}[b.next()%4]
		rad := r.FootprintRadius()
		var objs []*scene.Object
		span := 0.0
		for j := range 1 + b.next()%3 {
			var fp scene.FlatProfile
			fp.Edges, fp.Rho = b.flat()
			length := fp.Edges[len(fp.Edges)-1]
			if b.next()%2 == 1 {
				ov := &scene.FlatOverlay{Offset: float64(b.next()) / 256 * length}
				ov.Edges, ov.Rho = b.flat()
				fp.Overlay = ov
			}
			speed := float64(1+b.next()) / 64
			lead := r.X - rad - float64(b.next())/512
			dist := length + 2*rad + (r.X - rad - lead)
			var traj scene.Trajectory = scene.ConstantSpeed{Start: lead, Speed: speed}
			switch b.next() % 4 {
			case 1: // backward, from past the far side
				traj = scene.ConstantSpeed{Start: lead + dist + length, Speed: -speed}
			case 2: // in, back out past the start, then through
				at := (r.X - rad - lead + float64(b.next())/1024) / speed
				ps, err := scene.NewPiecewiseSpeed(lead, []scene.SpeedSegment{
					{Until: at, Speed: speed}, {Until: 2*at + 0.01, Speed: -speed}, {Until: math.Inf(1), Speed: speed},
				})
				if err != nil {
					t.Fatal(err)
				}
				traj, dist = ps, dist+2*speed*(at+0.01)
			case 3: // parked anywhere over the footprint
				traj = scene.ConstantSpeed{Start: r.X - rad + float64(b.next())/255*(2*rad+length)}
			}
			objs = append(objs, &scene.Object{
				Name:         fmt.Sprint("obj", j),
				Profile:      flatProfile{fp},
				Trajectory:   traj,
				LateralShare: float64(1+b.next()%10) / 10,
			})
			span = max(span, dist/speed)
		}
		var src optics.Source
		switch b.next() % 3 {
		case 0:
			src = optics.Sun{Lux: 6200}
		case 1:
			src = lampForLux(r.X+float64(b.next()-128)/512, 0.3+float64(b.next())/128, 900, 1+float64(b.next()%30))
		default:
			src = optics.CeilingLight{Lux: 300, RippleDepth: 0.1, MainsHz: 50}
		}
		n := int(span*fs) + 1
		if n > 400 {
			n, fs = 400, 400/span
		}
		assertPlanMatchesGeneric(t, "fuzz scene", scene.New(src, objs...), r, 0, fs, n)
	})
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
	mk := func(p coding.Packet) *tag.Tag { return mustTagOf(t, p, tag.Config{SymbolWidth: 0.03}) }
	dyn, err := tag.NewDynamic([]*tag.Tag{mk(pktA), mk(pktB)}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := scene.NewDynamicTagObject("dyn", dyn, scene.ConstantSpeed{Start: -0.2, Speed: 0.08}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	s := scene.New(lampForLux(0, 0.2, 900, 30), obj)
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
	roofTag := mustTagOf(t, pkt, tag.Config{
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

// mustTagOf builds a fixed test tag, failing the test on error.
func mustTagOf(t testing.TB, p coding.Packet, cfg tag.Config) *tag.Tag {
	t.Helper()
	tg, err := tag.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// lampForLux builds a point lamp at (x, height) whose illuminance
// directly underneath equals lux.
func lampForLux(x, height, lux, lambertOrder float64) optics.PointLamp {
	return optics.PointLamp{X: x, Height: height, Intensity: lux * height * height, LambertOrder: lambertOrder}
}
