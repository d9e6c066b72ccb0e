package channel

import (
	"math"

	"passivelight/internal/optics"
	"passivelight/internal/scene"
)

// renderPlan is the specialized fast path of Render. The generic loop
// evaluates, per output sample, the source illuminance and a
// polymorphic reflectance lookup at every footprint point — for a
// 129-point kernel that is ~130 interface calls and (for a point
// lamp) 129 math.Pow evaluations per sample, which dominates every
// simulation benchmark. The plan removes all of it for the common
// scene shapes while producing bit-identical output:
//
//   - a time-invariant source (PointLamp, Sun without drift) has its
//     footprint illuminance evaluated once per render and folded into
//     the kernel weights;
//   - a position-invariant source (CeilingLight, Sun) is evaluated
//     once per time step instead of once per footprint point;
//   - piecewise-constant object profiles (tags, car bodies) are
//     flattened to edge/reflectance arrays, and each object's
//     trajectory is advanced once per time step instead of once per
//     footprint point;
//   - the footprint is walked in runs: maximal index ranges on which
//     every object's lookup (coverage, base or overlay layer,
//     segment) stays the same. A run ends where one of the per-point
//     predicates flips; they are all comparisons of the local
//     coordinate u = lead - xs[k], which only descends as k ascends.
//     The footprint points lie on a near-uniform grid, so
//     footprint.below guesses the index from the coordinate and steps
//     to the exact one with the per-point comparison: O(1) per run
//     end. The scene reflectance is blended once per run;
//   - for a steady source the kernel sums run in lanes: the time
//     steps advance in order, each active one records its runs, and
//     sumLanes adds four steps' sums in one walk of the footprint,
//     each weight loaded once and feeding four independent
//     accumulators, instead of one dependent add per point per step;
//   - a step whose start and runs repeat the last lane's (the footprint
//     inside one body panel) takes no lane but that lane's output, as
//     a lane's sum is a function of its start and runs alone.
//
// Every kernel term is added in kernel order with the generic path's
// float operations, so the two paths produce identical bits;
// equivalence is locked down by TestRenderPlanMatchesGeneric,
// TestRenderPlanRandomScenes and FuzzRenderPlan.
type renderPlan struct {
	rx Receiver
	// footprint holds the sample positions xs (r.X + offset).
	footprint
	weights []float64
	ground  float64
	objs    []planObject

	src optics.Source
	// srcKind selects how illuminance is evaluated.
	srcKind srcKind
	// wE[k] = weights[k] * E(xs[k]) for a steady source.
	wE []float64
	// strayE = StrayCoupling * E(r.X) for a steady source.
	strayE float64
	// quietOut is the output value of a time step no object touches,
	// for a steady source: sum_k wE[k]*ground folded with the stray
	// term, accumulated in kernel order so it is bit-identical to the
	// per-sample loop.
	quietOut float64
	// groundPrefix[k] is the running sum of wE[j]*ground for j < k,
	// accumulated in kernel order — exactly the value the reflected
	// accumulator holds after the ground prefix, so sumLanes can start
	// its walk from a table lookup instead of re-summing the quiet
	// prefix every time step.
	groundPrefix []float64
}

// PlanSpecialized reports whether Render will take the specialized
// fast path for this scene + receiver (no dynamic tags, every profile
// piecewise-constant), where the footprint is walked in runs of
// constant reflectance instead of point by point. Benchmarks of
// multi-object scenario scenes assert it so a fast-path regression
// fails loudly instead of silently multiplying render cost.
func PlanSpecialized(s *scene.Scene, r Receiver) bool {
	r = r.withDefaults()
	offsets, weights := r.Kernel()
	_, ok := newRenderPlan(s, r, offsets, weights)
	return ok
}

type srcKind int

const (
	srcGeneric srcKind = iota // E(x, t) per footprint point
	srcUniform                // E(t): once per time step
	srcSteady                 // E(x): folded into the kernel weights
)

type planObject struct {
	traj   scene.Trajectory
	share  float64
	edges  []float64 // len(rho)+1, edges[0] = 0
	rho    []float64
	length float64
	// Overlay layer (a roof tag over a car body): active on local
	// coordinates v = u - ovOffset in [0, ovLen). Kept separate from
	// the base layer so every boundary comparison rounds exactly like
	// the reference ReflectanceAtLocal.
	ovEdges  []float64
	ovRho    []float64
	ovOffset float64
	ovLen    float64
	// lead is the leading-edge position at the current time step;
	// kLo/kHi the footprint index range the object covers there.
	lead     float64
	kLo, kHi int
	// seg/ovSeg are segment cursors, walked from wherever the last
	// lookup left them: a run's successor starts in the adjacent
	// segment, so the walk is one step per run.
	seg, ovSeg int
	// Run state, valid on footprint indices [.., next): whether the
	// object covers them and, if so, its reflectance there.
	covered bool
	cur     float64
	next    int
}

// newRenderPlan builds the fast path for the scene, or ok=false when
// any element needs the generic evaluator (dynamic tags, custom
// profiles without the PiecewiseConstant capability).
func newRenderPlan(s *scene.Scene, r Receiver, offsets, weights []float64) (*renderPlan, bool) {
	if s.Source == nil {
		return nil, false
	}
	p := &renderPlan{
		rx:      r,
		weights: weights,
		ground:  s.Ground.Reflectance,
		src:     s.Source,
	}
	for _, o := range s.Objects {
		if o.DynamicTag != nil {
			return nil, false
		}
		pc, ok := o.Profile.(scene.PiecewiseConstant)
		if !ok {
			return nil, false
		}
		fp := pc.FlatReflectance()
		if len(fp.Rho) == 0 || len(fp.Edges) != len(fp.Rho)+1 {
			return nil, false
		}
		po := planObject{
			traj:   o.Trajectory,
			share:  o.LateralShare,
			edges:  fp.Edges,
			rho:    fp.Rho,
			length: fp.Edges[len(fp.Edges)-1],
		}
		if ov := fp.Overlay; ov != nil {
			if len(ov.Rho) == 0 || len(ov.Edges) != len(ov.Rho)+1 {
				return nil, false
			}
			po.ovEdges = ov.Edges
			po.ovRho = ov.Rho
			po.ovOffset = ov.Offset
			po.ovLen = ov.Edges[len(ov.Edges)-1]
		}
		p.objs = append(p.objs, po)
	}
	xs := make([]float64, len(offsets))
	for k, dx := range offsets {
		xs[k] = r.X + dx
	}
	p.footprint = newFootprint(xs)
	if ss, ok := s.Source.(optics.SteadySource); ok && ss.SteadyIlluminance() {
		p.srcKind = srcSteady
		p.wE = make([]float64, len(p.xs))
		for k, x := range p.xs {
			p.wE[k] = weights[k] * s.Source.IlluminanceAt(x, 0)
		}
		p.strayE = r.StrayCoupling * s.Source.IlluminanceAt(r.X, 0)
		p.groundPrefix = make([]float64, len(p.xs)+1)
		var ground float64
		for k := range p.xs {
			p.groundPrefix[k] = ground
			ground += p.wE[k] * p.ground
		}
		p.groundPrefix[len(p.xs)] = ground
		p.quietOut = r.CollectionEfficiency*ground + p.strayE
	} else if us, ok := s.Source.(optics.UniformSource); ok && us.UniformIlluminance() {
		p.srcKind = srcUniform
	}
	return p, true
}

// footprint is the kernel's quadrature grid with what below needs to
// guess an index arithmetically: xs[k] is close to x0 + k/perX, as
// the points lie on a near-uniform grid.
type footprint struct {
	xs       []float64
	x0, perX float64
}

func newFootprint(xs []float64) footprint {
	f := footprint{xs: xs, x0: xs[0]}
	if span := xs[len(xs)-1] - xs[0]; span > 0 {
		f.perX = float64(len(xs)-1) / span
	}
	return f
}

// below returns the first k in [lo, hi) whose local coordinate
// lead - xs[k] - off is below edge, or hi. The coordinate only
// descends as k ascends, so the predicate is monotone in k: below
// guesses the index from the grid, then steps to the exact answer
// with the per-point comparison itself, so any guess gives the same
// index a binary search would. On the kernel's grid the guess is off
// by at most one or two points.
func (f *footprint) below(lead float64, lo, hi int, off, edge float64) int {
	k := lo
	if g := (lead - off - edge - f.x0) * f.perX; g >= float64(hi) {
		k = hi
	} else if g >= float64(lo) {
		k = int(g) + 1
	}
	xs := f.xs
	for k > lo && lead-xs[k-1]-off < edge {
		k--
	}
	for k < hi && !(lead-xs[k]-off < edge) {
		k++
	}
	return k
}

// step sets the object's run state at footprint index k < kEnd:
// coverage (u >= 0 and u < length, i.e. k in [kLo, kHi)), then the
// overlay layer if v = u - ovOffset lies in [0, ovLen), else the base
// layer — the order and comparisons of the reference lookup — and
// next, the first index past k where any of these outcomes changes.
func (o *planObject) step(f *footprint, k, kEnd int) {
	switch {
	case k < o.kLo:
		o.covered, o.next = false, o.kLo
		return
	case k >= o.kHi:
		o.covered, o.next = false, kEnd
		return
	}
	o.covered = true
	u := o.lead - f.xs[k]
	hi := o.kHi
	if o.ovRho != nil {
		v := u - o.ovOffset
		if v >= 0 && v < o.ovLen {
			e := o.ovEdges
			for v < e[o.ovSeg] {
				o.ovSeg--
			}
			for v >= e[o.ovSeg+1] {
				o.ovSeg++
			}
			o.cur = o.ovRho[o.ovSeg]
			o.next = f.below(o.lead, k+1, hi, o.ovOffset, e[o.ovSeg])
			return
		}
		if v >= o.ovLen {
			// The overlay starts further along the footprint.
			hi = f.below(o.lead, k+1, hi, o.ovOffset, o.ovLen)
		}
	}
	e := o.edges
	for u < e[o.seg] {
		o.seg--
	}
	for u >= e[o.seg+1] {
		o.seg++
	}
	o.cur = o.rho[o.seg]
	o.next = f.below(o.lead, k+1, hi, 0, e[o.seg])
}

// advance moves every object to time t and returns the footprint span
// [kStart, kEnd) any of them covers: outside it every object fails
// its coverage predicate, so the reflectance is the bare ground's. A
// step no object touches returns the empty span (n, n).
func (p *renderPlan) advance(t float64) (kStart, kEnd int) {
	n := len(p.xs)
	kStart, kEnd = n, 0
	for j := range p.objs {
		o := &p.objs[j]
		o.lead = o.traj.PositionAt(t)
		o.kLo = p.below(o.lead, 0, n, 0, o.length)
		o.kHi = p.below(o.lead, o.kLo, n, 0, 0)
		o.next = 0
		if o.kLo < o.kHi {
			kStart, kEnd = min(kStart, o.kLo), max(kEnd, o.kHi)
		}
	}
	if kStart >= kEnd {
		return n, n
	}
	return kStart, kEnd
}

// run blends the scene reflectance of the run that starts at
// footprint index k inside the active span and returns the run's end
// with it. The blend mirrors scene.SampleAt: objects contribute in
// scene order with the same share clamp, then the ground fills the
// remaining share.
func (p *renderPlan) run(k, kEnd int) (int, float64) {
	end := kEnd
	var accShare, accRho float64
	for j := range p.objs {
		o := &p.objs[j]
		if o.next <= k {
			o.step(&p.footprint, k, kEnd)
		}
		end = min(end, o.next)
		if !o.covered {
			continue
		}
		s := o.share
		if accShare+s > 1 {
			s = 1 - accShare
		}
		if s <= 0 {
			continue
		}
		accShare += s
		accRho += s * o.cur
	}
	if accShare < 1 {
		accRho += (1 - accShare) * p.ground
	}
	return end, accRho
}

// accumulate adds the kernel terms of footprint indices [lo, hi), all
// with blended reflectance c, to reflected in kernel order. e is the
// time step's illuminance for a uniform source.
func (p *renderPlan) accumulate(reflected float64, lo, hi int, c, e, t float64) float64 {
	if p.srcKind == srcUniform {
		for _, w := range p.weights[lo:hi] {
			reflected += w * e * c
		}
		return reflected
	}
	for k := lo; k < hi; k++ {
		reflected += p.weights[k] * p.src.IlluminanceAt(p.xs[k], t) * c
	}
	return reflected
}

// render fills out[i] for t = t0 + i/fs.
func (p *renderPlan) render(t0, fs float64, out []float64) {
	if p.srcKind == srcSteady {
		p.renderSteady(t0, fs, out)
		return
	}
	r := p.rx
	n := len(p.xs)
	for i := range out {
		t := t0 + float64(i)/fs
		kStart, kEnd := p.advance(t)
		var reflected, e float64
		if p.srcKind == srcUniform {
			e = p.src.IlluminanceAt(r.X, t)
		}
		for k := 0; k < n; {
			// Outside the active span the reflectance is the bare
			// ground's: one run before it and one after.
			end, c := n, p.ground
			if k < kStart {
				end = kStart
			} else if k < kEnd {
				end, c = p.run(k, kEnd)
			}
			reflected = p.accumulate(reflected, k, end, c, e, t)
			k = end
		}
		if p.srcKind == srcUniform {
			out[i] = r.CollectionEfficiency*reflected + r.StrayCoupling*e
		} else {
			out[i] = r.CollectionEfficiency*reflected + r.StrayCoupling*p.src.IlluminanceAt(r.X, t)
		}
	}
}

// lanes is how many time steps one footprint pass of renderSteady
// sums; sumLanes spells out its four accumulators.
const lanes = 4

// planRun is one run of a time step: the footprint indices up to end
// (from the previous run's end) share the blended reflectance c.
type planRun struct {
	end int
	c   float64
}

// renderSteady is render for a steady source. It advances the time
// steps in order, as render does, but records each active step's runs
// instead of summing them at once, and sums lanes active steps in one
// footprint pass (sumLanes). A step no object touches takes quietOut.
//
// An active step whose start and runs repeat those of the last step
// that took a lane takes none: a lane's sum depends on nothing else,
// so the step takes that lane's output, at once if its batch is
// already summed, else when the batch is.
func (p *renderPlan) renderSteady(t0, fs float64, out []float64) {
	n := len(p.xs)
	r := p.rx
	var at, from [lanes]int
	var first [lanes]int // lane l's runs start at runs[first[l]]
	// pend[l] is the last step waiting on lane l, or -1. Until its lane
	// is summed a waiting step's out slot holds the index of the step
	// that waited before it, so the waiting steps need no other buffer.
	pend := [lanes]int{-1, -1, -1, -1}
	runs := make([]planRun, 0, 64)
	nl := 0
	// The last step that took a lane: its output index, start and runs.
	last, lastFrom, lastFirst := -1, n, 0
	flush := func() {
		for l := nl; l < lanes; l++ {
			from[l] = n // an idle lane starts at n and reads no runs
		}
		acc := p.sumLanes(runs, from, first)
		for l := range nl {
			v := r.CollectionEfficiency*acc[l] + p.strayE
			out[at[l]] = v
			for i := pend[l]; i >= 0; {
				i, out[i] = int(out[i]), v
			}
			pend[l] = -1
		}
		// Keep the last lane's runs: the next active step may repeat them.
		runs = append(runs[:0], runs[lastFirst:]...)
		lastFirst, nl = 0, 0
	}
	for i := range out {
		kStart, kEnd := p.advance(t0 + float64(i)/fs)
		if kStart == n {
			out[i] = p.quietOut
			continue
		}
		cur := len(runs)
		runs = p.appendRuns(runs, kStart, kEnd)
		if last >= 0 && kStart == lastFrom && sameRuns(runs[lastFirst:cur], runs[cur:]) {
			runs = runs[:cur]
			if nl == 0 {
				out[i] = out[last]
			} else {
				out[i], pend[nl-1] = float64(pend[nl-1]), i
			}
			continue
		}
		at[nl], from[nl], first[nl] = i, kStart, cur
		last, lastFrom, lastFirst = i, kStart, cur
		if nl++; nl == lanes {
			flush()
		}
	}
	if nl > 0 {
		flush()
	}
}

// appendRuns appends to runs the runs of the active step p.advance
// last moved to, whose active span is [kStart, kEnd), and returns it.
// The last run ends at n.
func (p *renderPlan) appendRuns(runs []planRun, kStart, kEnd int) []planRun {
	n := len(p.xs)
	for k := kStart; k < n; {
		// Past the active span the reflectance is the bare ground's.
		end, c := n, p.ground
		if k < kEnd {
			end, c = p.run(k, kEnd)
		}
		runs = append(runs, planRun{end, c})
		k = end
	}
	return runs
}

// sameRuns reports whether a and b hold the same run ends and the same
// reflectance bits.
func sameRuns(a, b []planRun) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j].end != b[j].end || math.Float64bits(a[j].c) != math.Float64bits(b[j].c) {
			return false
		}
	}
	return true
}

// sumLanes returns the reflected-path sums of lanes time steps: lane
// l's step covers footprint indices [from[l], n) with the runs
// runs[next[l]:], the last of which ends at n. It walks the footprint
// once from the smallest from, in segments that end wherever any
// lane's run does, and each wE[k] it loads feeds every lane's
// accumulator.
//
// Each lane adds the terms of the single-step sum in the same order:
// it starts from groundPrefix at the smallest from and adds
// wE[k]*ground up to its own from, which is exactly how groundPrefix
// was built, so it holds groundPrefix[from[l]] there; then it adds
// wE[k]*c run by run. The four sums are independent chains, so they
// overlap in the adder instead of waiting on each other.
func (p *renderPlan) sumLanes(runs []planRun, from, next [lanes]int) [lanes]float64 {
	n := len(p.xs)
	kMin := min(from[0], from[1], from[2], from[3])
	var end [lanes]int
	var c [lanes]float64
	for l := range lanes {
		// Until its own from each lane sees the bare ground.
		end[l], c[l] = from[l], p.ground
	}
	a0 := p.groundPrefix[kMin]
	a1, a2, a3 := a0, a0, a0
	for k := kMin; k < n; {
		e := min(end[0], end[1], end[2], end[3])
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		for _, w := range p.wE[k:e] {
			a0 += w * c0
			a1 += w * c1
			a2 += w * c2
			a3 += w * c3
		}
		k = e
		for l := range lanes {
			if end[l] == e && e < n {
				end[l], c[l] = runs[next[l]].end, runs[next[l]].c
				next[l]++
			}
		}
	}
	return [lanes]float64{a0, a1, a2, a3}
}
