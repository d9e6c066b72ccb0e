package channel

import (
	"sort"

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
//     coordinate u = lead - xs[k], which only descends as k ascends,
//     so a binary search finds the exact index the per-point check
//     would. The scene reflectance is blended once per run, and the
//     kernel sum over the run is a branch-free multiply-add.
//
// Every kernel term is added in kernel order with the generic path's
// float operations, so the two paths produce identical bits;
// equivalence is locked down by TestRenderPlanMatchesGeneric and
// TestRenderPlanRandomScenes.
type renderPlan struct {
	rx      Receiver
	xs      []float64 // footprint sample positions (r.X + offset)
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
	// accumulator holds after the ground prefix, so render can start
	// the active span from a table lookup instead of re-summing the
	// quiet prefix every time step.
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
	p.xs = make([]float64, len(offsets))
	for k, dx := range offsets {
		p.xs[k] = r.X + dx
	}
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

// below returns the first k in [lo, hi) whose local coordinate
// lead - xs[k] - off is below edge, or hi. The coordinate only
// descends as k ascends, so the predicate is monotone in k and the
// search agrees bit for bit with the per-point comparison.
func (o *planObject) below(xs []float64, lo, hi int, off, edge float64) int {
	return lo + sort.Search(hi-lo, func(d int) bool { return o.lead-xs[lo+d]-off < edge })
}

// seek returns below(xs, lo, hi, off, edge), galloping out from hint
// (clamped into [lo, hi]) to bracket the answer before the binary
// search. The predicate is monotone in k, so any hint gives the same
// first-true index. With the last time step's index as the hint it
// takes a few comparisons: between samples an edge outside the
// footprint stays put, and one crossing it moves a few indices (3-4
// on the 18 km/h outdoor pass).
func (o *planObject) seek(xs []float64, lo, hi, hint int, off, edge float64) int {
	hint = min(max(hint, lo), hi)
	if hint > lo && o.lead-xs[hint-1]-off < edge {
		// The answer lies in [lo, hint-1]: gallop down from there.
		top, step := hint-1, 1
		for {
			k := top - step
			if k < lo {
				return o.below(xs, lo, top, off, edge)
			}
			if !(o.lead-xs[k]-off < edge) {
				return o.below(xs, k+1, top, off, edge)
			}
			top, step = k, 2*step
		}
	}
	// The answer lies in [hint, hi]: gallop up.
	bot, step := hint, 1
	for {
		k := bot + step - 1
		if k >= hi {
			return o.below(xs, bot, hi, off, edge)
		}
		if o.lead-xs[k]-off < edge {
			return o.below(xs, bot, k, off, edge)
		}
		bot, step = k+1, 2*step
	}
}

// step sets the object's run state at footprint index k < kEnd:
// coverage (u >= 0 and u < length, i.e. k in [kLo, kHi)), then the
// overlay layer if v = u - ovOffset lies in [0, ovLen), else the base
// layer — the order and comparisons of the reference lookup — and
// next, the first index past k where any of these outcomes changes.
func (o *planObject) step(xs []float64, k, kEnd int) {
	switch {
	case k < o.kLo:
		o.covered, o.next = false, o.kLo
		return
	case k >= o.kHi:
		o.covered, o.next = false, kEnd
		return
	}
	o.covered = true
	u := o.lead - xs[k]
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
			o.next = o.below(xs, k+1, hi, o.ovOffset, e[o.ovSeg])
			return
		}
		if v >= o.ovLen {
			// The overlay starts further along the footprint.
			hi = o.below(xs, k+1, hi, o.ovOffset, o.ovLen)
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
	o.next = o.below(xs, k+1, hi, 0, e[o.seg])
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
		o.kLo = o.seek(p.xs, 0, n, o.kLo, 0, o.length)
		o.kHi = o.seek(p.xs, o.kLo, n, o.kHi, 0, 0)
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
			o.step(p.xs, k, kEnd)
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
	switch p.srcKind {
	case srcSteady:
		for _, w := range p.wE[lo:hi] {
			reflected += w * c
		}
	case srcUniform:
		for _, w := range p.weights[lo:hi] {
			reflected += w * e * c
		}
	default:
		for k := lo; k < hi; k++ {
			reflected += p.weights[k] * p.src.IlluminanceAt(p.xs[k], t) * c
		}
	}
	return reflected
}

// render fills out[i] for t = t0 + i/fs.
func (p *renderPlan) render(t0, fs float64, out []float64) {
	r := p.rx
	n := len(p.xs)
	for i := range out {
		t := t0 + float64(i)/fs
		kStart, kEnd := p.advance(t)
		var reflected, e float64
		k := 0
		switch p.srcKind {
		case srcSteady:
			if kStart == n {
				out[i] = p.quietOut
				continue
			}
			// The quiet prefix collapses to its precomputed running
			// sum — the same additions in the same order, done once at
			// plan build instead of every time step.
			reflected, k = p.groundPrefix[kStart], kStart
		case srcUniform:
			e = p.src.IlluminanceAt(r.X, t)
		}
		for k < n {
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
		switch p.srcKind {
		case srcSteady:
			out[i] = r.CollectionEfficiency*reflected + p.strayE
		case srcUniform:
			out[i] = r.CollectionEfficiency*reflected + r.StrayCoupling*e
		default:
			out[i] = r.CollectionEfficiency*reflected + r.StrayCoupling*p.src.IlluminanceAt(r.X, t)
		}
	}
}
