package scene

import (
	"errors"
	"fmt"

	"passivelight/internal/material"
	"passivelight/internal/optics"
	"passivelight/internal/tag"
)

// ReflectanceProfile is anything that exposes a 1-D reflectance as a
// function of local position; both tags and car bodies implement it
// through adapters below.
type ReflectanceProfile interface {
	// ReflectanceAtLocal returns reflectance at local coordinate u in
	// [0, Length), and ok=false outside.
	ReflectanceAtLocal(u float64) (rho float64, ok bool)
	// Length is the profile extent (m).
	Length() float64
}

// FlatProfile is the piecewise-constant form of a reflectance
// profile: segment i covers [Edges[i], Edges[i+1]) with reflectance
// Rho[i], Edges[0] = 0 and Edges[len(Rho)] = Length. An Overlay (a
// roof tag glued on a car) takes precedence over the base segments on
// [Offset, Offset+Edges[last]) in local coordinates v = u - Offset —
// kept as a separate layer, not merged, so boundary comparisons round
// exactly like the reference lookup's. All slices are shared and
// read-only.
type FlatProfile struct {
	Edges, Rho []float64
	Overlay    *FlatOverlay
}

// FlatOverlay is a piecewise-constant patch over a base FlatProfile.
type FlatOverlay struct {
	// Offset of the overlay's origin in base profile coordinates.
	Offset     float64
	Edges, Rho []float64
}

// PiecewiseConstant is an optional capability of ReflectanceProfile:
// profiles that can expose their piecewise-constant reflectance as
// flat slices, letting the channel renderer replace per-sample
// interface dispatch with direct array lookups. FlatReflectance must
// describe exactly the same function as ReflectanceAtLocal, including
// the rounding of every boundary comparison.
type PiecewiseConstant interface {
	FlatReflectance() FlatProfile
}

// tagProfile adapts *tag.Tag (possibly dynamic) to ReflectanceProfile.
type tagProfile struct {
	t *tag.Tag
}

func (tp tagProfile) ReflectanceAtLocal(u float64) (float64, bool) {
	m, ok := tp.t.Profile().MaterialAt(u)
	if !ok {
		return 0, false
	}
	return m.Reflectance, true
}

func (tp tagProfile) Length() float64 { return tp.t.Length() }

// FlatReflectance implements PiecewiseConstant.
func (tp tagProfile) FlatReflectance() FlatProfile {
	edges, rho := tp.t.Profile().FlatReflectance()
	return FlatProfile{Edges: edges, Rho: rho}
}

// Object is a mobile element of the scene: a reflectance profile
// moving along a trajectory, occupying a lateral share of the
// receiver FoV.
type Object struct {
	// Name for logs and traces.
	Name string
	// Profile is the object's reflectance along the motion axis.
	Profile ReflectanceProfile
	// Trajectory drives the leading edge position over time. The
	// local coordinate u of ground point x at time t is
	// u = Trajectory.PositionAt(t) - x, i.e. positive motion sweeps
	// the profile tail-first across increasing x.
	Trajectory Trajectory
	// LateralShare in (0, 1] is the fraction of the receiver's FoV
	// width the object covers laterally. Two colliding packets with
	// shares 0.8/0.2 reproduce the paper's Case 1 dominance.
	LateralShare float64
	// DynamicTag, if non-nil, overrides Profile frame-by-frame
	// (future work (1)).
	DynamicTag *tag.Dynamic
}

// NewTagObject builds an Object carrying a static tag.
func NewTagObject(name string, t *tag.Tag, traj Trajectory, lateralShare float64) (*Object, error) {
	if t == nil {
		return nil, errors.New("scene: nil tag")
	}
	if err := validShare(lateralShare); err != nil {
		return nil, err
	}
	return &Object{Name: name, Profile: tagProfile{t}, Trajectory: traj, LateralShare: lateralShare}, nil
}

// NewDynamicTagObject builds an Object carrying a dynamic tag.
func NewDynamicTagObject(name string, d *tag.Dynamic, traj Trajectory, lateralShare float64) (*Object, error) {
	if d == nil {
		return nil, errors.New("scene: nil dynamic tag")
	}
	if err := validShare(lateralShare); err != nil {
		return nil, err
	}
	return &Object{Name: name, Profile: tagProfile{d.Frames[0]}, Trajectory: traj, LateralShare: lateralShare, DynamicTag: d}, nil
}

func validShare(s float64) error {
	if s <= 0 || s > 1 {
		return fmt.Errorf("scene: lateral share %.3f outside (0, 1]", s)
	}
	return nil
}

// ReflectanceAt returns the object's reflectance over ground position
// x at time t, and whether the object covers x at all.
func (o *Object) ReflectanceAt(x, t float64) (float64, bool) {
	lead := o.Trajectory.PositionAt(t)
	u := lead - x
	if o.DynamicTag != nil {
		active := o.DynamicTag.ActiveAt(t)
		m, ok := active.Profile().MaterialAt(u)
		if !ok {
			return 0, false
		}
		return m.Reflectance, true
	}
	return o.Profile.ReflectanceAtLocal(u)
}

// Scene is the complete world: light source, ground material, mobile
// objects.
type Scene struct {
	Source  optics.Source
	Ground  material.Material
	Objects []*Object
}

// New builds a scene, defaulting the ground to tarmac.
func New(src optics.Source, objects ...*Object) *Scene {
	return &Scene{Source: src, Ground: material.Tarmac, Objects: objects}
}

// SurfaceSample is what the channel sees at one ground point: the
// effective reflectance and the set of objects covering it.
type SurfaceSample struct {
	Reflectance float64
	// CoveredBy counts the objects over this point (0 = bare ground).
	CoveredBy int
}

// SampleAt composes the reflectance at ground position x and time t.
// Objects are blended by lateral share: the effective reflectance is
// sum(share_i * rho_i) + (1 - sum(share_i)) * rho_ground, clamping
// total share at 1 (objects cannot overlap laterally beyond the FoV).
func (s *Scene) SampleAt(x, t float64) SurfaceSample {
	var accShare, accRho float64
	covered := 0
	for _, o := range s.Objects {
		rho, ok := o.ReflectanceAt(x, t)
		if !ok {
			continue
		}
		covered++
		share := o.LateralShare
		if accShare+share > 1 {
			share = 1 - accShare
		}
		if share <= 0 {
			continue
		}
		accShare += share
		accRho += share * rho
	}
	if accShare < 1 {
		accRho += (1 - accShare) * s.Ground.Reflectance
	}
	return SurfaceSample{Reflectance: accRho, CoveredBy: covered}
}

// IlluminanceAt exposes the source illuminance for the channel.
func (s *Scene) IlluminanceAt(x, t float64) float64 {
	if s.Source == nil {
		return 0
	}
	return s.Source.IlluminanceAt(x, t)
}
