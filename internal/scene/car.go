package scene

import (
	"errors"
	"fmt"

	"passivelight/internal/material"
	"passivelight/internal/tag"
)

// CarSegment is one longitudinal section of a car's top surface as
// seen from above: hood, windshield, roof, rear glass, trunk.
type CarSegment struct {
	Name     string
	Length   float64 // meters along the car
	Material material.Material
}

// CarModel describes a car's optical signature (Figs. 13-14): the
// sequence of metal (bright) and glass (dark) sections from front to
// back, plus where a roof tag would be mounted.
type CarModel struct {
	Name     string
	Segments []CarSegment
	// RoofIndex is the index of the roof segment (where tags mount).
	RoofIndex int
	// WidthShare is the lateral FoV share of the car when centered
	// under the receiver.
	WidthShare float64
}

// Length returns the car's total length.
func (c CarModel) Length() float64 {
	var sum float64
	for _, s := range c.Segments {
		sum += s.Length
	}
	return sum
}

// RoofOffset returns the distance from the car front to the start of
// the roof segment.
func (c CarModel) RoofOffset() float64 {
	var sum float64
	for i := 0; i < c.RoofIndex; i++ {
		sum += c.Segments[i].Length
	}
	return sum
}

// VolvoV40 is the paper's first test car: a hatchback, so the rear
// glass runs to the tail (Fig. 13 labels A hood, B windshield, C
// roof, D rear glass — no separate trunk peak).
func VolvoV40() CarModel {
	return CarModel{
		Name: "volvo-v40",
		Segments: []CarSegment{
			{Name: "hood", Length: 1.00, Material: material.CarPaintMetal},
			{Name: "windshield", Length: 0.75, Material: material.WindshieldGlass},
			{Name: "roof", Length: 1.30, Material: material.CarPaintMetal},
			{Name: "rear-glass", Length: 1.30, Material: material.WindshieldGlass},
		},
		RoofIndex:  2,
		WidthShare: 1.0,
	}
}

// BMW3 is the paper's second test car: a sedan, with a distinct trunk
// after the rear glass (Fig. 14 labels A hood, B windshield, C roof,
// D rear glass, E trunk).
func BMW3() CarModel {
	return CarModel{
		Name: "bmw-3",
		Segments: []CarSegment{
			{Name: "hood", Length: 1.20, Material: material.CarPaintMetal},
			{Name: "windshield", Length: 0.70, Material: material.WindshieldGlass},
			{Name: "roof", Length: 1.20, Material: material.CarPaintMetal},
			{Name: "rear-glass", Length: 0.70, Material: material.WindshieldGlass},
			{Name: "trunk", Length: 0.85, Material: material.CarPaintMetal},
		},
		RoofIndex:  2,
		WidthShare: 1.0,
	}
}

// carProfile implements ReflectanceProfile for a bare car or a car
// with a tag glued onto the roof. The tag replaces the roof
// reflectance over its extent.
type carProfile struct {
	model     CarModel
	edges     []float64
	mats      []material.Material
	roofTag   *tag.Tag
	tagOffset float64 // distance from car front to tag leading edge
	// flatRho caches per-segment reflectances for FlatReflectance.
	flatRho []float64
}

// NewCarObject builds a bare car (no tag) moving along traj; the
// optical signature is used as the long-duration preamble baseline of
// Sec. 5.1.
func NewCarObject(model CarModel, traj Trajectory) (*Object, error) {
	p, err := newCarProfile(model, nil)
	if err != nil {
		return nil, err
	}
	return &Object{Name: model.Name, Profile: p, Trajectory: traj, LateralShare: model.WidthShare}, nil
}

// NewTaggedCarObject builds a car with a tag centered on its roof.
func NewTaggedCarObject(model CarModel, t *tag.Tag, traj Trajectory) (*Object, error) {
	if t == nil {
		return nil, errors.New("scene: nil tag")
	}
	p, err := newCarProfile(model, t)
	if err != nil {
		return nil, err
	}
	return &Object{
		Name:         fmt.Sprintf("%s+tag", model.Name),
		Profile:      p,
		Trajectory:   traj,
		LateralShare: model.WidthShare,
	}, nil
}

func newCarProfile(model CarModel, t *tag.Tag) (*carProfile, error) {
	if len(model.Segments) == 0 {
		return nil, errors.New("scene: car model has no segments")
	}
	if model.RoofIndex < 0 || model.RoofIndex >= len(model.Segments) {
		return nil, fmt.Errorf("scene: roof index %d out of range", model.RoofIndex)
	}
	cp := &carProfile{model: model}
	pos := 0.0
	cp.edges = append(cp.edges, 0)
	for _, s := range model.Segments {
		if s.Length <= 0 {
			return nil, fmt.Errorf("scene: car segment %q has non-positive length", s.Name)
		}
		pos += s.Length
		cp.edges = append(cp.edges, pos)
		cp.mats = append(cp.mats, s.Material)
	}
	if t != nil {
		roof := model.Segments[model.RoofIndex]
		if t.Length() > roof.Length {
			return nil, fmt.Errorf("scene: tag length %.3f m exceeds roof length %.3f m", t.Length(), roof.Length)
		}
		cp.roofTag = t
		// Center the tag on the roof.
		cp.tagOffset = model.RoofOffset() + (roof.Length-t.Length())/2
	}
	cp.flatRho = make([]float64, len(cp.mats))
	for i, m := range cp.mats {
		cp.flatRho[i] = m.Reflectance
	}
	return cp, nil
}

// FlatReflectance implements PiecewiseConstant: the car body as the
// base layer, the roof tag (if any) as an overlay at its mount
// offset. The two layers are deliberately not merged — the overlay
// lookup v = u - Offset must round exactly like ReflectanceAtLocal's.
func (cp *carProfile) FlatReflectance() FlatProfile {
	fp := FlatProfile{Edges: cp.edges, Rho: cp.flatRho}
	if cp.roofTag != nil {
		te, trho := cp.roofTag.Profile().FlatReflectance()
		fp.Overlay = &FlatOverlay{Offset: cp.tagOffset, Edges: te, Rho: trho}
	}
	return fp
}

// ReflectanceAtLocal implements ReflectanceProfile. Local coordinate
// u = 0 is the car front; u grows toward the tail.
func (cp *carProfile) ReflectanceAtLocal(u float64) (float64, bool) {
	if u < 0 || u >= cp.Length() {
		return 0, false
	}
	if cp.roofTag != nil {
		if v := u - cp.tagOffset; v >= 0 && v < cp.roofTag.Length() {
			if m, ok := cp.roofTag.Profile().MaterialAt(v); ok {
				return m.Reflectance, true
			}
		}
	}
	// Linear scan: car profiles have <= 5 segments.
	for i := range cp.mats {
		if u >= cp.edges[i] && u < cp.edges[i+1] {
			return cp.mats[i].Reflectance, true
		}
	}
	return 0, false
}

// Length implements ReflectanceProfile.
func (cp *carProfile) Length() float64 { return cp.edges[len(cp.edges)-1] }
