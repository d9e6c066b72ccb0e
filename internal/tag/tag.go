// Package tag converts logical packets (internal/coding) into the
// physical reflectance profiles that move through the scene: a
// sequence of material stripes of constant symbol width, optionally
// surrounded by the carrier object's own surface. It also models
// dynamic tags (the paper's future-work extension (1): E-ink/LCD
// surfaces whose code changes over time).
package tag

import (
	"errors"
	"fmt"

	"passivelight/internal/coding"
	"passivelight/internal/material"
)

// Profile is a one-dimensional reflectance profile along the motion
// axis, in the object's local coordinates (0 at the leading edge of
// the profile). It is piecewise constant.
type Profile struct {
	// edges[i] is the start of segment i; segments[i] applies on
	// [edges[i], edges[i+1]); the profile length is edges[len].
	edges    []float64
	segments []material.Material
	// flatRho caches per-segment reflectances for FlatReflectance.
	flatRho []float64
}

// NewProfile builds a profile from segment lengths and materials.
func NewProfile(lengths []float64, mats []material.Material) (*Profile, error) {
	if len(lengths) != len(mats) {
		return nil, errors.New("tag: lengths and materials must have equal length")
	}
	if len(lengths) == 0 {
		return nil, errors.New("tag: empty profile")
	}
	p := &Profile{edges: make([]float64, 0, len(lengths)+1)}
	pos := 0.0
	p.edges = append(p.edges, 0)
	for i, l := range lengths {
		if l <= 0 {
			return nil, fmt.Errorf("tag: segment %d has non-positive length %.4f", i, l)
		}
		if err := mats[i].Validate(); err != nil {
			return nil, err
		}
		pos += l
		p.edges = append(p.edges, pos)
		p.segments = append(p.segments, mats[i])
	}
	p.flatRho = make([]float64, len(p.segments))
	for i, m := range p.segments {
		p.flatRho[i] = m.Reflectance
	}
	return p, nil
}

// Length returns the total profile length in meters.
func (p *Profile) Length() float64 { return p.edges[len(p.edges)-1] }

// FlatReflectance exposes the piecewise-constant form of the profile:
// segment boundaries (edges[0] = 0, edges[len-1] = Length) and the
// reflectance of each segment, so the channel renderer can look up
// reflectance without per-sample interface dispatch or material
// copies. The returned slices are shared and must not be mutated.
func (p *Profile) FlatReflectance() (edges, rho []float64) {
	return p.edges, p.flatRho
}

// MaterialAt returns the material at local position x. Positions
// outside [0, Length) return (zero material, false).
func (p *Profile) MaterialAt(x float64) (material.Material, bool) {
	if x < 0 || x >= p.Length() {
		return material.Material{}, false
	}
	// Binary search over edges.
	lo, hi := 0, len(p.segments)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.edges[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return p.segments[lo], true
}

// Tag is a physical passive packet: a reflectance profile generated
// from symbols at a fixed symbol width.
type Tag struct {
	Packet      coding.Packet
	SymbolWidth float64 // meters per symbol stripe
	HighMat     material.Material
	LowMat      material.Material
	profile     *Profile
}

// Config bundles tag construction options.
type Config struct {
	// SymbolWidth is the stripe width per symbol (m); the paper uses
	// 1.5-7.5 cm indoors and 10 cm on the car roof.
	SymbolWidth float64
	// HighMat/LowMat default to aluminum tape and black napkin.
	HighMat, LowMat *material.Material
	// LeadIn/LeadOut prepend/append stretches of LowMat before and
	// after the coded region so the decoder sees a quiet baseline.
	// Both default to 0.
	LeadIn, LeadOut float64
}

// New builds a Tag for the given packet (preamble + Manchester data
// as material stripes).
func New(p coding.Packet, cfg Config) (*Tag, error) {
	symbols := p.Symbols()
	if len(symbols) == 0 {
		return nil, errors.New("tag: packet has no symbols")
	}
	t, err := NewFromSymbols(symbols, cfg)
	if err != nil {
		return nil, err
	}
	t.Packet = p
	return t, nil
}

// NewFromSymbols builds a tag directly from a symbol sequence,
// bypassing the packet layer. Used for non-Manchester ablations (NRZ
// stripes) and custom patterns.
func NewFromSymbols(symbols []coding.Symbol, cfg Config) (*Tag, error) {
	if cfg.SymbolWidth <= 0 {
		return nil, errors.New("tag: symbol width must be positive")
	}
	if len(symbols) == 0 {
		return nil, errors.New("tag: no symbols")
	}
	high := material.AluminumTape
	if cfg.HighMat != nil {
		high = *cfg.HighMat
	}
	low := material.BlackNapkin
	if cfg.LowMat != nil {
		low = *cfg.LowMat
	}
	var lengths []float64
	var mats []material.Material
	if cfg.LeadIn > 0 {
		lengths = append(lengths, cfg.LeadIn)
		mats = append(mats, low)
	}
	for _, s := range symbols {
		lengths = append(lengths, cfg.SymbolWidth)
		if s == coding.High {
			mats = append(mats, high)
		} else {
			mats = append(mats, low)
		}
	}
	if cfg.LeadOut > 0 {
		lengths = append(lengths, cfg.LeadOut)
		mats = append(mats, low)
	}
	profile, err := NewProfile(lengths, mats)
	if err != nil {
		return nil, err
	}
	return &Tag{
		SymbolWidth: cfg.SymbolWidth,
		HighMat:     high,
		LowMat:      low,
		profile:     profile,
	}, nil
}

// Profile returns the tag's reflectance profile.
func (t *Tag) Profile() *Profile { return t.profile }

// Length returns the tag's physical length (m).
func (t *Tag) Length() float64 { return t.profile.Length() }

// WithDirt returns a copy of the tag whose stripe materials carry a
// dirt layer of the given coverage; used for distortion experiments.
func (t *Tag) WithDirt(coverage float64) (*Tag, error) {
	high := t.HighMat.WithDirt(coverage)
	low := t.LowMat.WithDirt(coverage)
	return New(t.Packet, Config{
		SymbolWidth: t.SymbolWidth,
		HighMat:     &high,
		LowMat:      &low,
	})
}

// Dynamic is a time-varying tag (future work (1)): an E-ink/LCD
// surface cycling through several packets. At any instant it behaves
// like the Tag active for that time slot.
type Dynamic struct {
	// Frames are the tags cycled through.
	Frames []*Tag
	// FramePeriod is how long each frame is displayed (s).
	FramePeriod float64
}

// NewDynamic validates and builds a dynamic tag. All frames must share
// the same physical length so the carrier geometry is constant.
func NewDynamic(frames []*Tag, framePeriod float64) (*Dynamic, error) {
	if len(frames) == 0 {
		return nil, errors.New("tag: dynamic tag needs at least one frame")
	}
	if framePeriod <= 0 {
		return nil, errors.New("tag: frame period must be positive")
	}
	l := frames[0].Length()
	for i, f := range frames[1:] {
		if diff := f.Length() - l; diff > 1e-9 || diff < -1e-9 {
			return nil, fmt.Errorf("tag: frame %d length %.4f != frame 0 length %.4f", i+1, f.Length(), l)
		}
	}
	return &Dynamic{Frames: frames, FramePeriod: framePeriod}, nil
}

// ActiveAt returns the tag displayed at time t (cycling).
func (d *Dynamic) ActiveAt(t float64) *Tag {
	if t < 0 {
		t = 0
	}
	idx := int(t/d.FramePeriod) % len(d.Frames)
	return d.Frames[idx]
}

// Length returns the (shared) physical length of the frames.
func (d *Dynamic) Length() float64 { return d.Frames[0].Length() }
