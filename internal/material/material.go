// Package material models the reflective surfaces that carry passive
// packets. Each material is characterized by its reflection
// coefficient (fraction of incident light re-emitted) and how diffuse
// the reflection is. The paper encodes HIGH symbols with aluminum
// tape (high reflection coefficient, low diffusion) and LOW symbols
// with black paper napkins (low coefficient, high diffusion), on a
// ground plane covered with black paper "to resemble tarmac".
package material

import "fmt"

// Material describes one reflective surface type.
type Material struct {
	// Name is a human-readable identifier.
	Name string
	// Reflectance is the total reflection coefficient in [0, 1].
	Reflectance float64
	// SpecularFraction is the share of reflected light that leaves in
	// the mirror direction (0 = fully diffuse/Lambertian, 1 = mirror).
	// A downward-looking receiver under a roughly overhead source
	// collects both, but specular surfaces produce occasional strong
	// glints modeled by the channel.
	SpecularFraction float64
}

// Validate reports whether the material parameters are physical.
func (m Material) Validate() error {
	if m.Reflectance < 0 || m.Reflectance > 1 {
		return fmt.Errorf("material %q: reflectance %.3f outside [0,1]", m.Name, m.Reflectance)
	}
	if m.SpecularFraction < 0 || m.SpecularFraction > 1 {
		return fmt.Errorf("material %q: specular fraction %.3f outside [0,1]", m.Name, m.SpecularFraction)
	}
	return nil
}

// Standard materials used across the paper's experiments.
var (
	// AluminumTape encodes the HIGH symbol: strong, fairly specular
	// reflection.
	AluminumTape = Material{Name: "aluminum-tape", Reflectance: 0.85, SpecularFraction: 0.6}
	// BlackNapkin encodes the LOW symbol: weak, diffuse reflection.
	BlackNapkin = Material{Name: "black-napkin", Reflectance: 0.06, SpecularFraction: 0.02}
	// Tarmac is the ground plane (black paper in the indoor setup).
	Tarmac = Material{Name: "tarmac", Reflectance: 0.08, SpecularFraction: 0.05}
	// CarPaintMetal is a painted metal body panel (hood/roof/trunk):
	// bright and glossy; produces the peaks of Figs. 13-14.
	CarPaintMetal = Material{Name: "car-paint-metal", Reflectance: 0.65, SpecularFraction: 0.5}
	// WindshieldGlass is tilted glass: most light is reflected away
	// from a downward receiver, so the effective upward reflectance is
	// low; produces the valleys of Figs. 13-14.
	WindshieldGlass = Material{Name: "windshield-glass", Reflectance: 0.12, SpecularFraction: 0.85}
	// WhitePaper is a generic bright diffuse reference surface.
	WhitePaper = Material{Name: "white-paper", Reflectance: 0.75, SpecularFraction: 0.05}
	// MirrorFilm is an idealized near-perfect reflector.
	MirrorFilm = Material{Name: "mirror-film", Reflectance: 0.98, SpecularFraction: 0.95}
	// DarkCloth is a rugged dark fabric: minimal reflection, fully
	// scattered ("a dark and rugged cloth" in Sec. 2).
	DarkCloth = Material{Name: "dark-cloth", Reflectance: 0.03, SpecularFraction: 0.0}
)

// WithDirt returns the material with a dirt layer: coverage in [0,1]
// scales reflectance toward a dusty gray (rho 0.25) and removes
// specularity. Dirt on top of reflective surfaces is one of the
// channel distortions called out in Sec. 3.
func (m Material) WithDirt(coverage float64) Material {
	if coverage < 0 {
		coverage = 0
	}
	if coverage > 1 {
		coverage = 1
	}
	const dustRho = 0.25
	out := m
	out.Name = fmt.Sprintf("%s+dirt%.0f%%", m.Name, coverage*100)
	out.Reflectance = m.Reflectance*(1-coverage) + dustRho*coverage
	out.SpecularFraction = m.SpecularFraction * (1 - coverage)
	return out
}
