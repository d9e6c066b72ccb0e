// Package geom provides small geometric primitives used by the optical
// channel simulator: degree-to-radian conversion and field-of-view
// (FoV) cone math.
//
// The simulator mostly works in a 2-D vertical slice: objects move
// along the x axis on the ground plane (z = 0) and receivers look
// straight down from height z = h. The FoV footprint of a downward
// receiver is the ground interval |x - x0| <= h*tan(psi) where psi is
// the FoV half-angle.
package geom

import "math"

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Cone describes a field-of-view cone: the apex sits at the receiver,
// the axis points straight down, and HalfAngle is the half opening
// angle in radians.
type Cone struct {
	HalfAngle float64 // radians, in (0, pi/2)
}

// NewConeDeg returns a cone with the given half-angle in degrees.
func NewConeDeg(deg float64) Cone { return Cone{HalfAngle: Radians(deg)} }

// FootprintRadius returns the radius of the cone's intersection with a
// plane at distance h below the apex.
func (c Cone) FootprintRadius(h float64) float64 {
	return h * math.Tan(c.HalfAngle)
}

// IncidenceCos returns cos(theta) for a ray from a ground point at
// horizontal offset dx to an apex at height h: the cosine of the angle
// between the ray and the vertical.
func IncidenceCos(dx, h float64) float64 {
	d := math.Hypot(dx, h)
	if d == 0 {
		return 1
	}
	return h / d
}
