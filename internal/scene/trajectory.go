// Package scene assembles the physical world the channel renders: a
// ground plane, an ambient light source, and mobile objects that
// carry reflectance profiles (tags and/or car bodies) along
// trajectories. Trajectories are where the paper's speed-related
// phenomena live: constant speed for the ideal channel (Sec. 4.1),
// a mid-packet speed change for the distortion study (Sec. 4.2,
// Fig. 8), and 18 km/h drive-bys for the outdoor application (Sec. 5).
package scene

import (
	"errors"
	"fmt"
	"math"
)

// Trajectory maps time to the position of an object's leading edge
// along the motion axis (meters).
type Trajectory interface {
	// PositionAt returns the leading-edge position at time t (s).
	PositionAt(t float64) float64
}

// ConstantSpeed moves at Speed m/s starting from Start at t=0.
type ConstantSpeed struct {
	Start float64 // initial position (m)
	Speed float64 // m/s (may be negative)
}

// PositionAt implements Trajectory.
func (c ConstantSpeed) PositionAt(t float64) float64 { return c.Start + c.Speed*t }

// PiecewiseSpeed changes speed at fixed times. It reproduces the
// Fig. 8 distortion: "the speed is doubled when the second half (Data
// field) passes by".
type PiecewiseSpeed struct {
	Start    float64
	Segments []SpeedSegment // must be ordered by Until; last Until may be +Inf
}

// SpeedSegment holds a speed valid until the given time.
type SpeedSegment struct {
	Until float64 // segment applies for t < Until
	Speed float64 // m/s
}

// NewPiecewiseSpeed validates segment ordering.
func NewPiecewiseSpeed(start float64, segments []SpeedSegment) (PiecewiseSpeed, error) {
	if len(segments) == 0 {
		return PiecewiseSpeed{}, errors.New("scene: piecewise trajectory needs at least one segment")
	}
	for i := 1; i < len(segments); i++ {
		if segments[i].Until <= segments[i-1].Until {
			return PiecewiseSpeed{}, fmt.Errorf("scene: segment %d Until %.3f not increasing", i, segments[i].Until)
		}
	}
	return PiecewiseSpeed{Start: start, Segments: segments}, nil
}

// PositionAt integrates the piecewise-constant speed.
func (p PiecewiseSpeed) PositionAt(t float64) float64 {
	pos := p.Start
	prev := 0.0
	for _, seg := range p.Segments {
		end := math.Min(t, seg.Until)
		if end > prev {
			pos += seg.Speed * (end - prev)
			prev = end
		}
		if t <= seg.Until {
			return pos
		}
	}
	// Beyond the last segment: keep the last speed.
	last := p.Segments[len(p.Segments)-1]
	pos += last.Speed * (t - prev)
	return pos
}

// KmhToMs converts km/h to m/s (the paper reports car speed as
// 18 km/h = 5 m/s).
func KmhToMs(kmh float64) float64 { return kmh / 3.6 }

// SpeedDoubler builds the exact Fig. 8 trajectory for a tag of total
// length tagLen starting at start: the object moves at baseSpeed until
// its midpoint (preamble half) has passed the receiver position rx,
// then at 2*baseSpeed.
func SpeedDoubler(start, tagLen, rx, baseSpeed float64) (PiecewiseSpeed, error) {
	if baseSpeed <= 0 {
		return PiecewiseSpeed{}, errors.New("scene: base speed must be positive")
	}
	// Time at which the tag midpoint reaches the receiver: the leading
	// edge must travel (rx - start) + tagLen/2... the midpoint is at
	// leading edge - tagLen/2, so midpoint reaches rx when leading
	// edge = rx + tagLen/2.
	dist := rx + tagLen/2 - start
	if dist <= 0 {
		return PiecewiseSpeed{}, errors.New("scene: receiver behind the tag midpoint at t=0")
	}
	tSwitch := dist / baseSpeed
	return NewPiecewiseSpeed(start, []SpeedSegment{
		{Until: tSwitch, Speed: baseSpeed},
		{Until: math.Inf(1), Speed: 2 * baseSpeed},
	})
}
