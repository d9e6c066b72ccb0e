// Package optics models the unmodulated ambient light sources that
// power the passive channel: a point Lambertian LED lamp (the paper's
// controlled dark-room emitter), fluorescent/incandescent ceiling
// lights with the 100 Hz AC ripple that makes Fig. 7's signal
// "thicker", and the sun (the Sec. 5 outdoor emitter). A source
// reports the illuminance (lux) it deposits on a ground point at a
// given time; the channel then reflects that off the scene into the
// receiver.
package optics

import (
	"fmt"
	"math"
)

// Source is an unmodulated ambient light source.
type Source interface {
	// IlluminanceAt returns the illuminance (lux) on the ground plane
	// at horizontal position x (meters, along the motion axis) at time
	// t (seconds).
	IlluminanceAt(x, t float64) float64
	// Name identifies the source type for traces and experiment logs.
	Name() string
}

// SteadySource is an optional capability: sources whose illuminance
// does not depend on time. The channel renderer uses it to evaluate
// the footprint illuminance once per render instead of once per
// sample.
type SteadySource interface {
	// SteadyIlluminance reports whether IlluminanceAt ignores t.
	SteadyIlluminance() bool
}

// UniformSource is an optional capability: sources whose illuminance
// does not depend on ground position. The channel renderer uses it to
// evaluate the illuminance once per time step instead of once per
// footprint point.
type UniformSource interface {
	// UniformIlluminance reports whether IlluminanceAt ignores x.
	UniformIlluminance() bool
}

// PointLamp is a Lambertian point source (the LED lamp of Sec. 4.1)
// at height Height above the ground and horizontal position X.
type PointLamp struct {
	// X is the horizontal position of the lamp (m).
	X float64
	// Height above the ground plane (m); must be > 0.
	Height float64
	// Intensity is the luminous intensity on-axis (candela).
	Intensity float64
	// LambertOrder m shapes the beam: radiant intensity falls as
	// cos^m(phi) off-axis. m = 1 is an ideal Lambertian emitter; LED
	// lamps with lenses have m of several tens. Values < 1 are
	// clamped to 1.
	LambertOrder float64
}

// Name implements Source.
func (p PointLamp) Name() string { return "point-lamp" }

// SteadyIlluminance implements SteadySource: the lamp is unmodulated.
func (p PointLamp) SteadyIlluminance() bool { return true }

// IlluminanceAt computes E = I * cos^m(phi) * cos(theta) / d^2 where
// phi is the emission angle off the lamp's downward axis, theta the
// incidence angle at the ground (equal to phi for a level ground
// plane) and d the slant distance.
func (p PointLamp) IlluminanceAt(x, _ float64) float64 {
	if p.Height <= 0 {
		return 0
	}
	dx := x - p.X
	d2 := dx*dx + p.Height*p.Height
	d := math.Sqrt(d2)
	cos := p.Height / d
	m := p.LambertOrder
	if m < 1 {
		m = 1
	}
	return p.Intensity * math.Pow(cos, m) * cos / d2
}

// CeilingLight models mains-powered luminaires (fluorescent tubes or
// incandescent bulbs, Sec. 4.1 "Impact of other light sources"). The
// illuminance is roughly uniform over the small experiment area but
// carries a double-line-frequency ripple from the AC supply, plus
// optional harmonics. This ripple is what the paper attributes the
// "larger variance in the signal, 'thicker lines'" to.
type CeilingLight struct {
	// Lux is the mean illuminance on the work plane.
	Lux float64
	// RippleDepth is the peak ripple amplitude relative to the mean
	// (e.g. 0.1 = ±10%). Fluorescent tubes on magnetic ballasts reach
	// 0.2-0.4; incandescent bulbs ~0.05-0.15 (thermal inertia).
	RippleDepth float64
	// MainsHz is the line frequency (50 in Europe); the optical
	// ripple appears at twice this frequency.
	MainsHz float64
	// Harmonics adds odd harmonics of the ripple with amplitudes
	// Harmonics[i] relative to the fundamental ripple (i=0 is the 2nd
	// optical harmonic, i.e. 4x mains).
	Harmonics []float64
	// Phase offsets the ripple (radians).
	Phase float64
}

// Name implements Source.
func (c CeilingLight) Name() string { return "ceiling-light" }

// UniformIlluminance implements UniformSource: ceiling flood lighting
// is uniform over the small experiment area.
func (c CeilingLight) UniformIlluminance() bool { return true }

// SteadyIlluminance implements SteadySource: constant when there is
// no AC ripple.
func (c CeilingLight) SteadyIlluminance() bool { return c.RippleDepth == 0 }

// IlluminanceAt implements Source: uniform in x, rippling in t.
func (c CeilingLight) IlluminanceAt(_, t float64) float64 {
	mains := c.MainsHz
	if mains <= 0 {
		mains = 50
	}
	w := 2 * math.Pi * 2 * mains // optical ripple at 2x line frequency
	ripple := c.RippleDepth * math.Sin(w*t+c.Phase)
	for i, h := range c.Harmonics {
		ripple += c.RippleDepth * h * math.Sin(w*float64(i+2)*t+c.Phase)
	}
	e := c.Lux * (1 + ripple)
	if e < 0 {
		e = 0
	}
	return e
}

// Sun models daylight: spatially uniform and constant over the
// seconds-long duration of one packet. Lux is the ambient noise floor
// the paper reports per experiment (e.g. 6200 lux, 450 lux, 100 lux).
type Sun struct {
	// Lux is the ground illuminance.
	Lux float64
	// SlowDriftAmp optionally adds a very slow illuminance drift
	// (clouds) of this relative amplitude over DriftPeriod.
	SlowDriftAmp float64
	// DriftPeriod is the drift period in seconds (default 60).
	DriftPeriod float64
}

// Name implements Source.
func (s Sun) Name() string { return "sun" }

// UniformIlluminance implements UniformSource: daylight floods the
// scene.
func (s Sun) UniformIlluminance() bool { return true }

// SteadyIlluminance implements SteadySource: constant unless a cloud
// drift is configured.
func (s Sun) SteadyIlluminance() bool { return s.SlowDriftAmp <= 0 }

// IlluminanceAt implements Source.
func (s Sun) IlluminanceAt(_, t float64) float64 {
	e := s.Lux
	if s.SlowDriftAmp > 0 {
		period := s.DriftPeriod
		if period <= 0 {
			period = 60
		}
		e *= 1 + s.SlowDriftAmp*math.Sin(2*math.Pi*t/period)
	}
	if e < 0 {
		e = 0
	}
	return e
}

// Composite sums several sources (e.g. ceiling lights plus daylight
// through a window).
type Composite struct {
	Sources []Source
}

// Name implements Source.
func (c Composite) Name() string {
	return fmt.Sprintf("composite(%d)", len(c.Sources))
}

// SteadyIlluminance implements SteadySource: steady iff every child
// is.
func (c Composite) SteadyIlluminance() bool {
	for _, s := range c.Sources {
		ss, ok := s.(SteadySource)
		if !ok || !ss.SteadyIlluminance() {
			return false
		}
	}
	return true
}

// UniformIlluminance implements UniformSource: uniform iff every
// child is.
func (c Composite) UniformIlluminance() bool {
	for _, s := range c.Sources {
		us, ok := s.(UniformSource)
		if !ok || !us.UniformIlluminance() {
			return false
		}
	}
	return true
}

// IlluminanceAt implements Source.
func (c Composite) IlluminanceAt(x, t float64) float64 {
	var sum float64
	for _, s := range c.Sources {
		sum += s.IlluminanceAt(x, t)
	}
	return sum
}

// MeanLux estimates the time-averaged illuminance of a source at
// ground position x by sampling n points over the window [0, dur].
// Used to report the "noise floor" of an experiment configuration.
func MeanLux(s Source, x, dur float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		t := dur * float64(i) / float64(n)
		sum += s.IlluminanceAt(x, t)
	}
	return sum / float64(n)
}
