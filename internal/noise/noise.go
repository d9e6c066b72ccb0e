// Package noise injects the stochastic impairments of the passive
// optical channel: shot noise (variance proportional to the received
// level), thermal/electronic noise (constant variance), slow baseline
// drift (clouds, people walking by) and impulsive glints. All noise
// is driven by a deterministic PRNG so experiments are reproducible.
package noise

import (
	"math"
	"math/rand"
)

// Model configures the noise injected into a received-light series
// (units are the same as the series, i.e. lux at the receiver input).
type Model struct {
	// ShotCoeff scales signal-dependent noise: sigma_shot =
	// ShotCoeff * sqrt(level). Zero disables it.
	ShotCoeff float64
	// ThermalSigma is the standard deviation of additive Gaussian
	// electronic noise. Zero disables it.
	ThermalSigma float64
	// DriftSigma is the per-sample standard deviation of a random
	// walk added to the baseline (slow ambient changes). Zero
	// disables it.
	DriftSigma float64
	// GlintProb is the per-sample probability of an impulsive
	// specular glint of amplitude GlintAmp (positive spike).
	GlintProb float64
	GlintAmp  float64
	// Seed selects the deterministic PRNG stream.
	Seed int64
}

// ApplyInPlace adds the model's noise to x in place and returns x.
// Negative results are clamped to 0 (illuminance cannot be negative).
// Callers own the input buffer: the link simulation discards the clean
// rendering anyway, and capacity sweeps run thousands of simulations.
// A model that draws nothing (every term zero) seeds no PRNG.
func (m Model) ApplyInPlace(x []float64) []float64 {
	var rng *rand.Rand
	if m.ShotCoeff > 0 || m.ThermalSigma > 0 || m.DriftSigma > 0 || m.GlintProb > 0 {
		rng = rand.New(rand.NewSource(m.Seed))
	}
	drift := 0.0
	for i, v := range x {
		n := v
		if m.ShotCoeff > 0 && v > 0 {
			n += rng.NormFloat64() * m.ShotCoeff * math.Sqrt(v)
		}
		if m.ThermalSigma > 0 {
			n += rng.NormFloat64() * m.ThermalSigma
		}
		if m.DriftSigma > 0 {
			drift += rng.NormFloat64() * m.DriftSigma
			n += drift
		}
		if m.GlintProb > 0 && rng.Float64() < m.GlintProb {
			n += m.GlintAmp
		}
		if n < 0 {
			n = 0
		}
		x[i] = n
	}
	return x
}

// Indoor is a mild noise model matching the dark-room bench: small
// thermal noise, tiny shot component.
func Indoor(seed int64) Model {
	return Model{ShotCoeff: 0.02, ThermalSigma: 0.15, Seed: seed}
}

// Outdoor is the harsher daylight model: stronger shot noise (bright
// background), wind-borne baseline drift and occasional glints.
func Outdoor(seed int64) Model {
	return Model{ShotCoeff: 0.05, ThermalSigma: 0.4, DriftSigma: 0.02, GlintProb: 0.0005, GlintAmp: 3, Seed: seed}
}

// Fog models light fog between the scene and the receiver: a share
// (1 - Transmission) of the reflected signal is scattered out of the
// path and replaced by a uniform veil at ScatterLevel, washing out
// contrast (one of the Sec. 3 channel distortions).
type Fog struct {
	// Transmission in (0, 1]: 1 means clear air.
	Transmission float64
	// ScatterLevel is the veil level (same units as the series); a
	// natural choice is the ambient stray level.
	ScatterLevel float64
}

// Apply returns the fogged series.
func (f Fog) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	f.applyTo(out, x)
	return out
}

// ApplyInPlace is Apply writing over x itself, for callers that own
// the buffer. Sample values are identical to Apply's.
func (f Fog) ApplyInPlace(x []float64) []float64 {
	f.applyTo(x, x)
	return x
}

func (f Fog) applyTo(out, x []float64) {
	t := f.Transmission
	if t <= 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	for i, v := range x {
		out[i] = t*v + (1-t)*f.ScatterLevel
	}
}
