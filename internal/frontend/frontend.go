// Package frontend models the receiver electronics of the evaluation
// board (paper Fig. 3): the OPT101 photodiode with selectable gain,
// an LED operated in photovoltaic mode as a receiver (RX-LED), the
// physical FoV-reducing cap of Sec. 5.2, the receiver's finite
// response time, and the MCP3008-style 10-bit ADC sampling at a
// configurable rate (2 kS/s in the outdoor experiments).
//
// The Fig. 11 device table is encoded exactly:
//
//	receiver   saturation   sensitivity (normalized)
//	PD (G1)      450 lux       1
//	PD (G2)     1200 lux       0.45
//	PD (G3)     5000 lux       0.089
//	LED       35000 lux       0.013
//
// Saturation and sensitivity are two sides of the same front-end
// scaling: the ADC full scale corresponds to an input level of
// FullScaleCounts / (sensitivity * CountsPerLux) lux, which lands on
// the table's saturation points for CountsPerLux ~= 2.2.
package frontend

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// GainLevel selects the OPT101 gain control setting.
type GainLevel int

// Gain levels from the paper's Fig. 11.
const (
	G1 GainLevel = iota + 1 // high sensitivity, saturates at 450 lux
	G2                      // medium: 1200 lux
	G3                      // low: 5000 lux
)

// String implements fmt.Stringer.
func (g GainLevel) String() string {
	switch g {
	case G1:
		return "G1"
	case G2:
		return "G2"
	case G3:
		return "G3"
	default:
		return fmt.Sprintf("GainLevel(%d)", int(g))
	}
}

// Receiver is an optical receiver model.
type Receiver struct {
	// Name for traces ("pd-g1", "rx-led", ...).
	Name string
	// Sensitivity relative to PD@G1 (Fig. 11 right column).
	Sensitivity float64
	// SaturationLux is the incident level at which the output rails
	// (Fig. 11 left column).
	SaturationLux float64
	// FoVHalfAngleDeg is the optical acceptance half-angle. The
	// RX-LED's narrow FoV and the PD cap enter the channel through
	// this value.
	FoVHalfAngleDeg float64
	// ResponseHz is the receiver's -3 dB bandwidth; it bounds the
	// maximal supported object speed (Sec. 6, future work (3)).
	ResponseHz float64
	// DarkNoiseCounts is the RMS electronic noise at the ADC input in
	// counts (post-sensitivity, so low-sensitivity receivers lose
	// weak signals into it).
	DarkNoiseCounts float64
}

// Standard receivers.

// PD returns the OPT101 photodiode model at the given gain level.
func PD(g GainLevel) Receiver {
	r := Receiver{Name: "pd-" + g.String(), FoVHalfAngleDeg: 40, ResponseHz: 10000, DarkNoiseCounts: 0.8}
	switch g {
	case G1:
		r.Sensitivity, r.SaturationLux = 1.0, 450
	case G2:
		r.Sensitivity, r.SaturationLux = 0.45, 1200
	case G3:
		r.Sensitivity, r.SaturationLux = 0.089, 5000
	default:
		r.Sensitivity, r.SaturationLux = 1.0, 450
	}
	return r
}

// RXLED returns the LED-as-receiver model: photovoltaic mode, narrow
// FoV and optical bandwidth, low sensitivity, high saturation.
func RXLED() Receiver {
	return Receiver{
		Name:            "rx-led",
		Sensitivity:     0.013,
		SaturationLux:   35000,
		FoVHalfAngleDeg: 4,
		ResponseHz:      4000,
		DarkNoiseCounts: 0.6,
	}
}

// WithCap returns the receiver with the paper's physical cap
// (1.2x1.2x2.8 cm) mounted: the FoV narrows to ~10 degrees and the
// collected light drops (modeled as a sensitivity penalty), which is
// the Fig. 16(b) configuration.
func (r Receiver) WithCap() Receiver {
	out := r
	out.Name = r.Name + "+cap"
	out.FoVHalfAngleDeg = 10
	out.Sensitivity = r.Sensitivity * 0.6
	return out
}

// ByName resolves a receiver device from its canonical name
// ("pd-G1", "pd-G2+cap", "rx-led"; case-insensitive, and the legacy
// spellings "pd-g2-cap" / "led" are accepted). It is the registry the
// declarative scenario layer uses, so a spec can select hardware as
// data.
func ByName(name string) (Receiver, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	cap := false
	for _, suffix := range []string{"+cap", "-cap"} {
		if strings.HasSuffix(n, suffix) {
			cap = true
			n = strings.TrimSuffix(n, suffix)
		}
	}
	var r Receiver
	switch n {
	case "pd-g1", "pd1":
		r = PD(G1)
	case "pd-g2", "pd2":
		r = PD(G2)
	case "pd-g3", "pd3":
		r = PD(G3)
	case "rx-led", "led":
		r = RXLED()
	default:
		return Receiver{}, fmt.Errorf("frontend: unknown receiver %q (want pd-g1 | pd-g2 | pd-g3 | rx-led, optionally +cap)", name)
	}
	if cap {
		r = r.WithCap()
	}
	return r, nil
}

// Validate checks the model parameters.
func (r Receiver) Validate() error {
	if r.Sensitivity <= 0 {
		return errors.New("frontend: sensitivity must be positive")
	}
	if r.SaturationLux <= 0 {
		return errors.New("frontend: saturation must be positive")
	}
	if r.FoVHalfAngleDeg <= 0 || r.FoVHalfAngleDeg >= 90 {
		return errors.New("frontend: FoV half-angle must be in (0, 90)")
	}
	return nil
}

// ADC models the MCP3008: 10-bit successive approximation.
type ADC struct {
	// Bits of resolution (default 10).
	Bits int
	// FullScaleCounts derived from Bits.
}

// FullScale returns the maximum output code.
func (a ADC) FullScale() float64 {
	bits := a.Bits
	if bits <= 0 {
		bits = 10
	}
	return float64((int(1) << uint(bits)) - 1)
}

// CountsPerLux is the overall conversion gain from incident lux
// (times sensitivity) to ADC counts, calibrated so each receiver's
// saturation point from Fig. 11 lands at the ADC full scale:
// 1023 counts / (450 lux * sensitivity 1.0) ~= 2.27 for the PD at G1.
const CountsPerLux = 1023.0 / 470.0

// Chain is the complete analog front end + digitizer.
type Chain struct {
	Receiver Receiver
	ADC      ADC
	// Fs is the sampling rate in Hz (2000 in the outdoor runs).
	Fs float64
	// Seed drives the electronic-noise PRNG.
	Seed int64
	// DisableNoise turns off dark noise (for ideal-channel tests).
	DisableNoise bool
}

// NewChain builds a chain with the standard ADC.
func NewChain(r Receiver, fs float64, seed int64) (*Chain, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if fs <= 0 {
		return nil, errors.New("frontend: sampling rate must be positive")
	}
	return &Chain{Receiver: r, ADC: ADC{Bits: 10}, Fs: fs, Seed: seed}, nil
}

// Digitize converts an incident-lux series (already sampled at Fs)
// into ADC counts: response-time low-pass, sensitivity scaling,
// electronic noise, saturation clipping, quantization. The counts are
// written over incidentLux, which is returned: callers own the buffer
// and drop the light series once it is digitized.
func (c *Chain) Digitize(incidentLux []float64) []float64 {
	// The noise source is seeded only when the loop draws from it.
	var rng *rand.Rand
	noisy := !c.DisableNoise && c.Receiver.DarkNoiseCounts > 0
	if noisy {
		rng = rand.New(rand.NewSource(c.Seed))
	}
	fullScale := c.ADC.FullScale()
	// Response-time low-pass (first order RC at the receiver's -3dB
	// point). A 2 kS/s ADC behind a 4-10 kHz receiver barely filters,
	// but slow receivers attenuate fast packets (max-speed study).
	alpha := 1.0
	if c.Receiver.ResponseHz > 0 {
		rc := 1 / (2 * math.Pi * c.Receiver.ResponseHz)
		dt := 1 / c.Fs
		alpha = dt / (rc + dt)
	}
	state := 0.0
	init := false
	satCounts := c.Receiver.SaturationLux * c.Receiver.Sensitivity * CountsPerLux
	if satCounts > fullScale {
		satCounts = fullScale
	}
	for i, lux := range incidentLux {
		if !init {
			state = lux
			init = true
		} else {
			state += alpha * (lux - state)
		}
		counts := state * c.Receiver.Sensitivity * CountsPerLux
		if noisy {
			counts += rng.NormFloat64() * c.Receiver.DarkNoiseCounts
		}
		if counts < 0 {
			counts = 0
		}
		if counts > satCounts {
			counts = satCounts
		}
		incidentLux[i] = math.Round(counts)
	}
	return incidentLux
}

// Saturated reports whether an ambient level of lux would rail the
// receiver (within 2% of its saturation input).
func (r Receiver) Saturated(lux float64) bool {
	return lux >= 0.98*r.SaturationLux
}

// ErrSaturated means every candidate receiver rails at the given
// ambient level; test with errors.Is.
var ErrSaturated = errors.New("frontend: all receivers saturate")

// SelectReceiver implements the paper's dual-receiver policy
// (Sec. 4.4): given the ambient noise floor, prefer the most
// sensitive receiver that does not saturate; candidates are tried in
// order. With no candidates, the four Fig. 11 devices are used. When
// every candidate saturates the error wraps ErrSaturated.
func SelectReceiver(noiseFloorLux float64, candidates ...Receiver) (Receiver, error) {
	if len(candidates) == 0 {
		candidates = []Receiver{PD(G1), PD(G2), PD(G3), RXLED()}
	}
	best := Receiver{}
	found := false
	for _, c := range candidates {
		if c.Saturated(noiseFloorLux) {
			continue
		}
		if !found || c.Sensitivity > best.Sensitivity {
			best, found = c, true
		}
	}
	if !found {
		return Receiver{}, fmt.Errorf("%w at %.0f lux", ErrSaturated, noiseFloorLux)
	}
	return best, nil
}
