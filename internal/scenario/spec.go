// Package scenario is the declarative world layer of the simulator:
// one JSON-serializable Spec describes a complete passive-light
// scenario — ambient optics, receiver placement and electronics,
// noise/weather profile, and mobile objects with mobility models —
// and compiles into a renderable core.Link. Every construction site
// in the repository (experiment drivers, simulated pipeline sources,
// cmd/plsim) builds worlds through this layer, so a new workload is a
// spec or a registry preset, not a new file of scene-assembly glue.
//
// The package has three surfaces:
//
//   - Spec / Compile: the declarative core. A Spec is plain data
//     (marshals to JSON and back losslessly), Compile turns it into a
//     *core.Link plus the packets physically encoded on its tags.
//   - Params builders (BenchParams, OutdoorParams, CollisionParams):
//     typed convenience front ends that mirror the paper's three
//     experiment families and compute the same geometry (start
//     positions, simulation windows) the original hand-assembled
//     setups used, bit for bit.
//   - The preset registry (Get, Entries, Register): named, ready-made
//     specs — the paper's worlds plus new multi-object workloads.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"passivelight/internal/channel"
	"passivelight/internal/coding"
	"passivelight/internal/core"
	"passivelight/internal/frontend"
	"passivelight/internal/noise"
	"passivelight/internal/optics"
	"passivelight/internal/scene"
	"passivelight/internal/tag"
	"passivelight/internal/trace"
)

// Spec is a complete declarative scenario. The zero value of every
// optional field selects a sensible default; a Spec round-trips
// through JSON without losing information. The one exception are
// specs carrying programmatic escape hatches — a custom Trajectory,
// receiver model or car model injected by the typed params builders —
// which cannot be expressed as data: they keep a "custom" kind/name
// marker in the JSON, so a lossily reloaded spec fails Compile loudly
// instead of silently substituting defaults.
type Spec struct {
	// Name labels the scenario (registry key for presets).
	Name string `json:"name,omitempty"`
	// Description is a one-line summary for -list output.
	Description string `json:"description,omitempty"`
	// Seed drives every deterministic noise stream (front-end
	// electronics and the channel noise model, unless Noise.Seed
	// overrides the latter).
	Seed int64 `json:"seed,omitempty"`
	// T0Sec is the simulation start time (s); tags and rippling
	// sources are time-anchored, so a dynamic-tag pass at T0=61 s can
	// read a different frame than one at T0=1 s.
	T0Sec float64 `json:"t0_sec,omitempty"`
	// DurationSec is the simulated window length. Zero derives it
	// from the objects' pass windows (time for every object to cross
	// the receiver FoV, padded).
	DurationSec float64 `json:"duration_sec,omitempty"`
	// Optics is the ambient light source powering the channel.
	Optics OpticsSpec `json:"optics"`
	// Receiver is the receiver placement, optics and sampling — the
	// common single-receiver form, sugar for a one-element Receivers
	// list.
	Receiver ReceiverSpec `json:"receiver,omitempty"`
	// Receivers is the multi-receiver form of the paper's Sec. 4.4
	// deployment story: one deterministic core.Link per entry is
	// compiled over the same shared world by CompileMulti
	// (heterogeneous devices, placements, and per-receiver noise/seed
	// overrides). Setting both Receiver and Receivers is an error;
	// Compile requires exactly one receiver, CompileMulti accepts any
	// count.
	Receivers []ReceiverSpec `json:"receivers,omitempty"`
	// Noise is the stochastic impairment profile (plus optional fog).
	Noise NoiseSpec `json:"noise,omitempty"`
	// Objects are the mobile reflective elements, in scene order
	// (order matters for lateral-share blending, exactly as in
	// scene.SampleAt).
	Objects []ObjectSpec `json:"objects"`
	// Decode hints how the scenario is meant to be decoded
	// (strategy + expected symbol count); consumers like the e2e
	// tests and example pipelines read it, Compile ignores it.
	Decode DecodeSpec `json:"decode,omitempty"`
}

// OpticsSpec selects and configures the ambient light source.
type OpticsSpec struct {
	// Kind: "point-lamp" | "ceiling-light" | "sun".
	Kind string `json:"kind"`
	// X is the lamp's horizontal position (point-lamp only).
	X float64 `json:"x,omitempty"`
	// HeightM is the lamp height above the ground (point-lamp only).
	HeightM float64 `json:"height_m,omitempty"`
	// Lux is the characteristic illuminance: directly under a point
	// lamp at RefHeightM, or the uniform work-plane/ground level for
	// ceiling lights and the sun.
	Lux float64 `json:"lux,omitempty"`
	// RefHeightM is the calibration height of a point lamp's Lux
	// (the lamp's luminous intensity is Lux*RefHeightM^2, so raising
	// the lamp dims the plane by 1/h^2). Zero selects HeightM.
	RefHeightM float64 `json:"ref_height_m,omitempty"`
	// LambertOrder shapes the point lamp beam (cos^m falloff).
	LambertOrder float64 `json:"lambert_order,omitempty"`
	// RippleDepth / MainsHz / Harmonics / PhaseRad configure the AC
	// ripple of a ceiling light.
	RippleDepth float64   `json:"ripple_depth,omitempty"`
	MainsHz     float64   `json:"mains_hz,omitempty"`
	Harmonics   []float64 `json:"harmonics,omitempty"`
	PhaseRad    float64   `json:"phase_rad,omitempty"`
	// DriftAmp / DriftPeriodSec configure the sun's slow ambient ramp
	// (clouds; the weather-sweep preset).
	DriftAmp       float64 `json:"drift_amp,omitempty"`
	DriftPeriodSec float64 `json:"drift_period_sec,omitempty"`
}

// LampOptics builds a point-lamp optics spec calibrated to deliver
// lux directly underneath at refHeight.
func LampOptics(x, height, lux, refHeight, lambertOrder float64) OpticsSpec {
	return OpticsSpec{Kind: "point-lamp", X: x, HeightM: height, Lux: lux, RefHeightM: refHeight, LambertOrder: lambertOrder}
}

// CeilingOptics builds a mains-powered ceiling-light optics spec.
func CeilingOptics(lux, rippleDepth, mainsHz float64, harmonics []float64) OpticsSpec {
	return OpticsSpec{Kind: "ceiling-light", Lux: lux, RippleDepth: rippleDepth, MainsHz: mainsHz, Harmonics: harmonics}
}

// SunOptics builds a daylight optics spec; driftAmp > 0 adds a slow
// ambient ramp of that relative amplitude over driftPeriod seconds.
func SunOptics(lux, driftAmp, driftPeriodSec float64) OpticsSpec {
	return OpticsSpec{Kind: "sun", Lux: lux, DriftAmp: driftAmp, DriftPeriodSec: driftPeriodSec}
}

// source compiles the optics spec.
func (o OpticsSpec) source() (optics.Source, error) {
	switch o.Kind {
	case "point-lamp":
		if o.HeightM <= 0 {
			return nil, errors.New("scenario: point-lamp height_m must be positive")
		}
		ref := o.RefHeightM
		if ref == 0 {
			ref = o.HeightM
		}
		return optics.PointLamp{
			X:            o.X,
			Height:       o.HeightM,
			Intensity:    o.Lux * ref * ref,
			LambertOrder: o.LambertOrder,
		}, nil
	case "ceiling-light":
		return optics.CeilingLight{
			Lux:         o.Lux,
			RippleDepth: o.RippleDepth,
			MainsHz:     o.MainsHz,
			Harmonics:   o.Harmonics,
			Phase:       o.PhaseRad,
		}, nil
	case "sun":
		return optics.Sun{Lux: o.Lux, SlowDriftAmp: o.DriftAmp, DriftPeriod: o.DriftPeriodSec}, nil
	case "":
		return nil, errors.New("scenario: optics kind required (point-lamp | ceiling-light | sun)")
	default:
		return nil, fmt.Errorf("scenario: unknown optics kind %q", o.Kind)
	}
}

// AmbientLux reports the ambient level a receiver-selection policy
// should plan for, and whether the spec defines one (uniform sources
// only; a focused point lamp is not an ambient noise floor).
func (o OpticsSpec) AmbientLux() (float64, bool) {
	switch o.Kind {
	case "ceiling-light", "sun":
		return o.Lux, true
	}
	return 0, false
}

// ReceiverSpec places and configures the receiver.
type ReceiverSpec struct {
	// Name labels the receiver in multi-receiver scenarios (stream
	// attribution, diagnostics). Empty derives "rx<i>-<device>".
	Name string `json:"name,omitempty"`
	// Device selects the front-end model by name: "pd-g1" | "pd-g2" |
	// "pd-g3" | "rx-led", optionally with a "+cap" suffix. Empty
	// selects the PD at G1.
	Device string `json:"device,omitempty"`
	// X is the horizontal receiver position (m).
	X float64 `json:"x,omitempty"`
	// HeightM above the ground/roof plane (m).
	HeightM float64 `json:"height_m"`
	// FoVDeg is the optical half-angle of the link geometry. Zero
	// adopts the device's own optics (the outdoor configuration);
	// indoor benches focus tighter than the bare device and set it
	// explicitly.
	FoVDeg float64 `json:"fov_deg,omitempty"`
	// Fs is the ADC sampling rate (Hz). Zero selects 1000.
	Fs float64 `json:"fs,omitempty"`
	// Seed overrides this receiver's deterministic seed (front-end
	// electronics and, unless the noise spec overrides it again, the
	// channel noise). Nil derives spec seed + receiver index, so
	// receiver 0 reproduces the single-receiver compile exactly and
	// every further receiver gets independent streams.
	Seed *int64 `json:"seed,omitempty"`
	// Noise overrides the spec-level noise/weather profile for this
	// receiver's link (e.g. one lane in fog, one clear).
	Noise *NoiseSpec `json:"noise,omitempty"`

	// custom carries a programmatic receiver model that has no
	// registry name (escape hatch for the typed params builders);
	// not expressible in JSON.
	custom *frontend.Receiver
}

// CustomReceiverSpec wraps an arbitrary receiver model in a spec;
// the result is programmatic-only. The Device field is set to the
// "custom" marker so a JSON round-trip (which drops the model) fails
// Compile loudly instead of silently selecting a default device.
func CustomReceiverSpec(dev frontend.Receiver, x, height, fovDeg, fs float64) ReceiverSpec {
	return ReceiverSpec{Device: "custom", X: x, HeightM: height, FoVDeg: fovDeg, Fs: fs, custom: &dev}
}

// device resolves the front-end model.
func (r ReceiverSpec) device() (frontend.Receiver, error) {
	if r.custom != nil {
		return *r.custom, nil
	}
	name := r.Device
	if name == "custom" {
		return frontend.Receiver{}, errors.New("scenario: receiver device \"custom\" lost its model (a custom receiver cannot round-trip through JSON)")
	}
	if name == "" {
		name = "pd-g1"
	}
	return frontend.ByName(name)
}

// NoiseSpec selects the stochastic impairment profile.
type NoiseSpec struct {
	// Profile: "indoor" (default) | "outdoor" | "quiet" | "custom".
	Profile string `json:"profile,omitempty"`
	// Custom profile fields (used when Profile == "custom").
	Shot      float64 `json:"shot,omitempty"`
	Thermal   float64 `json:"thermal,omitempty"`
	Drift     float64 `json:"drift,omitempty"`
	GlintProb float64 `json:"glint_prob,omitempty"`
	GlintAmp  float64 `json:"glint_amp,omitempty"`
	// Seed overrides the spec-level seed for the channel noise stream
	// only (the front end keeps the spec seed) — used by sweeps that
	// re-noise one rendered world with fresh streams.
	Seed *int64 `json:"seed,omitempty"`
	// Fog, if set, inserts a fog stage between the rendered channel
	// and the noise (Sec. 3 weather distortion).
	Fog *FogSpec `json:"fog,omitempty"`
}

// FogSpec configures the fog stage.
type FogSpec struct {
	// Density in [0, 1): the share of reflected light scattered out
	// of the path (Transmission = 1 - Density).
	Density float64 `json:"density"`
	// ScatterLux is the veil level replacing the scattered light.
	ScatterLux float64 `json:"scatter_lux,omitempty"`
}

// CustomNoise builds a "custom" NoiseSpec from an explicit model.
// The model's own seed is preserved via the per-stream override.
func CustomNoise(m noise.Model) NoiseSpec {
	seed := m.Seed
	return NoiseSpec{
		Profile: "custom",
		Shot:    m.ShotCoeff, Thermal: m.ThermalSigma, Drift: m.DriftSigma,
		GlintProb: m.GlintProb, GlintAmp: m.GlintAmp,
		Seed: &seed,
	}
}

// model compiles the noise spec.
func (n NoiseSpec) model(defaultSeed int64) (noise.Model, error) {
	seed := defaultSeed
	if n.Seed != nil {
		seed = *n.Seed
	}
	switch n.Profile {
	case "", "indoor":
		return noise.Indoor(seed), nil
	case "outdoor":
		return noise.Outdoor(seed), nil
	case "quiet":
		return noise.Model{Seed: seed}, nil
	case "custom":
		return noise.Model{
			ShotCoeff: n.Shot, ThermalSigma: n.Thermal, DriftSigma: n.Drift,
			GlintProb: n.GlintProb, GlintAmp: n.GlintAmp, Seed: seed,
		}, nil
	default:
		return noise.Model{}, fmt.Errorf("scenario: unknown noise profile %q", n.Profile)
	}
}

// ObjectSpec is one mobile element of the scenario.
type ObjectSpec struct {
	// Kind: "tag" | "car" | "tagged-car" | "dynamic-tag".
	Kind string `json:"kind"`
	// Name labels the object (defaults per kind).
	Name string `json:"name,omitempty"`
	// Payload is the bit string physically encoded on the tag (tag /
	// tagged-car); empty with Kind "car" means a bare car.
	Payload string `json:"payload,omitempty"`
	// Symbols overrides Payload with a raw stripe sequence such as
	// "HLHLHLLH" — non-Manchester patterns (NRZ ablations) that have
	// no packet interpretation.
	Symbols string `json:"symbols,omitempty"`
	// SymbolWidthM is the stripe width (m).
	SymbolWidthM float64 `json:"symbol_width_m,omitempty"`
	// Dirt is the dirt coverage on the tag stripes in [0, 1)
	// (distortion studies).
	Dirt float64 `json:"dirt,omitempty"`
	// Car names the car model ("volvo-v40" | "bmw-3") for car kinds.
	Car string `json:"car,omitempty"`
	// LateralShare in (0, 1] is the fraction of the receiver FoV the
	// object covers laterally; zero selects the car model's width
	// share, or 1 for plain tags.
	LateralShare float64 `json:"lateral_share,omitempty"`
	// Frames are the cycled payloads of a dynamic tag.
	Frames []string `json:"frames,omitempty"`
	// FramePeriodSec is how long each dynamic frame is displayed.
	FramePeriodSec float64 `json:"frame_period_sec,omitempty"`
	// Mobility drives the object across the FoV.
	Mobility MobilitySpec `json:"mobility"`

	// carModel carries a programmatic car model with no registry
	// name (escape hatch; not expressible in JSON).
	carModel *scene.CarModel
}

// MobilitySpec is a declarative trajectory.
type MobilitySpec struct {
	// Kind: "constant" (default) | "piecewise" | "stop-and-go".
	Kind string `json:"kind,omitempty"`
	// StartM is the leading-edge position at t=0 (m).
	StartM float64 `json:"start_m,omitempty"`
	// SpeedMS is the cruise speed (m/s); SpeedKmh is an alternative
	// spelling (used when SpeedMS is zero).
	SpeedMS  float64 `json:"speed_ms,omitempty"`
	SpeedKmh float64 `json:"speed_kmh,omitempty"`
	// DelaySec staggers the whole trajectory: the object holds its
	// start position this long before moving (lane offsets in
	// multi-lane scenarios).
	DelaySec float64 `json:"delay_sec,omitempty"`
	// Segments define a piecewise-constant speed profile (Kind
	// "piecewise"). UntilSec <= 0 on the last segment means "forever".
	Segments []SpeedSegmentSpec `json:"segments,omitempty"`
	// Stops define stop-and-go traffic (Kind "stop-and-go").
	Stops []StopSpec `json:"stops,omitempty"`

	// custom carries a programmatic trajectory (escape hatch; not
	// expressible in JSON).
	custom scene.Trajectory
}

// SpeedSegmentSpec is one piecewise-speed segment.
type SpeedSegmentSpec struct {
	// UntilSec bounds the segment (trajectory clock); <= 0 means
	// +Inf and is only valid on the last segment.
	UntilSec float64 `json:"until_sec,omitempty"`
	SpeedMS  float64 `json:"speed_ms"`
}

// StopSpec is one dwell of a stop-and-go trajectory.
type StopSpec struct {
	AtSec    float64 `json:"at_sec"`
	DwellSec float64 `json:"dwell_sec"`
}

// CustomMobility wraps a programmatic trajectory in a spec (escape
// hatch for trajectories that are not piecewise-constant; does not
// survive JSON).
func CustomMobility(t scene.Trajectory) MobilitySpec {
	return MobilitySpec{Kind: "custom", custom: t}
}

// ConstantMobility is a constant-speed pass from start.
func ConstantMobility(startM, speedMS float64) MobilitySpec {
	return MobilitySpec{Kind: "constant", StartM: startM, SpeedMS: speedMS}
}

// PiecewiseMobility converts a scene.PiecewiseSpeed into its
// declarative form (infinite segment bounds become the <= 0 marker).
func PiecewiseMobility(p scene.PiecewiseSpeed) MobilitySpec {
	m := MobilitySpec{Kind: "piecewise", StartM: p.Start}
	for _, s := range p.Segments {
		seg := SpeedSegmentSpec{UntilSec: s.Until, SpeedMS: s.Speed}
		if math.IsInf(s.Until, 1) {
			seg.UntilSec = 0
		}
		m.Segments = append(m.Segments, seg)
	}
	return m
}

// MobilityFromTrajectory converts a known trajectory type into its
// declarative form; unknown types are wrapped as programmatic-only
// custom mobility.
func MobilityFromTrajectory(t scene.Trajectory) MobilitySpec {
	switch tr := t.(type) {
	case scene.ConstantSpeed:
		return ConstantMobility(tr.Start, tr.Speed)
	case scene.PiecewiseSpeed:
		return PiecewiseMobility(tr)
	case scene.LaneOffset:
		inner := MobilityFromTrajectory(tr.Inner)
		if inner.custom == nil && inner.DelaySec == 0 {
			inner.DelaySec = tr.Delay
			return inner
		}
	}
	return CustomMobility(t)
}

// speed resolves the cruise speed.
func (m MobilitySpec) speed() float64 {
	if m.SpeedMS != 0 {
		return m.SpeedMS
	}
	return scene.KmhToMs(m.SpeedKmh)
}

// trajectory compiles the mobility spec.
func (m MobilitySpec) trajectory() (scene.Trajectory, error) {
	var base scene.Trajectory
	switch m.Kind {
	case "custom":
		if m.custom == nil {
			return nil, errors.New("scenario: custom mobility lost its trajectory (a custom mobility cannot round-trip through JSON)")
		}
		base = m.custom
	case "", "constant":
		base = scene.ConstantSpeed{Start: m.StartM, Speed: m.speed()}
	case "piecewise":
		segs := make([]scene.SpeedSegment, len(m.Segments))
		for i, s := range m.Segments {
			until := s.UntilSec
			if until <= 0 {
				until = math.Inf(1)
			}
			segs[i] = scene.SpeedSegment{Until: until, Speed: s.SpeedMS}
		}
		ps, err := scene.NewPiecewiseSpeed(m.StartM, segs)
		if err != nil {
			return nil, err
		}
		base = ps
	case "stop-and-go":
		stops := make([]scene.Stop, len(m.Stops))
		for i, s := range m.Stops {
			stops[i] = scene.Stop{At: s.AtSec, Dwell: s.DwellSec}
		}
		sg, err := scene.StopAndGo(m.StartM, m.speed(), stops)
		if err != nil {
			return nil, err
		}
		base = sg
	default:
		return nil, fmt.Errorf("scenario: unknown mobility kind %q", m.Kind)
	}
	if m.DelaySec > 0 {
		base = scene.LaneOffset{Inner: base, Delay: m.DelaySec}
	}
	return base, nil
}

// DecodeSpec hints how a scenario's trace is meant to be decoded.
type DecodeSpec struct {
	// Strategy: "threshold" | "two-phase" | "collision" | "shape" |
	// "dtw" (distorted waveform, classify against clean baselines) |
	// "none".
	Strategy string `json:"strategy,omitempty"`
	// ExpectedSymbols bounds the per-packet symbol slice (preamble +
	// data); zero lets the decoder run to segment end.
	ExpectedSymbols int `json:"expected_symbols,omitempty"`
}

// TagPacket records the packet physically encoded on one scenario
// object.
type TagPacket struct {
	// Object is the carrying object's name.
	Object string
	// Packet is the logical payload.
	Packet coding.Packet
}

// Compiled is a scenario compiled to a renderable link.
type Compiled struct {
	// Spec is the source spec (after compilation defaults).
	Spec Spec
	// Link is the assembled world, ready to Simulate.
	Link *core.Link
	// Packets are the payloads physically present in the scene, in
	// object order (bare cars and raw-symbol tags contribute none).
	Packets []TagPacket
}

// Packet returns the first encoded packet (the zero Packet when the
// scenario carries none) — the common single-tag case.
func (c *Compiled) Packet() coding.Packet {
	if len(c.Packets) == 0 {
		return coding.Packet{}
	}
	return c.Packets[0].Packet
}

// CompiledLink is one receiver's view of a compiled multi-receiver
// scenario: its own core.Link (private front end, noise streams and
// geometry) over the shared world scene.
type CompiledLink struct {
	// Index is the receiver's position in the effective receiver list.
	Index int
	// StreamID is the stable per-receiver stream id — StreamID(0,
	// Index) for a plain compile; load generators re-key it with their
	// session index so detections attribute back to both.
	StreamID uint64
	// Name labels the receiver (ReceiverSpec.Name, or
	// "rx<i>-<device>").
	Name string
	// Receiver is the source spec entry.
	Receiver ReceiverSpec
	// Link is the assembled per-receiver world, ready to Simulate.
	Link *core.Link
}

// MultiCompiled is a scenario compiled to one link per receiver over
// a single shared world: every link references the same scene (same
// objects, same trajectories, same light source), so the N receivers
// observe one physical scene exactly as a deployed receiver network
// would.
type MultiCompiled struct {
	// Spec is the source spec (after compilation defaults).
	Spec Spec
	// Links are the per-receiver links, in receiver order.
	Links []CompiledLink
	// Packets are the payloads physically present in the shared
	// scene, in object order.
	Packets []TagPacket
}

// StreamID composes the stable stream id of (session, receiver):
// session in the high 32 bits, receiver index in the low 32 — the
// same keying rxnet uses for (node, stream), so a fleet-load session
// maps onto a synthetic node without translation.
func StreamID(session, receiver int) uint64 {
	return uint64(uint32(session))<<32 | uint64(uint32(receiver))
}

// receiversList resolves the effective receiver list: Receivers when
// set (the multi-receiver form), else the single Receiver field as a
// one-element list.
func (s Spec) receiversList() ([]ReceiverSpec, error) {
	if len(s.Receivers) == 0 {
		return []ReceiverSpec{s.Receiver}, nil
	}
	if s.Receiver != (ReceiverSpec{}) {
		return nil, errors.New("scenario: set receiver or receivers, not both")
	}
	return s.Receivers, nil
}

// Compile assembles the scenario into a link. It is deterministic:
// the same spec compiles to an identical world every time. Specs with
// a Receivers list must use CompileMulti.
func (s Spec) Compile() (*Compiled, error) {
	m, err := s.CompileMulti()
	if err != nil {
		return nil, err
	}
	if len(m.Links) != 1 {
		return nil, fmt.Errorf("scenario: spec %q compiles to %d links; use CompileMulti", s.Name, len(m.Links))
	}
	return &Compiled{Spec: s, Link: m.Links[0].Link, Packets: m.Packets}, nil
}

// CompileMulti assembles the scenario into one deterministic link per
// receiver over a single shared world. Receiver 0 of a
// single-receiver spec compiles bit-identically to the historical
// Compile path; each further receiver gets an independent front-end
// and noise stream (spec seed + index, unless overridden per
// receiver) over the same scene.
func (s Spec) CompileMulti() (*MultiCompiled, error) {
	recs, err := s.receiversList()
	if err != nil {
		return nil, err
	}
	type resolved struct {
		dev  frontend.Receiver
		geom channel.Receiver
		fs   float64
	}
	res := make([]resolved, len(recs))
	for i, r := range recs {
		wrap := func(err error) error {
			if len(recs) == 1 {
				return err
			}
			return fmt.Errorf("scenario: receiver %d: %w", i, err)
		}
		dev, err := r.device()
		if err != nil {
			return nil, wrap(err)
		}
		if r.HeightM <= 0 {
			return nil, wrap(errors.New("scenario: receiver height must be positive"))
		}
		fs := r.Fs
		if fs == 0 {
			fs = 1000
		}
		fov := r.FoVDeg
		if fov == 0 {
			fov = dev.FoVHalfAngleDeg
		}
		res[i] = resolved{
			dev:  dev,
			geom: channel.Receiver{X: r.X, Height: r.HeightM, FoVHalfAngleDeg: fov},
			fs:   fs,
		}
	}

	src, err := s.Optics.source()
	if err != nil {
		return nil, err
	}

	if len(s.Objects) == 0 {
		return nil, errors.New("scenario: at least one object required")
	}
	objs := make([]*scene.Object, 0, len(s.Objects))
	var packets []TagPacket
	for i, os := range s.Objects {
		obj, pkt, err := os.build()
		if err != nil {
			return nil, fmt.Errorf("scenario: object %d: %w", i, err)
		}
		objs = append(objs, obj)
		if pkt != nil {
			packets = append(packets, TagPacket{Object: obj.Name, Packet: *pkt})
		}
	}
	if err := scene.LaneCompose(objs...); err != nil {
		return nil, err
	}
	sc := scene.New(src, objs...)

	// One shared simulation window: the duration either comes from
	// the spec or is derived so every object's pass clears every
	// receiver's footprint — all links render the same time span.
	dur := s.DurationSec
	if dur == 0 {
		for _, r := range res {
			d, err := autoDuration(objs, r.geom, s.T0Sec)
			if err != nil {
				return nil, err
			}
			if d > dur {
				dur = d
			}
		}
	}

	links := make([]CompiledLink, len(recs))
	for i, r := range recs {
		wrap := func(err error) error {
			if len(recs) == 1 {
				return err
			}
			return fmt.Errorf("scenario: receiver %d: %w", i, err)
		}
		seed := s.Seed + int64(i)
		if r.Seed != nil {
			seed = *r.Seed
		}
		ns := s.Noise
		if r.Noise != nil {
			ns = *r.Noise
		}
		fe, err := frontend.NewChain(res[i].dev, res[i].fs, seed)
		if err != nil {
			return nil, wrap(err)
		}
		nm, err := ns.model(seed)
		if err != nil {
			return nil, wrap(err)
		}
		var fog *noise.Fog
		if f := ns.Fog; f != nil {
			fog = &noise.Fog{Transmission: 1 - f.Density, ScatterLevel: f.ScatterLux}
		}
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("rx%d-%s", i, res[i].dev.Name)
		}
		links[i] = CompiledLink{
			Index:    i,
			StreamID: StreamID(0, i),
			Name:     name,
			Receiver: r,
			Link: &core.Link{
				Scene:    sc,
				Receiver: res[i].geom,
				Frontend: fe,
				Noise:    nm,
				Fog:      fog,
				T0:       s.T0Sec,
				Duration: dur,
			},
		}
	}
	return &MultiCompiled{Spec: s, Links: links, Packets: packets}, nil
}

// Simulate compiles the scenario and renders its trace — the one-call
// form of Compile().Link.Simulate().
func (s Spec) Simulate() (*Compiled, *trace.Trace, error) {
	c, err := s.Compile()
	if err != nil {
		return nil, nil, err
	}
	tr, err := c.Link.Simulate()
	if err != nil {
		return nil, nil, err
	}
	return c, tr, nil
}

// AmbientLux reports the ambient noise floor the scenario's optics
// define (false for focused lamps).
func (s Spec) AmbientLux() (float64, bool) { return s.Optics.AmbientLux() }

// SetReceiverDevice swaps the receiver device while keeping the
// placement and sampling — the hook a Sec. 4.4 receiver-selection
// policy uses. The link geometry follows the new device's optics.
func (s *Spec) SetReceiverDevice(dev frontend.Receiver) {
	s.Receiver = receiverSpecFromDevice(dev, s.Receiver.X, s.Receiver.HeightM, s.Receiver.Fs)
}

// autoDuration derives a simulation window that covers every object's
// pass through the receiver footprint (plus padding), scanning up to
// a bounded horizon.
func autoDuration(objs []*scene.Object, rx channel.Receiver, t0 float64) (float64, error) {
	const (
		maxT = 300.0
		step = 2e-3
		pad  = 0.75
	)
	var dur float64
	for _, o := range objs {
		_, t1, ok := channel.PassWindow(o, rx, maxT, step, pad)
		if !ok {
			return 0, fmt.Errorf("scenario: object %q never enters the receiver FoV within %.0f s; set duration_sec explicitly", o.Name, maxT)
		}
		if t1 > dur {
			dur = t1
		}
	}
	if dur <= t0 {
		return 0, errors.New("scenario: derived duration does not reach past t0; set duration_sec explicitly")
	}
	return dur - t0, nil
}

// build compiles one object spec.
func (o ObjectSpec) build() (*scene.Object, *coding.Packet, error) {
	traj, err := o.Mobility.trajectory()
	if err != nil {
		return nil, nil, err
	}
	switch o.Kind {
	case "tag":
		tg, pkt, err := o.buildTag()
		if err != nil {
			return nil, nil, err
		}
		share := o.LateralShare
		if share == 0 {
			share = 1.0
		}
		obj, err := scene.NewTagObject(defaultName(o.Name, "tag"), tg, traj, share)
		return obj, pkt, err
	case "car", "tagged-car":
		if o.Kind == "car" && (o.Payload != "" || o.Symbols != "" || o.Dirt > 0) {
			return nil, nil, errors.New(`a bare "car" ignores payload/symbols/dirt; use kind "tagged-car"`)
		}
		model, err := o.resolveCar()
		if err != nil {
			return nil, nil, err
		}
		var obj *scene.Object
		var pkt *coding.Packet
		if o.Kind == "car" || (o.Payload == "" && o.Symbols == "") {
			obj, err = scene.NewCarObject(model, traj)
		} else {
			var tg *tag.Tag
			tg, pkt, err = o.buildTag()
			if err != nil {
				return nil, nil, err
			}
			obj, err = scene.NewTaggedCarObject(model, tg, traj)
		}
		if err != nil {
			return nil, nil, err
		}
		if o.LateralShare != 0 {
			obj.LateralShare = o.LateralShare
		}
		if o.Name != "" {
			obj.Name = o.Name
		}
		return obj, pkt, nil
	case "dynamic-tag":
		if len(o.Frames) == 0 {
			return nil, nil, errors.New("dynamic-tag needs frames")
		}
		if o.Payload != "" || o.Symbols != "" || o.Dirt > 0 {
			return nil, nil, errors.New(`a "dynamic-tag" encodes its frames; payload/symbols/dirt are ignored fields`)
		}
		frames := make([]*tag.Tag, len(o.Frames))
		for i, payload := range o.Frames {
			pkt, err := coding.NewPacket(payload)
			if err != nil {
				return nil, nil, err
			}
			frames[i], err = tag.New(pkt, tag.Config{SymbolWidth: o.SymbolWidthM})
			if err != nil {
				return nil, nil, err
			}
		}
		dyn, err := tag.NewDynamic(frames, o.FramePeriodSec)
		if err != nil {
			return nil, nil, err
		}
		share := o.LateralShare
		if share == 0 {
			share = 1.0
		}
		obj, err := scene.NewDynamicTagObject(defaultName(o.Name, "dynamic-tag"), dyn, traj, share)
		return obj, nil, err
	case "":
		return nil, nil, errors.New("object kind required (tag | car | tagged-car | dynamic-tag)")
	default:
		return nil, nil, fmt.Errorf("unknown object kind %q", o.Kind)
	}
}

// buildTag constructs the object's physical tag; the returned packet
// is nil for raw-symbol tags (no logical payload).
func (o ObjectSpec) buildTag() (*tag.Tag, *coding.Packet, error) {
	var tg *tag.Tag
	var pkt *coding.Packet
	if o.Symbols != "" {
		symbols, err := ParseSymbols(o.Symbols)
		if err != nil {
			return nil, nil, err
		}
		tg, err = tag.NewFromSymbols(symbols, tag.Config{SymbolWidth: o.SymbolWidthM})
		if err != nil {
			return nil, nil, err
		}
	} else {
		p, err := coding.NewPacket(o.Payload)
		if err != nil {
			return nil, nil, err
		}
		tg, err = tag.New(p, tag.Config{SymbolWidth: o.SymbolWidthM})
		if err != nil {
			return nil, nil, err
		}
		pkt = &p
	}
	if o.Dirt > 0 {
		var err error
		tg, err = tg.WithDirt(o.Dirt)
		if err != nil {
			return nil, nil, err
		}
	}
	return tg, pkt, nil
}

// resolveCar maps the car name (or escape hatch) to a model. The
// "custom" marker without a model means the spec went through JSON
// and lost its programmatic car; fail loudly.
func (o ObjectSpec) resolveCar() (scene.CarModel, error) {
	if o.carModel != nil {
		return *o.carModel, nil
	}
	if o.Car == "custom" {
		return scene.CarModel{}, errors.New("car model \"custom\" lost its definition (a custom car cannot round-trip through JSON)")
	}
	return CarByName(o.Car)
}

// CarByName resolves a car model name ("volvo-v40" | "bmw-3", with
// the short aliases "volvo" and "bmw3"/"bmw").
func CarByName(name string) (scene.CarModel, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "volvo-v40", "volvo", "":
		return scene.VolvoV40(), nil
	case "bmw-3", "bmw3", "bmw":
		return scene.BMW3(), nil
	default:
		return scene.CarModel{}, fmt.Errorf("unknown car %q (want volvo | bmw3)", name)
	}
}

// TagLength returns the physical length of the tag a payload +
// symbol width would produce — the exact accumulated profile length,
// for drivers that size simulation windows declaratively.
func TagLength(payload string, symbolWidth float64) (float64, error) {
	pkt, err := coding.NewPacket(payload)
	if err != nil {
		return 0, err
	}
	tg, err := tag.New(pkt, tag.Config{SymbolWidth: symbolWidth})
	if err != nil {
		return 0, err
	}
	return tg.Length(), nil
}

// ParseSymbols parses a stripe string such as "HLHL.LHHL" ('.' and
// spaces are ignored) into symbols.
func ParseSymbols(s string) ([]coding.Symbol, error) {
	var out []coding.Symbol
	for i, c := range s {
		switch c {
		case 'H', 'h':
			out = append(out, coding.High)
		case 'L', 'l':
			out = append(out, coding.Low)
		case '.', ' ':
		default:
			return nil, fmt.Errorf("scenario: invalid symbol %q at position %d (want H or L)", c, i)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("scenario: empty symbol string")
	}
	return out, nil
}

// FormatSymbols renders symbols as an "HL..." string ParseSymbols
// accepts.
func FormatSymbols(symbols []coding.Symbol) string {
	var sb strings.Builder
	for _, s := range symbols {
		sb.WriteString(s.String())
	}
	return sb.String()
}

func defaultName(name, fallback string) string {
	if name != "" {
		return name
	}
	return fallback
}
