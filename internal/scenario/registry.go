package scenario

import (
	"fmt"
	"sort"
	"sync"

	"passivelight/internal/channel"
	"passivelight/internal/core"
	"passivelight/internal/frontend"
	"passivelight/internal/scene"
)

// Entry is one named scenario preset.
type Entry struct {
	// Name is the registry key (also what cmd/plsim -scenario takes).
	Name string
	// Description is a one-line summary for -list output.
	Description string

	build func() (Spec, error)
}

// Spec builds the preset's spec (a fresh value each call; callers may
// mutate it freely).
func (e Entry) Spec() (Spec, error) {
	spec, err := e.build()
	if err != nil {
		return Spec{}, err
	}
	spec.Name = e.Name
	if spec.Description == "" {
		spec.Description = e.Description
	}
	return spec, nil
}

var (
	regMu    sync.RWMutex
	registry []Entry
	regIndex = map[string]int{}

	// aliases map the legacy cmd/plsim scenario names onto presets.
	aliases = map[string]string{
		"indoor":  "indoor-bench",
		"outdoor": "outdoor-pass",
		"car":     "car-signature",
	}
)

// Register adds a named preset; the name must be unused.
func Register(name, description string, build func() (Spec, error)) error {
	if build == nil {
		return fmt.Errorf("scenario: preset %q registered with a nil builder", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regIndex[name]; dup {
		return fmt.Errorf("scenario: preset %q already registered", name)
	}
	regIndex[name] = len(registry)
	registry = append(registry, Entry{Name: name, Description: description, build: build})
	return nil
}

func mustRegister(name, description string, build func() (Spec, error)) {
	if err := Register(name, description, build); err != nil {
		panic(err)
	}
}

// Get builds the named preset's spec. Legacy aliases ("indoor",
// "outdoor", "car") resolve to their presets.
func Get(name string) (Spec, error) {
	regMu.RLock()
	if target, ok := aliases[name]; ok {
		name = target
	}
	i, ok := regIndex[name]
	var entry Entry
	if ok {
		entry = registry[i]
	}
	// Release before invoking the builder: user-supplied builders may
	// re-enter Get (a preset derived from another preset), and a
	// nested RLock can deadlock against a concurrent Register.
	regMu.RUnlock()
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown preset %q (run with -list to see the registry)", name)
	}
	return entry.Spec()
}

// Entries lists the registered presets sorted by name.
func Entries() []Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Entry, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func init() {
	mustRegister("indoor-bench",
		"paper Fig. 5 bench: one tag at 3 cm symbols under the dark-room lamp, 20 cm height",
		func() (Spec, error) {
			return BenchParams{Height: 0.20, SymbolWidth: 0.03, Speed: 0.08, Payload: "10", Seed: 1}.Spec()
		})
	mustRegister("outdoor-pass",
		"paper Sec. 5 pass: tagged Volvo V40 under the RX-LED pole at 6200 lux, 18 km/h",
		func() (Spec, error) {
			return OutdoorParams{Payload: "00", NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: 1}.Spec()
		})
	mustRegister("car-signature",
		"paper Sec. 5.1 baseline: bare Volvo V40, its optical signature as the long-duration preamble",
		func() (Spec, error) {
			return OutdoorParams{NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: 1}.Spec()
		})
	mustRegister("collision",
		"paper Sec. 4.3 Case 1: low-frequency packet dominates a simultaneous two-tag crossing (80/20 FoV split)",
		func() (Spec, error) {
			return CollisionParams{LowShare: 0.80, HighShare: 0.20, Seed: 20}.Spec()
		})
	mustRegister("multi-lane", multiLaneDescription, multiLaneSpec)
	mustRegister("tag-fleet", tagFleetDescription, tagFleetSpec)
	mustRegister("weather-sweep", weatherSweepDescription, weatherSweepSpec)
	mustRegister("rx-lanes", rxLanesDescription, rxLanesSpec)
	mustRegister("stop-and-go", stopAndGoDescription, stopAndGoSpec)
}

const multiLaneDescription = "two staggered tagged cars in adjacent lanes under one pole receiver; each decodes in turn"

// multiLaneSpec builds the multi-lane preset: two tagged cars in
// adjacent lanes (distinct lateral FoV shares), the second staggered
// by a lane offset so the shared receiver reads both packets in turn.
func multiLaneSpec() (Spec, error) {
	const (
		lux        = 6200.0
		heightM    = 0.75
		fs         = core.OutdoorFs
		stagger    = 6.0
		symbolW    = core.OutdoorSymbolWidth
		shareNear  = 0.60 // lane under the pole
		shareFar   = 0.40 // adjacent lane
		marginM    = 0.5
		leadInM    = 1.0
		speedKmh   = core.CarSpeedKmh
		nearCar    = "volvo-v40"
		farCar     = "bmw-3"
		nearPacket = "00"
		farPacket  = "10"
	)
	dev := frontend.RXLED()
	rx := channel.Receiver{X: 0, Height: heightM, FoVHalfAngleDeg: dev.FoVHalfAngleDeg}
	fp := rx.FootprintRadius()
	start := -(leadInM + fp)
	speed := scene.KmhToMs(speedKmh)
	lanes := []struct {
		car, payload string
		share, delay float64
	}{
		{nearCar, nearPacket, shareNear, 0},
		{farCar, farPacket, shareFar, stagger},
	}
	spec := Spec{
		Seed:     1,
		Optics:   SunOptics(lux, 0, 0),
		Receiver: ReceiverSpec{Device: dev.Name, HeightM: heightM, FoVDeg: dev.FoVHalfAngleDeg, Fs: fs},
		Noise:    NoiseSpec{Profile: "outdoor"},
		Decode:   DecodeSpec{Strategy: "two-phase", ExpectedSymbols: 8},
	}
	var dur float64
	for i, lane := range lanes {
		model, err := CarByName(lane.car)
		if err != nil {
			return Spec{}, err
		}
		mob := ConstantMobility(start, speed)
		mob.DelaySec = lane.delay
		spec.Objects = append(spec.Objects, ObjectSpec{
			Kind:         "tagged-car",
			Name:         fmt.Sprintf("lane%d-%s", i+1, lane.car),
			Car:          lane.car,
			Payload:      lane.payload,
			SymbolWidthM: symbolW,
			LateralShare: lane.share,
			Mobility:     mob,
		})
		if end := lane.delay + (model.Length()-start+fp+marginM)/speed; end > dur {
			dur = end
		}
	}
	spec.DurationSec = dur
	return spec, nil
}

const tagFleetDescription = "three staggered tags at distinct lateral shares crossing one indoor receiver (a trolley fleet at a checkpoint)"

// tagFleetSpec builds the tag-fleet preset: N plain tags at distinct
// lateral shares, staggered so each is read in turn by the same
// receiver — the indoor fleet/checkpoint workload.
func tagFleetSpec() (Spec, error) {
	const (
		heightM = 0.20
		speed   = 0.10
		symbolW = 0.03
		stagger = 8.0
		// A checkpoint reader is deliberately well lit: the brighter
		// lamp keeps even the narrowest lane share (~0.22 of the FoV)
		// above the online activity detector's margin.
		lampLux = 700.0
	)
	rx := channel.Receiver{X: 0, Height: heightM, FoVHalfAngleDeg: core.IndoorFoVDeg}
	fp := rx.FootprintRadius()
	start := -(fp + 0.15)
	payloads := []string{"00", "10", "01"}
	// Distinct descending lane shares splitting the full FoV, so the
	// fleet keeps a dominance ordering (~0.44/0.33/0.22).
	shares := scene.LaneShares(len(payloads), 1)
	spec := Spec{
		Seed:     1,
		Optics:   LampOptics(0.12, heightM, lampLux, core.IndoorRefHeight, 4),
		Receiver: ReceiverSpec{Device: "pd-G1", HeightM: heightM, FoVDeg: core.IndoorFoVDeg, Fs: 1000},
		Noise:    NoiseSpec{Profile: "indoor"},
		Decode:   DecodeSpec{Strategy: "threshold", ExpectedSymbols: 8},
	}
	var dur float64
	for i, payload := range payloads {
		mob := ConstantMobility(start, speed)
		mob.DelaySec = float64(i) * stagger
		obj := ObjectSpec{
			Kind:         "tag",
			Name:         fmt.Sprintf("fleet-tag-%d", i+1),
			Payload:      payload,
			SymbolWidthM: symbolW,
			LateralShare: shares[i],
			Mobility:     mob,
		}
		spec.Objects = append(spec.Objects, obj)
		tagLen, err := TagLength(payload, symbolW)
		if err != nil {
			return Spec{}, err
		}
		if end := mob.DelaySec + (-start+tagLen+fp+0.05)/speed; end > dur {
			dur = end
		}
	}
	spec.DurationSec = dur
	return spec, nil
}

const rxLanesDescription = "two staggered tagged lanes observed by two heterogeneous receivers on one gantry (compiles to 2 links)"

// rxLanesSpec builds the rx-lanes preset: the multi-lane world
// observed by two heterogeneous receivers sharing one gantry — the
// RX-LED pole of the paper's outdoor runs plus a lens-focused bare G3
// photodiode one quarter-meter higher. It is the declarative form of
// the Sec. 4.4 receiver-network deployment: one scene, N links, one
// multi-session pipeline, detections attributed per receiver.
func rxLanesSpec() (Spec, error) {
	// The 6200-lux sky illuminates the scene; the receivers only see
	// the light the cars reflect, which stays well under the G3's
	// 5000-lux rail. The G3's wide 40-degree FoV is focused down to
	// the RX-LED's 4 degrees, as a lens tube would.
	const (
		lux      = 6200.0
		fs       = core.OutdoorFs
		stagger  = 6.0
		symbolW  = core.OutdoorSymbolWidth
		marginM  = 0.5
		leadInM  = 1.0
		speedKmh = core.CarSpeedKmh
	)
	led := frontend.RXLED()
	receivers := []ReceiverSpec{
		{Name: "pole-led", Device: led.Name, HeightM: 0.75, FoVDeg: led.FoVHalfAngleDeg, Fs: fs},
		{Name: "pole-pd", Device: "pd-G3", HeightM: 1.00, FoVDeg: led.FoVHalfAngleDeg, Fs: fs},
	}
	// The widest footprint among the receivers sizes lead-in and
	// window so the pass clears every link.
	var fp float64
	for _, r := range receivers {
		geom := channel.Receiver{X: r.X, Height: r.HeightM, FoVHalfAngleDeg: r.FoVDeg}
		if f := geom.FootprintRadius(); f > fp {
			fp = f
		}
	}
	start := -(leadInM + fp)
	speed := scene.KmhToMs(speedKmh)
	lanes := []struct {
		car, payload string
		share, delay float64
	}{
		{"volvo-v40", "00", 0.60, 0},
		{"bmw-3", "10", 0.40, stagger},
	}
	spec := Spec{
		Seed:      1,
		Optics:    SunOptics(lux, 0, 0),
		Receivers: receivers,
		Noise:     NoiseSpec{Profile: "outdoor"},
		Decode:    DecodeSpec{Strategy: "two-phase", ExpectedSymbols: 8},
	}
	var dur float64
	for i, lane := range lanes {
		model, err := CarByName(lane.car)
		if err != nil {
			return Spec{}, err
		}
		mob := ConstantMobility(start, speed)
		mob.DelaySec = lane.delay
		spec.Objects = append(spec.Objects, ObjectSpec{
			Kind:         "tagged-car",
			Name:         fmt.Sprintf("lane%d-%s", i+1, lane.car),
			Car:          lane.car,
			Payload:      lane.payload,
			SymbolWidthM: symbolW,
			LateralShare: lane.share,
			Mobility:     mob,
		})
		if end := lane.delay + (model.Length()-start+fp+marginM)/speed; end > dur {
			dur = end
		}
	}
	spec.DurationSec = dur
	return spec, nil
}

const stopAndGoDescription = "indoor '10' pass that dwells mid-packet (urban stop-and-go) — threshold decode breaks, DTW classifies"

// stopAndGoSpec builds the stop-and-go preset: the Fig. 5 bench tag
// halting for 1.2 s with half the packet under the receiver. The
// dwell stretches one symbol ~4x, which defeats the Sec. 4.1 fixed
// tau_t slicing the paper's plain decoder uses — the scenario is the
// registry's canonical DTW-fallback workload (Decode hint "dtw").
func stopAndGoSpec() (Spec, error) {
	b := BenchParams{Height: 0.20, SymbolWidth: 0.03, Speed: 0.08, Payload: "10", Seed: 1}
	spec, err := b.Spec()
	if err != nil {
		return Spec{}, err
	}
	const dwell = 1.2
	mob := spec.Objects[0].Mobility
	tagLen, err := TagLength(b.Payload, b.SymbolWidth)
	if err != nil {
		return Spec{}, err
	}
	// Halt when the tag's midpoint crosses the receiver at x=0: the
	// leading edge has covered -start plus half the tag by then.
	atSec := (tagLen/2 - mob.StartM) / b.Speed
	spec.Name = "stop-and-go"
	spec.Objects[0].Mobility = MobilitySpec{
		Kind:    "stop-and-go",
		StartM:  mob.StartM,
		SpeedMS: b.Speed,
		Stops:   []StopSpec{{AtSec: atSec, DwellSec: dwell}},
	}
	spec.DurationSec += dwell
	spec.Decode = DecodeSpec{Strategy: "dtw", ExpectedSymbols: 8}
	return spec, nil
}

const weatherSweepDescription = "tagged car pass while clouds ramp the ambient level and light fog veils the path"

// weatherSweepSpec builds the weather-sweep preset: the outdoor pass
// under a drifting (cloud-ramped) sun with a light fog stage — the
// Sec. 3 weather distortions as one declarative world.
func weatherSweepSpec() (Spec, error) {
	spec, err := OutdoorParams{Payload: "00", NoiseFloorLux: 5500, ReceiverHeight: 0.75, Seed: 1}.Spec()
	if err != nil {
		return Spec{}, err
	}
	// Clouds ramp the ambient by ±25% over 8 s — roughly one full
	// swing across the ~1.2 s pass window plus lead-in — and a light
	// fog scatters 10% of the reflected signal into a veil.
	spec.Optics = SunOptics(5500, 0.25, 8)
	spec.Noise.Fog = &FogSpec{Density: 0.10, ScatterLux: 300}
	return spec, nil
}
