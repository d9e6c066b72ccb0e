package passivelight

import (
	"passivelight/internal/coding"
	"passivelight/internal/core"
	"passivelight/internal/decoder"
	"passivelight/internal/frontend"
	"passivelight/internal/scenario"
	"passivelight/internal/stream"
	"passivelight/internal/telemetry"
	"passivelight/internal/trace"
)

// Packet is a passive packet payload (preamble handling is implicit).
type Packet = coding.Packet

// Symbol is a reflective stripe value (High or Low).
type Symbol = coding.Symbol

// Stripe symbol values.
const (
	Low  = coding.Low
	High = coding.High
)

// Codebook selects payloads with a guaranteed minimum pairwise
// Hamming distance (Sec. 4.2 of the paper).
type Codebook = coding.Codebook

// NewCodebook builds a codebook of nBits-long words at the given
// minimum distance; maxWords <= 0 keeps all found words.
func NewCodebook(nBits, minDist, maxWords int) (*Codebook, error) {
	return coding.NewCodebook(nBits, minDist, maxWords)
}

// Link is a fully configured passive optical link (scene + receiver +
// front end).
type Link = core.Link

// Scenario is a declarative world: ambient optics, receiver
// placement, noise/weather profile and mobile objects with mobility
// models, compiled on demand into a renderable link. Build one by
// hand, load one from JSON, or take a preset from ScenarioPreset;
// feed it to a pipeline with NewScenarioSource.
type Scenario = scenario.Spec

// Scenario sub-specs, for building Scenario literals.
type (
	// ScenarioOptics selects the ambient light source.
	ScenarioOptics = scenario.OpticsSpec
	// ScenarioReceiver places the receiver and selects its device.
	ScenarioReceiver = scenario.ReceiverSpec
	// ScenarioNoise selects the impairment profile (plus fog).
	ScenarioNoise = scenario.NoiseSpec
	// ScenarioFog configures the fog stage.
	ScenarioFog = scenario.FogSpec
	// ScenarioObject is one mobile element.
	ScenarioObject = scenario.ObjectSpec
	// ScenarioMobility is a declarative trajectory.
	ScenarioMobility = scenario.MobilitySpec
	// ScenarioSpeedSegment is one piecewise-speed segment.
	ScenarioSpeedSegment = scenario.SpeedSegmentSpec
	// ScenarioStop is one dwell of a stop-and-go trajectory.
	ScenarioStop = scenario.StopSpec
	// ScenarioDecode hints the intended decode strategy.
	ScenarioDecode = scenario.DecodeSpec
	// ScenarioWorld is a compiled scenario (link + encoded packets).
	ScenarioWorld = scenario.Compiled
	// ScenarioPacket is one payload physically present in a scenario.
	ScenarioPacket = scenario.TagPacket
	// ScenarioEntry is one registry preset.
	ScenarioEntry = scenario.Entry
	// ScenarioMultiWorld is a scenario compiled to one link per
	// receiver over a single shared world (Scenario.CompileMulti).
	ScenarioMultiWorld = scenario.MultiCompiled
	// ScenarioLink is one receiver's link of a ScenarioMultiWorld.
	ScenarioLink = scenario.CompiledLink
	// ScenarioLoad is a declarative load spec: a base scenario fanned
	// out into N staggered, independently seeded sessions. Feed one to
	// a pipeline with NewLoadSource.
	ScenarioLoad = scenario.Load
	// ScenarioLoadEntry is one load-registry preset.
	ScenarioLoadEntry = scenario.LoadEntry
)

// ScenarioStreamID composes the stable stream id of (session,
// receiver) — the id MultiSource chunks and Pipeline events carry.
func ScenarioStreamID(session, receiver int) uint64 {
	return scenario.StreamID(session, receiver)
}

// ScenarioLoadPreset builds a named load preset from the load
// registry ("fleet-load", ...). Callers may override Sessions and the
// stagger policy on the returned value.
func ScenarioLoadPreset(name string) (ScenarioLoad, error) { return scenario.GetLoad(name) }

// ScenarioLoadPresets lists the load-registry presets sorted by name.
func ScenarioLoadPresets() []ScenarioLoadEntry { return scenario.LoadEntries() }

// ScenarioPreset builds a named preset from the scenario registry
// ("indoor-bench", "outdoor-pass", "car-signature", "collision",
// "multi-lane", "tag-fleet", "weather-sweep", ...).
func ScenarioPreset(name string) (Scenario, error) { return scenario.Get(name) }

// ScenarioPresets lists the registry presets sorted by name.
func ScenarioPresets() []ScenarioEntry { return scenario.Entries() }

// IndoorBench is the paper's Sec. 4 controlled bench: an LED lamp and
// receiver at equal height, a tag passing underneath. It is the typed
// parameter form of the "indoor-bench" scenario family (Spec()
// exposes the declarative form).
type IndoorBench = scenario.BenchParams

// OutdoorCarPass is the paper's Sec. 5 application: a tagged car
// passing under a pole-mounted receiver in daylight — the typed
// parameter form of the "outdoor-pass" scenario family.
type OutdoorCarPass = scenario.OutdoorParams

// CollisionBench is the Sec. 4.3 two-packet collision world — the
// typed parameter form of the "collision" scenario family.
type CollisionBench = scenario.CollisionParams

// RunResult is the outcome of an end-to-end run.
type RunResult = core.RunResult

// DecodeOptions tunes the adaptive threshold decoder.
type DecodeOptions = decoder.Options

// DecodeResult is the threshold decoder output.
type DecodeResult = decoder.Result

// TwoPhaseResult is the outdoor (car-shape + stripe) decode output.
type TwoPhaseResult = decoder.TwoPhaseResult

// CollisionReport is the FFT collision analysis output (Sec. 4.3).
type CollisionReport = decoder.CollisionReport

// CollisionOptions tunes the FFT collision analyzer.
type CollisionOptions = decoder.CollisionOptions

// Trace is a sampled RSS time series.
type Trace = trace.Trace

// ReceiverDevice is an optical receiver model (photodiode gain levels
// or the RX-LED of Sec. 4.4).
type ReceiverDevice = frontend.Receiver

// Receiver devices from the paper's Fig. 11.
func PDReceiver(g frontend.GainLevel) ReceiverDevice { return frontend.PD(g) }

// RXLEDReceiver returns the LED-as-receiver model.
func RXLEDReceiver() ReceiverDevice { return frontend.RXLED() }

// Photodiode gain levels.
const (
	GainG1 = frontend.G1
	GainG2 = frontend.G2
	GainG3 = frontend.G3
)

// SelectReceiver picks the most sensitive receiver that does not
// saturate at the given ambient level (the paper's dual-receiver
// policy). With no candidates, the four Fig. 11 devices are used.
func SelectReceiver(noiseFloorLux float64, candidates ...ReceiverDevice) (ReceiverDevice, error) {
	return frontend.SelectReceiver(noiseFloorLux, candidates...)
}

// StreamDetection is one decoded packet event from a streaming
// session.
type StreamDetection = stream.Detection

// StreamStats is the engine's operational snapshot (sessions,
// samples/s, detections, drops).
type StreamStats = stream.Stats

// SessionStats summarizes one streaming decode session (samples fed,
// detections, errors, buffered) — the payload of WithSessionEnd.
type SessionStats = stream.SessionStats

// Telemetry is a metrics registry: named counters, gauges and
// latency histograms that render as Prometheus text or JSON. Pass one
// to a pipeline with WithTelemetry (and to ListenSourceConfig for
// ingest metrics); read it with Snapshot or WritePrometheus.
// Registration is get-or-create, so one registry can be shared across
// every layer of a process.
type Telemetry = telemetry.Registry

// NewTelemetry builds an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// TelemetryHealth aggregates named degradation checks for the
// /healthz endpoint plnet serves on -metrics-addr.
type TelemetryHealth = telemetry.Health

// NewTelemetryHealth builds an empty health check set (always
// healthy until checks are added).
func NewTelemetryHealth() *TelemetryHealth { return telemetry.NewHealth() }

// TelemetrySnapshot is the JSON form of a Telemetry registry.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryHistogram is a point-in-time distribution summary
// (count/sum/min/max plus p50/p90/p99), as served by the
// /metrics.json endpoint.
type TelemetryHistogram = telemetry.HistogramSnapshot
