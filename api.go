package passivelight

import (
	"net/http"

	"passivelight/internal/capacity"
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

// NewPacket parses a bit string such as "10" into a Packet.
func NewPacket(bits string) (Packet, error) { return coding.NewPacket(bits) }

// MustPacket is NewPacket that panics on invalid input.
func MustPacket(bits string) Packet { return coding.MustPacket(bits) }

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

// ScenarioStreamSession recovers the load-session half of a stream id.
func ScenarioStreamSession(id uint64) int { return scenario.StreamSession(id) }

// ScenarioStreamReceiver recovers the receiver half of a stream id.
func ScenarioStreamReceiver(id uint64) int { return scenario.StreamReceiver(id) }

// ScenarioLoadPreset builds a named load preset from the load
// registry ("fleet-load", ...). Callers may override Sessions and the
// stagger policy on the returned value.
func ScenarioLoadPreset(name string) (ScenarioLoad, error) { return scenario.GetLoad(name) }

// ScenarioLoadPresets lists the load-registry presets sorted by name.
func ScenarioLoadPresets() []ScenarioLoadEntry { return scenario.LoadEntries() }

// RegisterScenarioLoad adds a named load preset to the registry.
func RegisterScenarioLoad(name, description string, build func() (ScenarioLoad, error)) error {
	return scenario.RegisterLoad(name, description, build)
}

// ScenarioPreset builds a named preset from the scenario registry
// ("indoor-bench", "outdoor-pass", "car-signature", "collision",
// "multi-lane", "tag-fleet", "weather-sweep", ...).
func ScenarioPreset(name string) (Scenario, error) { return scenario.Get(name) }

// ScenarioPresets lists the registry presets sorted by name.
func ScenarioPresets() []ScenarioEntry { return scenario.Entries() }

// RegisterScenario adds a named preset to the registry.
func RegisterScenario(name, description string, build func() (Scenario, error)) error {
	return scenario.Register(name, description, build)
}

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

// Classifier matches distorted waveforms against clean baselines with
// DTW (Sec. 4.2).
type Classifier = decoder.Classifier

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

// RunEndToEnd simulates a link and decodes the result, comparing the
// decoded payload against the packet physically present on the tag.
//
// Deprecated: build a Pipeline over NewLinkSource (or
// NewBenchSource/NewCarPassSource) and compare events against the
// source's Packet; the pipeline adds context cancellation, sinks and
// the codebook/receiver-policy stages.
func RunEndToEnd(l *Link, sent Packet, opt DecodeOptions) (RunResult, error) {
	return core.EndToEnd(l, sent, opt)
}

// Decode runs the paper's Sec. 4.1 adaptive threshold decoder on a
// trace.
//
// Deprecated: use NewPipeline(NewTraceSource(tr, 0), Threshold(),
// WithDecodeOptions(opt), WithPreRoll(-1)) — bit-identical output,
// one composable surface. Decode remains as a thin wrapper over the
// same state machine.
func Decode(tr *Trace, opt DecodeOptions) (DecodeResult, error) {
	return decoder.Decode(tr, opt)
}

// DecodeCarPass runs the Sec. 5 two-phase decode: detect the car's
// optical signature (long-duration preamble), then threshold-decode
// the roof tag.
//
// Deprecated: use NewPipeline with the TwoPhase strategy.
func DecodeCarPass(tr *Trace, opt DecodeOptions) (TwoPhaseResult, error) {
	return decoder.DecodeCarPass(tr, opt)
}

// NewClassifier builds a DTW waveform classifier; length <= 0 selects
// 256 resampled points. Bind it to a stream with the DTWClassify
// pipeline strategy, or call Classify directly.
func NewClassifier(length int) *Classifier { return decoder.NewClassifier(length) }

// AnalyzeCollision runs the Sec. 4.3 FFT analysis on a trace.
//
// Deprecated: use NewPipeline with the Collision strategy.
func AnalyzeCollision(tr *Trace, opt CollisionOptions) (CollisionReport, error) {
	return decoder.AnalyzeCollision(tr, opt)
}

// StreamConfig tunes one streaming decode session (sample rate,
// decoder options, pre-roll / quiet-hold windows).
type StreamConfig = stream.Config

// StreamDetection is one decoded packet event from a streaming
// session.
type StreamDetection = stream.Detection

// StreamDecoder is a single online decode session: feed RSS samples
// in chunks, get detections as packets complete, in bounded memory.
type StreamDecoder = stream.Decoder

// StreamEngineConfig tunes the concurrent session manager (worker
// pool, shard count, per-session queues, idle eviction).
type StreamEngineConfig = stream.EngineConfig

// StreamEngine multiplexes thousands of concurrent streaming decode
// sessions over a sharded worker pool (per-shard session table, lock
// and run queue; batched detection delivery).
type StreamEngine = stream.Engine

// StreamStats is the engine's operational snapshot (sessions,
// samples/s, detections, drops).
type StreamStats = stream.Stats

// SessionStats summarizes one streaming decode session (samples fed,
// detections, errors, buffered) — the payload of WithSessionEnd.
type SessionStats = stream.SessionStats

// NewStreamDecoder builds a streaming decode session. With
// PreRollSec < 0 (batch-equivalent mode, unbounded memory) a chunked
// stream decode of a trace is bit-identical to the batch Decode of
// the same trace; the default online mode bounds memory by
// segmenting around detected activity, so it decodes the same
// packets but is not guaranteed sample-for-sample batch parity.
//
// Deprecated: use NewPipeline over a NewChunkSource (or any other
// source); the same session machinery runs behind Pipeline.Stream
// with context cancellation and sinks.
func NewStreamDecoder(cfg StreamConfig) (*StreamDecoder, error) { return stream.NewDecoder(cfg) }

// NewStreamEngine starts a concurrent streaming decode engine.
//
// Deprecated: the engine is the execution substrate behind
// Pipeline.Run/Pipeline.Stream; build a Pipeline over a multi-session
// source (ListenSource, NewChunkSource) instead of driving the engine
// directly.
func NewStreamEngine(cfg StreamEngineConfig) (*StreamEngine, error) { return stream.NewEngine(cfg) }

// RecycleDetections returns a batch received from StreamEngine.Batches
// (or Pipeline internals) to the engine's slice pool once the caller
// is done with every element. Optional — unreturned batches are simply
// garbage-collected — but consumers that process batches promptly and
// do not retain Detection values can call it to keep the steady-state
// feed path allocation-free.
func RecycleDetections(batch []StreamDetection) { stream.RecycleBatch(batch) }

// Telemetry is a metrics registry: named counters, gauges and
// latency histograms that render as Prometheus text or JSON. Pass one
// to a pipeline with WithTelemetry (and to ListenSourceConfig for
// ingest metrics); serve it live with TelemetryHandler. Registration
// is get-or-create, so one registry can be shared across every layer
// of a process.
type Telemetry = telemetry.Registry

// NewTelemetry builds an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// TelemetryHealth aggregates named degradation checks for the
// /healthz endpoint served by TelemetryHandler.
type TelemetryHealth = telemetry.Health

// NewTelemetryHealth builds an empty health check set (always
// healthy until checks are added).
func NewTelemetryHealth() *TelemetryHealth { return telemetry.NewHealth() }

// TelemetrySnapshot is the JSON form of a Telemetry registry.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryHistogram is a point-in-time distribution summary
// (count/sum/min/max plus p50/p90/p99) — the schema shared by the
// /metrics.json endpoint and benchdump's committed BENCH files.
type TelemetryHistogram = telemetry.HistogramSnapshot

// TelemetryHandler serves a registry over HTTP: /metrics (Prometheus
// text), /metrics.json (TelemetrySnapshot), /healthz (200 "ok" or
// 503 "degraded" per the health checks) and the net/http/pprof
// profiles under /debug/pprof/. health may be nil.
func TelemetryHandler(t *Telemetry, health *TelemetryHealth) http.Handler {
	return telemetry.Handler(t, health)
}

// CapacitySweep is the configuration for decodable-region and
// throughput measurements (Fig. 6).
type CapacitySweep = capacity.SweepConfig

// DecodableRegion sweeps symbol widths and reports the maximal
// decodable height for each (Fig. 6(a)).
func DecodableRegion(widths []float64, hLo, hHi, hStep float64, cfg CapacitySweep) ([]capacity.RegionPoint, error) {
	return capacity.DecodableRegion(widths, hLo, hHi, hStep, cfg)
}

// ThroughputCurve reports symbols/second against receiver height
// (Fig. 6(b)).
func ThroughputCurve(heights []float64, wLo, wHi, wStep float64, cfg CapacitySweep) ([]capacity.ThroughputPoint, error) {
	return capacity.ThroughputCurve(heights, wLo, wHi, wStep, cfg)
}
