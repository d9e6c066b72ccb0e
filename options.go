package passivelight

import (
	"time"

	"passivelight/internal/telemetry"
)

// pipeConfig is the resolved configuration a Pipeline runs with; it
// is assembled exclusively through functional options so every knob
// has a working zero value.
type pipeConfig struct {
	decode       DecodeOptions
	preRollSec   float64
	workers      int
	shards       int
	idleTimeout  time.Duration
	maxSessions  int
	codebook     *Codebook
	autoSelect   []ReceiverDevice
	autoSelectOn bool
	sinks        []func(Event)
	metrics      *telemetry.Registry
	onSessionEnd func(session uint64, stats SessionStats, reason string)
}

// Option configures a Pipeline.
type Option func(*pipeConfig)

// WithExpectedSymbols bounds the number of symbols sliced per packet
// (preamble + data); zero decodes to the end of each segment. It is
// the one decoder setting a pipeline exposes; the others keep their
// defaults.
func WithExpectedSymbols(n int) Option {
	return func(c *pipeConfig) { c.decode.ExpectedSymbols = n }
}

// WithPreRoll sets the quiet context retained before detected
// activity, in seconds. Zero selects 1 s; negative switches the
// pipeline to batch-equivalent mode (the entire stream is retained
// and decoded on end-of-stream, bit-identical to the batch Decode of
// the same samples — unbounded memory, for tests and offline replay).
func WithPreRoll(sec float64) Option {
	return func(c *pipeConfig) { c.preRollSec = sec }
}

// WithWorkers sets the decode worker pool size. Zero selects
// runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(c *pipeConfig) { c.workers = n }
}

// WithShards splits the engine's session table into n independent
// shards (per-shard map, lock, run queue and workers), so feeders and
// decode workers on different cores never contend on a single mutex
// or queue. Zero selects min(workers, GOMAXPROCS); values above the
// worker count are clamped so every shard keeps at least one worker.
// One shard reproduces the unsharded engine exactly.
func WithShards(n int) Option {
	return func(c *pipeConfig) { c.shards = n }
}

// WithIdleTimeout evicts sessions not fed for this long (their open
// segment is flushed first). Zero selects 60 s; negative disables
// eviction.
func WithIdleTimeout(d time.Duration) Option {
	return func(c *pipeConfig) { c.idleTimeout = d }
}

// WithMaxSessions bounds the concurrent session table. Zero selects
// 65536.
func WithMaxSessions(n int) Option {
	return func(c *pipeConfig) { c.maxSessions = n }
}

// WithCodebook matches every decoded payload against a
// Hamming-separated codebook: events gain CodeIndex (the nearest
// codeword) and CodeDistance (bit errors corrected). The paper's
// restricted code sets (Sec. 4.2) as a pipeline stage.
func WithCodebook(cb *Codebook) Option {
	return func(c *pipeConfig) { c.codebook = cb }
}

// WithReceiverAutoSelect picks the receiver device per the paper's
// Sec. 4.4 dual-receiver policy — the most sensitive candidate that
// does not saturate at the source's ambient level — before the source
// opens. No candidates selects the four Fig. 11 devices. Only sources
// that know their ambient level support it (NewCarPassSource); others
// fail Run/Stream with a configuration error.
func WithReceiverAutoSelect(candidates ...ReceiverDevice) Option {
	return func(c *pipeConfig) {
		c.autoSelect = candidates
		c.autoSelectOn = true
	}
}

// WithSink registers a callback invoked for every event, in stream
// order, before the event is delivered on the Stream channel. Sinks
// must not block; they run on the pipeline's forwarding goroutine.
func WithSink(fn func(Event)) Option {
	return func(c *pipeConfig) { c.sinks = append(c.sinks, fn) }
}

// WithTelemetry records the pipeline's observability surface into the
// registry: the engine's session/throughput/drop counters and
// decode-step histogram (pl_engine_*), plus per-strategy event
// counters and the detection latency histogram
// pl_pipeline_detection_latency_ns{strategy="..."} — stamped from the
// arrival of the chunk that completed each segment to the event's
// emit on the pipeline's forwarder. Read the registry with
// Snapshot/WritePrometheus (plnet serves it on -metrics-addr). One
// registry may be shared across pipelines and other layers; metric
// registration is get-or-create.
func WithTelemetry(t *Telemetry) Option {
	return func(c *pipeConfig) { c.metrics = t }
}

// WithSessionEnd registers a release hook fired once per streaming
// session after its final flush has emitted: reason "end" for an
// explicit end (a Reset/End chunk, EndSession), "idle" for idle
// eviction, "close" for pipeline shutdown. The hook runs on the
// releasing goroutine and must not block. Cluster engines use it to
// export per-session decode totals at handoff time. Streaming
// strategies only (Threshold, TwoPhase); Collision ignores it.
func WithSessionEnd(fn func(session uint64, stats SessionStats, reason string)) Option {
	return func(c *pipeConfig) { c.onSessionEnd = fn }
}
