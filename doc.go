// Package passivelight is a library-scale reproduction of
// "Passive Communication with Ambient Light" (Wang, Zuniga,
// Giustiniano — CoNEXT 2016): a communication system in which
// unmodulated ambient light (a lamp, ceiling lights, the sun) is
// reflected by patterned surfaces worn by mobile objects and decoded
// by a single cheap photodiode or an LED used as a receiver.
//
// # Source → Pipeline → Events
//
// The public API mirrors the paper's single physical pipeline (light
// source → tag → receiver front end → decoder) as two composable
// abstractions. A Source produces RSS sample chunks:
//
//   - NewTraceSource — a recorded Trace, replayed in chunks;
//   - NewScenarioSource — any declarative Scenario (a registry
//     preset, a JSON spec file, or a hand-built Spec), compiled and
//     rendered on Open;
//   - NewBenchSource / NewCarPassSource — the simulated testbed
//     (indoor bench, Sec. 5 car pass), thin typed wrappers over the
//     scenario layer;
//   - NewLoadSource — a multi-receiver scenario or a load of many
//     staggered sessions, every receiver of every session one stream;
//   - NewChunkSource — a live feed of sample chunks from a channel;
//   - ListenSourceConfig — a receiver-network listener: nodes stream raw
//     SampleChunk frames over TCP and each (node, stream) pair
//     becomes one decode session. A chunk whose samples are all
//     integer ADC codes may travel as 2-byte codes, negotiated in the
//     node's Hello; it decodes to the same float64 samples.
//
// A Pipeline binds one source to a decode strategy — Threshold
// (Sec. 4.1 adaptive tau_r/tau_t), TwoPhase (Sec. 5 car-shape
// preamble + stripe decode) or Collision (Sec. 4.3 FFT analysis) —
// configured with functional options:
//
//	src := passivelight.NewBenchSource(passivelight.IndoorBench{
//		Height:      0.20, // m
//		SymbolWidth: 0.03, // m
//		Speed:       0.08, // m/s
//		Payload:     "10",
//	})
//	pipe, err := passivelight.NewPipeline(src, passivelight.Threshold(),
//		passivelight.WithExpectedSymbols(8),
//		passivelight.WithPreRoll(-1), // offline replay: batch-equivalent
//	)
//	if err != nil { ... }
//	events, err := pipe.Run(ctx)
//	if err != nil { ... }
//	for _, ev := range events {
//		fmt.Println(ev.Symbols, ev.BitString() == src.Packet().BitString())
//	}
//
// Run collects every event until the source ends; Stream returns the
// event channel for live consumption. Both honor context.Context
// cancellation end to end, and failures unwrap to typed sentinels
// (ErrNoPreamble, ErrLowContrast, ErrSaturated, ErrSessionEvicted,
// ErrEngineClosed) with errors.Is at every layer. Options bolt the
// paper's system pieces onto any pipeline: WithCodebook applies the
// Sec. 4.2 restricted code sets as an error-correction stage,
// WithReceiverAutoSelect applies the Sec. 4.4 dual-receiver policy to
// simulated sources, WithWorkers/WithShards/WithIdleTimeout tune the
// concurrent substrate, WithSink taps the event flow.
//
// # Scenario catalog
//
// Worlds are data. A Scenario declares the complete physical setup —
// ambient optics (lamp / ceiling light / sun with cloud drift),
// receiver placement and device, noise profile with optional fog, and
// mobile objects (tags, cars, tagged cars, dynamic tags) with
// mobility models (constant, piecewise, stop-and-go, staggered lane
// offsets) — and compiles deterministically into a renderable link:
// the same spec + seed renders a bit-identical trace every time, and
// a spec round-trips through JSON losslessly. The preset registry
// (ScenarioPreset, ScenarioPresets) ships the
// paper's worlds (indoor-bench, outdoor-pass, car-signature,
// collision) plus multi-object workloads (multi-lane: staggered
// tagged cars in adjacent lanes; tag-fleet: N tags at distinct
// lateral FoV shares; weather-sweep: ambient ramps plus fog):
//
//	spec, _ := passivelight.ScenarioPreset("multi-lane")
//	src := passivelight.NewScenarioSource(spec)
//	pipe, _ := passivelight.NewPipeline(src, passivelight.TwoPhase(),
//		passivelight.WithExpectedSymbols(spec.Decode.ExpectedSymbols))
//	events, _ := pipe.Run(ctx) // one detection per lane, in pass order
//
// Each spec carries a Decode hint (strategy + expected symbols) so
// generic drivers can bind the right pipeline. cmd/plsim is the CLI
// face of the registry (-list, -scenario, -spec, -dump-spec, -load).
//
// # Multi-receiver scenarios and load generation
//
// A Scenario can declare a Receivers list instead of the single
// Receiver: CompileMulti then fans the one shared world out into one
// deterministic core link per receiver (heterogeneous devices,
// placements, per-receiver noise/seed overrides — the Sec. 4.4
// deployment of several receivers covering one scene). NewLoadSource
// over a one-session load replays all links into one Pipeline; every
// chunk carries its link's stable stream id, so events attribute back
// to the receiver through Streams. The rx-lanes preset is the
// canonical form: two staggered tagged lanes observed by an RX-LED
// pole and a lens-focused photodiode on one gantry, two links, four
// detections:
//
//	spec, _ := passivelight.ScenarioPreset("rx-lanes")
//	src := passivelight.NewLoadSource(passivelight.ScenarioLoad{Base: &spec, Sessions: 1})
//	pipe, _ := passivelight.NewPipeline(src, passivelight.TwoPhase(),
//		passivelight.WithExpectedSymbols(spec.Decode.ExpectedSymbols))
//	events, _ := pipe.Run(ctx)
//	names := map[uint64]string{}
//	for _, st := range src.Streams() {
//		names[st.ID] = st.Name
//	}
//	for _, ev := range events {
//		fmt.Println(names[ev.Session], ev.BitString())
//	}
//
// On top of the fan-out sits spec-driven load generation: a
// ScenarioLoad names a base scenario and expands it into N sessions,
// each with its own deterministic seed and a staggered (optionally
// jittered) start — hundreds of staggered passes from one JSON-sized
// spec. NewLoadSource feeds sessions x receivers streams into one
// pipeline, and its Streams table maps every event's stream id back
// to (session, receiver). The fleet-load preset (ScenarioLoadPreset)
// fans the indoor bench out into 128 staggered sessions by default
// and is what the EngineSessions benchmarks run from (the load's Pace
// field replays every stream in real time on its own clock, as a live
// fleet arrives):
//
//	load, _ := passivelight.ScenarioLoadPreset("fleet-load")
//	load.Sessions = 256
//	pipe, _ := passivelight.NewPipeline(passivelight.NewLoadSource(load),
//		passivelight.Threshold(), passivelight.WithExpectedSymbols(8))
//
// cmd/plsim replays a load from the CLI (plsim -scenario fleet-load
// -load 128) and cmd/plnet replays one as synthetic node traffic over
// the rxnet wire protocol (plnet -mode load), one node per session.
//
// # Execution substrate
//
// Behind Run/Stream every streaming strategy executes on the online
// decode engine: the adaptive-threshold state machine is resumable
// (noise-floor tracking, activity segmentation, per-segment decode),
// so each session consumes chunks of any size in bounded memory while
// a worker pool multiplexes thousands of concurrent sessions with
// per-session ring buffers and idle eviction. One pipeline therefore
// serves a single recorded trace and a whole receiver deployment with
// the same code path. In batch-equivalent mode (WithPreRoll(-1)) a
// pipeline over a recorded trace produces detections bit-identical to
// the batch decoder on the same samples. The whole-stream Collision
// strategy buffers per session and analyzes at end of stream.
//
// The receiver network (internal/rxnet, cmd/plnet) builds on this:
// nodes either decode locally and publish compact detections to an
// aggregator, or ship raw samples into a NetSource pipeline whose
// sink feeds the aggregator's track fusion.
//
// # Cluster tier
//
// When one engine is not enough, internal/cluster distributes the
// receiver network across a fleet of them. A cluster.Ring
// consistent-hashes (node, stream) sessions over virtual nodes —
// deterministic for a member set, JSON-serializable, epoch-versioned —
// and a cluster.Router fronts the fleet: receiver nodes dial it with
// the unchanged wire protocol and every chunk is forwarded raw to its
// session's owning engine, with sticky routes, a bounded per-stream
// replay buffer, and crash failover. Engines stay plain pipelines:
// plnet -mode engine wraps a NetSource + Pipeline with a graceful
// drain path (SIGTERM or a wire drain request → refuse new streams,
// finish in-flight ones, flush, NACK stragglers to the router for
// replay on their new owner, exit clean), NetSource exposes the same
// drain surface (Drain, Draining, ForceRedirect, Sessions) for
// embedding, and WithSessionEnd observes every session release.
// Handoffs, failovers and replays are visible under pl_cluster_*; the
// README's "Running a cluster" section has the topology, the rolling-
// restart runbook and the metric catalog. The zero-loss guarantee —
// 128 staggered sessions through drain, shutdown and rejoin without
// dropping a packet — is locked by an in-process integration test and
// a multi-process CI smoke.
//
// The cluster is self-healing. Membership is engine-initiated: an
// engine announces itself over the wire (cluster.Join sends
// EngineHello, the router answers with the ring) and keeps
// re-announcing as a liveness beacon, so a router can start on an
// empty ring, a crashed engine rejoins on restart with no operator
// step, and an engine unreachable past a dead-engine timeout is
// evicted automatically. Every dial path retries with capped, jittered
// exponential backoff (rxnet.Backoff). Overload propagates backwards:
// a hot engine (pl_engine_occupancy, NetSource.AutoThrottle) emits a
// throttle upstream and the router pauses exactly the nodes feeding
// it; every streaming node (rxnet.DialReliable) blocks until the
// release, so ingest stays lossless. Replay buffers
// are byte-bounded (RouterConfig.ReplayBytes), so partitions cost
// bounded memory and trimmed bytes are counted, never spliced over.
// The router keeps a chunk of integer ADC codes at 2 bytes a sample
// (4x more stream time per byte than float64), sends it as a code
// frame to engines that answered its Hello and expands it back to
// float64 for any other. Engines ack each
// decoded session upstream (NetSource.AckSession), which trims the
// stream's replay buffer, and a Pipeline acks on its own when it
// releases an idle session, through the last chunk that session
// consumed: a finished stream's route holds no replay bytes
// (pl_cluster_replay_bytes totals what the router still holds).
// Evicting a dead engine fails all its streams over at once,
// replaying only the unacked tail — what its nodes had finished
// sending does not die with the process. The
// internal/cluster/chaos package injects connection faults (drop,
// delay, duplicate, mid-frame sever, scripted kill/restart schedules)
// for the churn tier that locks all of this down: an auto-assembled
// fleet through three kill/rejoin cycles under paced load, zero loss,
// no operator action.
//
// The routing tier itself is replicated — a router is not a single
// point of failure. Routers name each other as peers
// (RouterConfig.Peers, Router.AddPeer) and share ring state over the
// same RingUpdate frames engines already receive: every membership
// change is pushed to every peer, a router adopts a peer ring with a
// higher epoch wholesale and unions an equal-epoch one without a
// bump, so replicas converge with no external coordinator. Receiver
// nodes carry a failover rotation (rxnet.RedialConfig.Addrs): when
// their router dies they redial the next address and proactively
// resend a byte-bounded tail of each stream (stored as 2-byte codes
// where it can be) as marked float64 replay frames — the engine's
// continuity cursor discards what the dead router already delivered
// and keeps what it took with it, so a router SIGKILL costs neither a
// lost packet nor a duplicate decode. That resend tail and the
// router's replay buffer are one type, rxnet.ReplayTail, under two
// budgets (a fixed 256 KiB on the node, RouterConfig.ReplayBytes,
// default 1 MiB, on the router, per stream): the newest chunk bodies in Seq order, the oldest dropped
// past the budget, trimmed through an acked Seq, and replayed after
// any Seq with a counted gap where the tail no longer reaches.
// Ring changes are batched (RouterConfig.RingBatchWindow, default
// 250ms): a join stampede of N engines — or a restarted router
// re-learning its whole fleet — produces one epoch bump, not N.
// Sequence comparisons use serial-number arithmetic (rxnet.SeqLess),
// so replay buffers and acks survive uint32 wraparound on
// long-lived streams.
//
// # Performance
//
// The engine is sharded: sessions are hashed by stream id onto N
// independent shards, each with its own session table, lock, run
// queue, worker set and padded statistics block, and detections are
// delivered in batches (one channel send per decode step). The feed
// path writes no state shared between shards — counters are
// shard-local and folded only when Stats or a telemetry snapshot
// asks — so on a multi-core box ingest scales with shards until
// decode saturates the workers. WithShards sets the shard count
// (default min(workers, GOMAXPROCS)); WithWorkers sets the decode
// pool size (default GOMAXPROCS). Sizing guidance: leave both at
// their defaults unless profiling says otherwise — workers bound the
// decode parallelism, so set WithWorkers to the cores you want decode
// to use; shards only need to exceed 1 when many feeder goroutines
// contend on ingest, and more shards than workers is never useful
// (the engine clamps it). One shard reproduces the unsharded engine
// exactly.
//
// Per-session memory is bounded and follows the session's state: a
// session ring holds an array (grown geometrically only to a fixed
// 32768-sample bound) only while it has undecoded samples, and hands it
// back to a pool on every drain; an idle decoder keeps one pre-roll
// buffer and borrows a pooled segment buffer only while a segment is
// open; detection batches are pooled too (the pipeline hands consumed
// batches back). Steady-
// state feed+decode of an established fleet does not touch the
// allocator; a tier-1 test pins that with testing.AllocsPerRun. On
// the network path, rxnet frames decode into reference-counted
// pooled buffers that travel to the engine's ring copy untouched —
// one sample copy from socket to ring. BENCH_PR9.json is the
// committed baseline (GOMAXPROCS swept 1/4/8): the 128-session
// fleet round allocates 9.9 MB where the pre-pooling engine spent
// 59.1 MB, and 1024/4096-session rounds hold ~60 KB allocated per
// session end to end.
//
// The simulation and decode hot paths are plan-cached: the channel
// renderer specializes time-invariant/uniform light sources and
// piecewise-constant reflectance profiles (bit-identical to the
// generic evaluator) and starts each time step's footprint coverage
// search from the last step's indices, the FFT runs over cached
// twiddle/bit-reversal plans with a real-input path for power
// spectra, DTW runs a pooled two-row band-limited dynamic program,
// and the threshold decoder's timing search is branch-and-bound (a
// grid candidate is dropped as soon as it cannot outrank the best
// one) over window maxima from a one-level table: each power-of-two
// width it queries is built in O(n) from block prefix and suffix
// maxima, not by doubling through every narrower width. Both are
// bit-identical to the exhaustive search and the doubling table, kept
// as test reference models. The preamble anchors and the outdoor
// car-shape extrema come from one linear prominence-threshold scan
// (dsp.PreambleExtrema, dsp.ProminentExtrema), bit-identical to the
// exact-prominence peak lists kept as the test reference.
// Measured against the PR 1 baseline on the same hardware (see
// BENCH_PR3.json for the committed machine-readable numbers):
// BenchmarkDTWClassify ~14x, BenchmarkFFTCollision ~6x,
// BenchmarkBatchDecode ~3.5x MB/s, BenchmarkEngineSessions128 ~3x
// MB/s — on a single-core container, i.e. before any shard
// parallelism; multi-core boxes add near-linear shard scaling on the
// ingest path.
//
// # Observability
//
// WithTelemetry attaches a metrics registry (NewTelemetry) to a
// pipeline: the engine records its session/throughput/drop counters,
// ring occupancy and per-decode-step duration histogram under
// pl_engine_*, and the pipeline records per-strategy event counts and
// a detection-latency histogram (chunk arrival → event emit) under
// pl_pipeline_*{strategy="..."}. ListenSourceConfig wires the same
// registry into the receiver-network listener (per-node ingest bytes,
// frame errors, queue depth, dropped chunks under pl_rxnet_*). Ingest
// is lossless: a full queue pushes back on the nodes over TCP, and
// only chunks stranded by a closing source count as dropped.
//
// The registry renders Prometheus text exposition and JSON; plnet's
// -metrics-addr endpoint serves both plus a /healthz endpoint driven
// by TelemetryHealth checks. Histograms are log-bucketed (HDR-style,
// ~6% worst-case quantile error) and every recording is a single
// atomic add, so telemetry can stay attached under production load;
// with no registry attached the hot paths skip instrumentation
// entirely.
//
// The runnable programs under cmd/ and the examples/ directory cover
// the paper's indoor bench, the outdoor car application and the
// networked-receivers extension, all on the Pipeline API.
package passivelight
