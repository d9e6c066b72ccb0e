package passivelight

// The benchmark harness: one testing.B benchmark per table/figure of
// the paper (see DESIGN.md section 4 and EXPERIMENTS.md). Each bench
// regenerates its experiment; run with
//
//	go test -bench=. -benchmem
//
// Figure-level benches measure the full simulate+decode pipeline, so
// their ns/op is the cost of reproducing that figure once.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"passivelight/internal/capacity"
	"passivelight/internal/channel"
	"passivelight/internal/experiments"
	"passivelight/internal/frontend"
	"passivelight/internal/telemetry"
)

func benchRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func benchErr(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig5Decode regenerates Fig. 5: the clean indoor packets
// ('00' and '10') end to end.
func BenchmarkFig5Decode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5()
		benchErr(b, err)
		if !res.Runs[0].Success || !res.Runs[1].Success {
			b.Fatal("fig5 decode failed")
		}
	}
}

// BenchmarkFig6aPoint measures one decodable-region probe (Fig. 6(a)):
// is (h=30 cm, w=4.5 cm) decodable?
func BenchmarkFig6aPoint(b *testing.B) {
	cfg := capacity.SweepConfig{Trials: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := capacity.Decodable(0.30, 0.045, cfg)
		benchErr(b, err)
		if !ok {
			b.Fatal("point should decode")
		}
	}
}

// BenchmarkFig6bPoint measures one narrowest-width search at h=25 cm
// (Fig. 6(b) inner loop).
func BenchmarkFig6bPoint(b *testing.B) {
	cfg := capacity.SweepConfig{Trials: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, ok, err := capacity.NarrowestWidth(0.25, 0.02, 0.075, 0.01, cfg)
		benchErr(b, err)
		if !ok {
			b.Fatal("no decodable width")
		}
	}
}

// BenchmarkFig7Decode regenerates Fig. 7: decode under rippling
// fluorescent ceiling light.
func BenchmarkFig7Decode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7()
		benchErr(b, err)
		if !res.Success {
			b.Fatal("fig7 decode failed")
		}
	}
}

// BenchmarkDTWClassify regenerates the Sec. 4.2 study: distorted
// packet classified against two baselines (Fig. 8).
func BenchmarkDTWClassify(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8DTW()
		benchErr(b, err)
		if res.Classified != "10" {
			b.Fatal("misclassified")
		}
	}
}

// BenchmarkFFTCollision regenerates Fig. 10: the three collision
// cases with FFT analysis.
func BenchmarkFFTCollision(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10()
		benchErr(b, err)
		if len(res.Cases) != 3 {
			b.Fatal("collision cases missing")
		}
	}
}

// BenchmarkFrontendRespond regenerates the Fig. 11 device table
// (saturation sweep + sensitivity measurement for all receivers).
func BenchmarkFrontendRespond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11Table()
		benchErr(b, err)
		if len(res.Rows) != 4 {
			b.Fatal("fig11 rows missing")
		}
	}
}

// BenchmarkCarSignature regenerates Figs. 13-14: both bare-car
// optical signatures and their classification.
func BenchmarkCarSignature(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13_14()
		benchErr(b, err)
		if res.VolvoModel != "hatchback" || res.BMWModel != "sedan" {
			b.Fatal("signature mismatch")
		}
	}
}

// BenchmarkFig15 regenerates Fig. 15: RX-LED at 450 vs 100 lux.
func BenchmarkFig15(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15()
		benchErr(b, err)
		if !res.Runs[0].Success || res.Runs[1].Success {
			b.Fatal("fig15 outcome drifted")
		}
	}
}

// BenchmarkFig16 regenerates Fig. 16: PD bare vs capped at 100 lux.
func BenchmarkFig16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16()
		benchErr(b, err)
		if res.Runs[0].Success || !res.Runs[1].Success {
			b.Fatal("fig16 outcome drifted")
		}
	}
}

// BenchmarkFig17 regenerates Fig. 17: the three well-illuminated
// outdoor decodes.
func BenchmarkFig17(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig17()
		benchErr(b, err)
		for _, run := range res.Runs {
			if !run.Success {
				b.Fatal("fig17 run failed")
			}
		}
	}
}

// BenchmarkOutdoorSimulate isolates the channel+front-end simulation
// cost of one 18 km/h car pass (no decode).
func BenchmarkOutdoorSimulate(b *testing.B) {
	link, _, err := (OutdoorCarPass{
		Payload:        "00",
		NoiseFloorLux:  6200,
		ReceiverHeight: 0.75,
		Seed:           1,
	}).Build()
	benchErr(b, err)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioMultiLane renders the multi-lane preset (two
// staggered tagged cars at distinct lateral shares) end to end
// through the channel. The render plan keeps its specialized fast
// path on N-object scenes — car bodies and roof tags are
// piecewise-constant profiles, so the footprint splits into runs on
// which every car's coverage, layer and segment hold still and the
// two lanes are blended once per run; the lane offset only shifts the
// trajectory clock — so no generic-evaluator fallback occurs; the
// bench asserts that with channel.PlanSpecialized and would fail
// loudly on a regression.
func BenchmarkScenarioMultiLane(b *testing.B) {
	spec, err := ScenarioPreset("multi-lane")
	benchErr(b, err)
	world, err := spec.Compile()
	benchErr(b, err)
	if !channel.PlanSpecialized(world.Link.Scene, world.Link.Receiver) {
		b.Fatal("multi-lane scene fell off the render plan fast path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := world.Link.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioTagFleet renders the tag-fleet preset (three
// staggered tags sharing the FoV laterally); also pinned to the
// render plan fast path.
func BenchmarkScenarioTagFleet(b *testing.B) {
	spec, err := ScenarioPreset("tag-fleet")
	benchErr(b, err)
	world, err := spec.Compile()
	benchErr(b, err)
	if !channel.PlanSpecialized(world.Link.Scene, world.Link.Receiver) {
		b.Fatal("tag-fleet scene fell off the render plan fast path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := world.Link.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoPhaseDecode isolates the Sec. 5 decode (shape detection
// + threshold decode) on a pre-rendered trace.
func BenchmarkTwoPhaseDecode(b *testing.B) {
	link, _, err := (OutdoorCarPass{
		Payload:        "00",
		NoiseFloorLux:  6200,
		ReceiverHeight: 0.75,
		Seed:           1,
	}).Build()
	benchErr(b, err)
	tr, err := link.Simulate()
	benchErr(b, err)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCarPass(tr, DecodeOptions{ExpectedSymbols: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReceiverSelection measures the Sec. 4.4 dual-receiver
// policy across the ambient sweep.
func BenchmarkReceiverSelection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := frontend.SelectReceiver(6200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodebookBuild measures restricted-codebook generation
// (Sec. 4.2 code design, ablation A5).
func BenchmarkCodebookBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCodebook(8, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrace renders one indoor '10' pass for the decode benchmarks.
func benchTrace(b *testing.B) *Trace {
	b.Helper()
	link, _, err := (IndoorBench{
		Height:      0.20,
		SymbolWidth: 0.03,
		Speed:       0.08,
		Payload:     "10",
		Seed:        42,
	}).Build()
	benchErr(b, err)
	tr, err := link.Simulate()
	benchErr(b, err)
	return tr
}

// BenchmarkBatchDecode is the baseline the streaming decoder is
// measured against: one full-trace adaptive threshold decode.
func BenchmarkBatchDecode(b *testing.B) {
	tr := benchTrace(b)
	b.SetBytes(int64(8 * tr.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Decode(tr, DecodeOptions{ExpectedSymbols: 8})
		benchErr(b, err)
		if res.ParseErr != nil {
			b.Fatal(res.ParseErr)
		}
	}
}

// BenchmarkStreamDecodeChunked decodes the same trace through a
// streaming session fed in 512-sample chunks (online segmentation +
// per-segment decode), for comparison against BenchmarkBatchDecode.
func BenchmarkStreamDecodeChunked(b *testing.B) {
	tr := benchTrace(b)
	b.SetBytes(int64(8 * tr.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewStreamDecoder(StreamConfig{Fs: tr.Fs, Decode: DecodeOptions{ExpectedSymbols: 8}})
		benchErr(b, err)
		got := 0
		for chunk := range tr.Chunks(512) {
			for _, det := range dec.Feed(chunk) {
				if det.Err == nil {
					got++
				}
			}
		}
		for _, det := range dec.Flush() {
			if det.Err == nil {
				got++
			}
		}
		if got != 1 {
			b.Fatalf("decoded %d packets, want 1", got)
		}
	}
}

// fleetStreamCache memoizes the rendered fleet-load sessions per
// session count, so the shard sweep does not re-render 128 scenario
// traces per sub-benchmark.
var fleetStreamCache = map[int]fleetStreams{}

type fleetStreams struct {
	fs      float64
	symbols int
	traces  [][]float64
}

// fleetLoadStreams expands the fleet-load preset to the given session
// count and renders every staggered session's trace — the engine
// benchmarks run entirely from the spec-driven load, not synthetic
// chunk feeds.
func fleetLoadStreams(b *testing.B, sessions int) fleetStreams {
	b.Helper()
	if s, ok := fleetStreamCache[sessions]; ok {
		return s
	}
	load, err := ScenarioLoadPreset("fleet-load")
	benchErr(b, err)
	load.Sessions = sessions
	specs, err := load.Expand()
	benchErr(b, err)
	out := fleetStreams{traces: make([][]float64, len(specs))}
	for i, spec := range specs {
		c, err := spec.Compile()
		benchErr(b, err)
		tr, err := c.Link.Simulate()
		benchErr(b, err)
		out.traces[i] = tr.Samples
		out.fs = tr.Fs
		out.symbols = spec.Decode.ExpectedSymbols
	}
	fleetStreamCache[sessions] = out
	return out
}

// engineBenchRun drives one fleet-load expansion through the engine
// per iteration: every staggered session's rendered trace is fed
// chunk by chunk under its scenario stream id, all sessions decode on
// the sharded worker pool, and the iteration ends when every
// detection is out (consumed from the batched output). ns/op is the
// cost of one concurrent fleet round; MB/s is aggregate sample ingest
// throughput. shards 0 selects the engine's auto (GOMAXPROCS-bound)
// sharding; workers is forced to cover every shard so a shard sweep
// on a small box still exercises N independent queues.
//
// The run records into a telemetry registry (so the measured cost
// includes live instrumentation, keeping the committed baselines
// honest about production overhead) and reports the detection-latency
// quantiles as custom bench metrics, which benchdump folds back into
// a HistogramSnapshot in the committed BENCH files.
func engineBenchRun(b *testing.B, sessions, shards int) {
	b.Helper()
	// Above 512 sessions the fleet cycles a 512-trace rendered pool
	// (session i feeds trace i mod 512): the engine still tracks every
	// session independently, but render time and resident trace memory
	// stay bounded for the 1024/4096 sweeps.
	rendered := sessions
	if rendered > 512 {
		rendered = 512
	}
	fleet := fleetLoadStreams(b, rendered)
	total := 0
	for id := 0; id < sessions; id++ {
		total += len(fleet.traces[id%len(fleet.traces)])
	}
	workers := 0
	if shards > 0 {
		workers = max(shards, runtime.GOMAXPROCS(0))
	}
	tel := telemetry.NewRegistry()
	b.SetBytes(int64(8 * total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewStreamEngine(StreamEngineConfig{
			Session:     StreamConfig{Fs: fleet.fs, Decode: DecodeOptions{ExpectedSymbols: fleet.symbols}},
			Workers:     workers,
			Shards:      shards,
			IdleTimeout: -1,
			Metrics:     tel,
		})
		benchErr(b, err)
		done := make(chan int)
		go func() {
			got := 0
			for batch := range eng.Batches() {
				for _, det := range batch {
					if det.Err == nil {
						got++
					}
				}
				RecycleDetections(batch)
			}
			done <- got
		}()
		for id := 0; id < sessions; id++ {
			s := fleet.traces[id%len(fleet.traces)]
			sid := ScenarioStreamID(id, 0)
			for lo := 0; lo < len(s); lo += 1024 {
				hi := lo + 1024
				if hi > len(s) {
					hi = len(s)
				}
				if err := eng.Feed(sid, 0, s[lo:hi]); err != nil {
					b.Fatal(err)
				}
			}
		}
		eng.FlushAll()
		st := eng.Stats()
		eng.Close()
		if got := <-done; got != sessions {
			b.Fatalf("decoded %d of %d sessions", got, sessions)
		}
		if st.DroppedSamples != 0 {
			b.Fatalf("dropped %d samples", st.DroppedSamples)
		}
		// Memory bound: the engine must never retain whole streams.
		if st.BufferedSamples > int64(sessions)*4000 {
			b.Fatalf("buffered %d samples across %d sessions", st.BufferedSamples, sessions)
		}
	}
	b.StopTimer()
	// Latency quantiles accumulate across all iterations' engines (the
	// histogram series is shared through the registry).
	if lat := tel.Histogram("pl_engine_detection_latency_ns", "").Snapshot(); lat.Count > 0 {
		b.ReportMetric(lat.P50, "lat-p50-ns")
		b.ReportMetric(lat.P90, "lat-p90-ns")
		b.ReportMetric(lat.P99, "lat-p99-ns")
		b.ReportMetric(float64(lat.Min), "lat-min-ns")
		b.ReportMetric(float64(lat.Max), "lat-max-ns")
		b.ReportMetric(float64(lat.Sum), "lat-sum-ns")
		b.ReportMetric(float64(lat.Count), "lat-count")
	}
}

// BenchmarkEngineSessions128 is the aggregate-throughput headline
// number: 128 concurrent sessions, auto sharding.
func BenchmarkEngineSessions128(b *testing.B) { engineBenchRun(b, 128, 0) }

// BenchmarkEngineSessions512 scales the session count 4x to expose
// table-pressure effects the 128-way round hides.
func BenchmarkEngineSessions512(b *testing.B) { engineBenchRun(b, 512, 0) }

// BenchmarkEngineSessions1024 and ...4096 push into the regime where
// per-session state dominates: with lazy rings and the pooled
// decoder/batch buffers, memory per tracked session is what these
// numbers certify (traces cycle a 512-render pool above 512 sessions).
func BenchmarkEngineSessions1024(b *testing.B) { engineBenchRun(b, 1024, 0) }

func BenchmarkEngineSessions4096(b *testing.B) { engineBenchRun(b, 4096, 0) }

// BenchmarkEngineShards sweeps the shard count at a fixed 128
// sessions so the sharding win (or its absence on a small box) is
// visible in tier-1 bench output.
func BenchmarkEngineShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			engineBenchRun(b, 128, shards)
		})
	}
}

// BenchmarkEngineFeedParallel hammers the Feed path from GOMAXPROCS
// goroutines, each with its own session, against quiet streams (no
// packet, so decode work is minimal): it isolates the ingest
// fan-in — shard lookup, ring copy, wake — that a single global
// mutex/queue would serialize.
func BenchmarkEngineFeedParallel(b *testing.B) {
	eng, err := NewStreamEngine(StreamEngineConfig{
		Session:     StreamConfig{Fs: 1000, Decode: DecodeOptions{ExpectedSymbols: 12}},
		IdleTimeout: -1,
	})
	benchErr(b, err)
	go func() {
		for range eng.Batches() {
		}
	}()
	rng := benchRand(1)
	chunk := make([]float64, 1024)
	for i := range chunk {
		chunk[i] = 10 + 0.3*rng.NormFloat64()
	}
	var nextID atomic.Uint64
	b.SetBytes(int64(8 * len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := nextID.Add(1)
		for pb.Next() {
			if err := eng.Feed(id, 0, chunk); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	eng.Close()
}
