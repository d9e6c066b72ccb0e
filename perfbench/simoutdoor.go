package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"passivelight"
	"passivelight/internal/channel"
	"passivelight/internal/decoder"
	"passivelight/internal/trace"
)

// Sim-outdoor workload: a closed loop of one worker, each operation
// the paper's Sec. 5 experiment end to end — build the 18 km/h
// outdoor-pass spec, compile, simulate and two-phase decode it, then
// compare the bits with the packet the compiled world encodes.

const (
	// outdoorPool is how many distinct passes the seed draws; the loop
	// cycles through them.
	outdoorPool = 1024
	// outdoorWarmup passes run in set-up so lazily built caches exist
	// before timing starts.
	outdoorWarmup = 32
	// setupRepeats is how many times every workload sets up; set-up
	// time is the median. Each set-up starts after a forced collection,
	// so the collections it triggers do not depend on the one before.
	setupRepeats = 5
	// stageCheckPasses is how many passes the traced run also simulates
	// through Link.Simulate to prove its stage-by-stage replay is
	// bit-identical.
	stageCheckPasses = 32
)

// outdoorInput is one generated pass: a payload and a noise seed, both
// inside the decodable region of the paper's 6200 lux, 75 cm pass.
type outdoorInput struct {
	payload string
	seed    int64
}

// outdoorInputs draws the pass pool from the workload seed.
func outdoorInputs(seed int64, n int) ([]outdoorInput, string) {
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	out := make([]outdoorInput, n)
	for i := range out {
		bits := make([]byte, 2+rng.Intn(3))
		for j := range bits {
			bits[j] = byte('0' + rng.Intn(2))
		}
		out[i] = outdoorInput{payload: string(bits), seed: rng.Int63()}
		fmt.Fprintf(h, "%s:%d\n", out[i].payload, out[i].seed)
	}
	return out, fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// outdoorPass is what one operation holds when it completes.
type outdoorPass struct {
	world   *passivelight.ScenarioWorld
	trace   *passivelight.Trace
	decoded passivelight.TwoPhaseResult
}

// runOutdoorPass is one operation; it returns what the pass holds and
// its class. With a span buffer it calls the simulation stages one by
// one (simulateStaged) so each gets a span; without, it calls
// Link.Simulate.
func runOutdoorPass(in outdoorInput, b *spanBuf, pass int64) (outdoorPass, int, error) {
	root := b.begin("pass", -1, pass)
	defer b.end(root)
	s := b.begin("scenario.spec", root, pass)
	spec, err := passivelight.OutdoorCarPass{Payload: in.payload, NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: in.seed}.Spec()
	b.end(s)
	if err != nil {
		return outdoorPass{}, passErr, err
	}
	s = b.begin("scenario.compile", root, pass)
	world, err := spec.Compile()
	b.end(s)
	if err != nil {
		return outdoorPass{}, passErr, err
	}
	var tr *passivelight.Trace
	if b == nil {
		tr, err = world.Link.Simulate()
	} else {
		tr, err = simulateStaged(world.Link, b, root, pass)
	}
	if err != nil {
		return outdoorPass{}, passErr, err
	}
	s = b.begin("decoder.carpass", root, pass)
	dec, derr := decoder.DecodeCarPass(tr, decoder.Options{ExpectedSymbols: spec.Decode.ExpectedSymbols})
	b.end(s)
	p := outdoorPass{world: world, trace: tr, decoded: dec}
	want := world.Packet().BitString()
	switch {
	case derr != nil || dec.Decode.ParseErr != nil:
		return p, passErr, nil
	case dec.Decode.Packet.BitString() != want || want != in.payload:
		return p, passWrong, nil
	}
	return p, passOK, nil
}

// passFootprintMB is the live heap one completed pass holds (its
// compiled world, trace and decode result), averaged over the first n
// inputs. The simulator keeps no state between passes, so this is the
// state the system holds per pass in flight.
func passFootprintMB(inputs []outdoorInput, n int) (float64, error) {
	var sum float64
	for _, in := range inputs[:n] {
		var h heapProbe
		h.setBaseline()
		p, _, err := runOutdoorPass(in, nil, -1)
		if err != nil {
			return 0, err
		}
		sum += h.deltaMB()
		runtime.KeepAlive(p)
	}
	return sum / float64(n), nil
}

// simulateStaged is Link.Simulate with a span around every stage, in
// the order Link.Simulate calls them: channel render, fog and noise,
// front-end digitize.
func simulateStaged(l *passivelight.Link, b *spanBuf, parent int32, pass int64) (*passivelight.Trace, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	rx := l.Receiver
	if rx.FoVHalfAngleDeg == 0 {
		rx.FoVHalfAngleDeg = l.Frontend.Receiver.FoVHalfAngleDeg
	}
	s := b.begin("channel.render", parent, pass)
	lux, err := channel.Render(l.Scene, rx, l.T0, l.Duration, l.Frontend.Fs)
	b.end(s)
	if err != nil {
		return nil, err
	}
	s = b.begin("noise.apply", parent, pass)
	if l.Fog != nil {
		lux = l.Fog.ApplyInPlace(lux)
	}
	lux = l.Noise.ApplyInPlace(lux)
	b.end(s)
	s = b.begin("frontend.digitize", parent, pass)
	counts := l.Frontend.Digitize(lux)
	b.end(s)
	return trace.New(l.Frontend.Fs, l.T0, counts), nil
}

// stageMismatches simulates the first n inputs both ways and counts
// passes whose staged trace is not bit-identical to Link.Simulate's.
func stageMismatches(inputs []outdoorInput, n int) (int, error) {
	bad := 0
	for _, in := range inputs[:min(n, len(inputs))] {
		spec, err := passivelight.OutdoorCarPass{Payload: in.payload, NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: in.seed}.Spec()
		if err != nil {
			return 0, err
		}
		world, err := spec.Compile()
		if err != nil {
			return 0, err
		}
		ref, err := world.Link.Simulate()
		if err != nil {
			return 0, err
		}
		staged, err := simulateStaged(world.Link, nil, -1, -1)
		if err != nil {
			return 0, err
		}
		if !sameBits(ref.Samples, staged.Samples) {
			bad++
		}
	}
	return bad, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func runSimOutdoor(cfg runConfig, rec *recorder) (*result, error) {
	res := newResult()
	var (
		inputs []outdoorInput
		digest string
	)
	// Set-up: draw the inputs, then warm lazily built caches with a few
	// passes.
	setups := make([]float64, setupRepeats)
	for r := range setups {
		runtime.GC()
		var clk setupClock
		clk.resume()
		inputs, digest = outdoorInputs(cfg.seed, outdoorPool)
		for i := 0; i < outdoorWarmup; i++ {
			_, class, err := runOutdoorPass(inputs[i], nil, -1)
			if err != nil {
				return nil, err
			}
			if class != passOK {
				return nil, fmt.Errorf("sim-outdoor: warm-up pass %d (payload %s) failed", i, inputs[i].payload)
			}
		}
		clk.pause()
		setups[r] = clk.spent.Seconds()
	}
	res.notef("inputs: %d outdoor passes (payload 2-4 bits, 6200 lux, 0.75 m, 18 km/h), digest %s", len(inputs), digest)
	if rec != nil {
		bad, err := stageMismatches(inputs, stageCheckPasses)
		if err != nil {
			return nil, err
		}
		res.layers["trace.stage_replay_mismatches"] = float64(bad)
		if bad > 0 {
			res.invariant = append(res.invariant, fmt.Sprintf("stage replay differs from Link.Simulate on %d of %d passes", bad, stageCheckPasses))
		}
		res.notef("stage replay vs Link.Simulate: %d of %d passes differ", bad, stageCheckPasses)
	}

	type record struct {
		ms    float64
		class int
	}
	// One worker: with one per vCPU the cost of a pass swung by 40 %
	// between runs, as the host placed the two workers on sibling
	// hyperthreads or not; one worker measures the pass alone.
	workers := 1
	records := make([][]record, workers)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	bufs := make([]*spanBuf, workers)
	for w := range bufs {
		bufs[w] = rec.buf()
	}
	start := readRuntime()
	deadline := start.wall.Add(cfg.window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				t := time.Now()
				_, class, err := runOutdoorPass(inputs[i%int64(len(inputs))], bufs[w], i)
				if err != nil {
					class = passErr
				}
				records[w] = append(records[w], record{ms: float64(time.Since(t)) / 1e6, class: class})
			}
		}(w)
	}
	wg.Wait()
	win := since(start)
	footprint, err := passFootprintMB(inputs, outdoorWarmup)
	if err != nil {
		return nil, err
	}
	res.headline["live_heap_mb"] = footprint
	var latencies []float64
	ok := 0
	for _, rs := range records {
		for _, r := range rs {
			res.failures.add(r.class)
			if r.class == passOK {
				ok++
			}
			latencies = append(latencies, r.ms)
		}
	}
	n := len(latencies)
	res.headline["setup_s"] = median(setups)
	res.headline["passes_per_s"] = float64(ok) / win.wall.Seconds()
	res.headline["cpu_ms_per_pass"] = float64(win.cpu) / 1e6 / float64(n)
	res.headline["latency_p50_ms"] = median(latencies)
	t, _ := tailOf(latencies)
	res.headline["latency_tail_ms"] = t.Value
	res.notef("closed loop: %d workers, %d passes in %.2f s; pass time p50 %.3f ms, p%g %.3f ms over %d passes (%d beyond)",
		workers, n, win.wall.Seconds(), res.headline["latency_p50_ms"], t.Percentile, t.Value, t.Samples, t.Beyond)
	res.notef("set-up runs (s): %v", setups)

	if rec != nil {
		folded := rec.fold()
		perPass := func(name string) float64 { return float64(folded[name].Self) / 1e3 / float64(n) }
		res.layers["scenario.compile_us"] = perPass("scenario.compile")
		res.layers["channel.render_us"] = perPass("channel.render")
		res.layers["noise.apply_us"] = perPass("noise.apply")
		res.layers["frontend.digitize_us"] = perPass("frontend.digitize")
		res.layers["decoder.carpass_us"] = perPass("decoder.carpass")
		busy := 0.0
		for _, name := range []string{"scenario.spec", "scenario.compile", "channel.render", "noise.apply", "frontend.digitize", "decoder.carpass"} {
			busy += perPass(name)
		}
		res.layers["trace.cpu_explained_pct"] = 100 * busy / 1e3 / res.headline["cpu_ms_per_pass"]
	}
	res.layers["decoder.ok_ratio"] = float64(ok) / float64(max(n, 1))
	res.layers["runtime.alloc_kb_per_pass"] = float64(win.allocBytes) / 1024 / float64(max(n, 1))
	res.layers["runtime.gc_cpu_share"] = win.gcShare
	return res, nil
}
