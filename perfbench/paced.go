package main

import (
	"bufio"
	"container/heap"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	"passivelight/internal/cluster"
	"passivelight/internal/rxnet"
)

// Paced-routed workload: an open loop shaped like the repository's own
// paced routed load, `plnet -mode load -router ... -sessions 128 -chunk
// 512 -pace`, with the fan-out at the session count. The fleet-load
// preset's 128 sessions, with the preset's stagger and jitter, replay
// all at once, each at its stream clock in pacedChunk-sample chunks,
// and each slot starts its next session when one ends. They pass
// through a cluster router with a static
// one-engine ring in front of the pipeline. One generator goroutine
// sends every chunk from its due time over one connection, the
// sessions multiplexed as stream ids. Every pass carries an ambient
// tail longer than the decoder's quiet hold, so it completes on quiet
// hold, and latency is timed from when the completing chunk was due.

const (
	// pacedChunk is the chunk size the cluster, churn and HA end-to-end
	// tests replay with: 0.512 s of signal at the fleet's 1 kHz, under
	// the engine's 3 s idle timeout.
	pacedChunk = 512
	// pacedFanout is how many sessions replay at once: the fleet-load
	// preset's session count. It is also the pool size, so the sessions
	// live at one time carry the preset's whole spread of lead-ins.
	pacedFanout = 128
	// pacedTailSec is the ambient tail after each pass. The decoder
	// completes a segment after 1.5 s of unbroken quiet, and noise
	// excursions restart that count: with a 2 s tail about one pass in
	// seven still had an open segment when its stream stopped, and only
	// the idle-timeout flush would have completed it. Set-up keeps only
	// passes that complete on quiet hold; at 4 s that rejects a few in
	// a hundred.
	pacedTailSec = 4.0
	// pacedMaxChunks bounds the chunks of one paced pass (about 20 s of
	// signal; a pass with its lead-in and tail is at most about 13 s)
	// for sizing the generator's records.
	pacedMaxChunks = 40
	// pacedIdle is plnet's engine-mode session idle timeout.
	pacedIdle = 3 * time.Second
	// pacedThrottle is plnet's engine-mode backpressure watermark.
	pacedThrottle = 0.75
)

// due is one scheduled chunk send, at an offset from the schedule
// origin.
type due struct {
	at   time.Duration
	pass int
	k    int
}

type dueHeap []due

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(due)) }
func (h *dueHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// pacedSchedule is the fixed open-loop schedule: session i's stream
// starts at start[i] (relative to the schedule origin) and its chunk k
// is due once its last sample exists, at start[i] + (k+1) chunk
// durations.
type pacedSchedule struct {
	start    []time.Duration
	chunkDur time.Duration
}

// newPacedSchedule lays sessions out as plnet's paced replay runs
// them: pacedFanout slots, each session taking the slot that frees
// first and holding it until its last chunk is due. Session i replays
// pool pass i mod len(pool). Sessions start while the window is open.
// Each slot opens at a seeded offset inside one chunk duration, so the
// slots' sends do not land in lockstep.
func newPacedSchedule(seed int64, pool []fleetPass, window, chunkDur time.Duration) pacedSchedule {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	free := make([]time.Duration, pacedFanout)
	for j := range free {
		free[j] = time.Duration(rng.Int63n(int64(chunkDur)))
	}
	s := pacedSchedule{chunkDur: chunkDur}
	for i := 0; ; i++ {
		j := 0
		for k := range free {
			if free[k] < free[j] {
				j = k
			}
		}
		if free[j] >= window {
			return s
		}
		s.start = append(s.start, free[j])
		free[j] += time.Duration(pool[i%len(pool)].chunks(pacedChunk)) * chunkDur
	}
}

// dueAt is when chunk k of session i was due, relative to the origin.
func (s pacedSchedule) dueAt(i, k int) time.Duration {
	return s.start[i] + time.Duration(k+1)*s.chunkDur
}

// pacedLatencies times every decoded pass, in milliseconds, from when
// its completing chunk was due, not from when the generator actually
// sent it, so a stalled generator delays every later result by the
// stall instead of hiding it. done[i] is when pass i's event reached
// the sink (zero when it did not), completing[i] the chunk that
// completed it.
func pacedLatencies(s pacedSchedule, origin time.Time, completing []int, done []time.Time) []float64 {
	var out []float64
	for i, d := range done {
		if d.IsZero() || completing[i] < 0 {
			continue
		}
		out = append(out, float64(d.Sub(origin.Add(s.dueAt(i, completing[i]))))/1e6)
	}
	return out
}

// pacedSystem is one set-up: the pool, the schedule, the engine, the
// router and the generator's connection.
type pacedSystem struct {
	pool   []fleetPass
	digest string
	sched  pacedSchedule
	eng    *engineSide
	router *cluster.Router
	conn   net.Conn
	w      *bufio.Writer
	// run holds the generator's records, allocated before the heap
	// baseline.
	run pacedRun
	// replayNs is the standalone decoder's cost per sample over the
	// set-up replay that found each pass's completing chunk.
	replayNs float64
}

// close tears the system down; calling it again does nothing.
func (s *pacedSystem) close() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	if s.router != nil {
		s.router.Close()
		s.router = nil
	}
	if s.eng != nil {
		s.eng.close()
		s.eng = nil
	}
}

func setupPaced(cfg runConfig, rec *recorder, hp *heapProbe) (*pacedSystem, time.Duration, error) {
	runtime.GC()
	var clk setupClock
	clk.resume()
	// Keep only passes whose replay completes on quiet hold, and note
	// the chunk that completes each.
	var replayed time.Duration
	var samples int
	var replayErr error
	pool, digest, err := renderFleet(cfg.seed, pacedFanout, pacedTailSec, true, func(p *fleetPass) bool {
		d, err := replayPass(p, pacedChunk)
		if err != nil {
			replayErr = err
			return false
		}
		replayed += d
		samples += len(p.samples)
		return p.completing >= 0
	})
	if err == nil {
		err = replayErr
	}
	if err != nil {
		return nil, 0, err
	}
	clk.pause()
	chunkDur := time.Duration(float64(pacedChunk) / pool[0].fs * float64(time.Second))
	sched := newPacedSchedule(cfg.seed, pool, cfg.window, chunkDur)
	passes := len(sched.start)
	sys := &pacedSystem{pool: pool, digest: digest, sched: sched, replayNs: float64(replayed) / float64(samples), run: pacedRun{
		late:    make([]float64, 0, passes*pacedMaxChunks),
		writeUs: make([]float64, 0, passes*pacedMaxChunks),
	}}
	sink := newSinkLog(2 * passes)
	hp.setBaseline()
	clk.resume()
	eng, err := startEngine(engineOptions{idle: pacedIdle, ack: true, trigger: pacedThrottle, buf: rec.buf(), nodes: 1, sink: sink})
	if err != nil {
		return nil, 0, err
	}
	sys.eng = eng
	ring, err := cluster.NewRing(0, cluster.Member{ID: "engine", Addr: eng.src.Addr()})
	if err == nil {
		sys.router, err = cluster.NewRouter(cluster.RouterConfig{Ring: ring, Metrics: eng.reg})
	}
	var addr string
	if err == nil {
		addr, err = sys.router.Listen("127.0.0.1:0")
	}
	if err == nil {
		sys.conn, err = net.Dial("tcp", addr)
	}
	var hello []byte
	if err == nil {
		sys.w = bufio.NewWriter(sys.conn)
		hello, err = rxnet.MarshalHello(rxnet.Hello{NodeID: 1, Name: "paced-1"})
	}
	if err == nil {
		err = rxnet.WriteFrame(sys.w, rxnet.FrameHello, hello)
	}
	if err == nil {
		err = sys.w.Flush()
	}
	if err == nil {
		// The hello crosses the router and its engine connection: once
		// the pipeline has it, the whole path is up.
		err = eng.awaitHellos(1, drainTimeout)
	}
	if err != nil {
		sys.close()
		return nil, 0, err
	}
	clk.pause()
	return sys, clk.spent, nil
}

// pacedRun is what the generator observed.
type pacedRun struct {
	origin  time.Time
	late    []float64 // microseconds behind schedule, per chunk
	writeUs []float64
	samples int64
}

// generate sends every scheduled chunk at its due time from this one
// goroutine, recording how late each send started.
func (s *pacedSystem) generate(buf *spanBuf) (pacedRun, error) {
	sched := s.sched
	h := make(dueHeap, 0, len(sched.start))
	for i := range sched.start {
		h = append(h, due{at: sched.dueAt(i, 0), pass: i})
	}
	heap.Init(&h)
	run := s.run
	run.origin = time.Now()
	for h.Len() > 0 {
		d := heap.Pop(&h).(due)
		at := run.origin.Add(d.at)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		run.late = append(run.late, float64(now.Sub(at))/1e3)
		p := s.pool[d.pass%len(s.pool)]
		c := p.chunk(d.k, pacedChunk)
		body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
			NodeID: 1, StreamID: uint32(d.pass + 1), Seq: uint32(d.k + 1), Fs: p.fs,
			Start: uint64(d.k * pacedChunk), Samples: c,
		})
		if err != nil {
			return run, err
		}
		sp := buf.begin("rxnet.write", -1, int64(1)<<32|int64(d.pass+1))
		err = rxnet.WriteFrame(s.w, rxnet.FrameSampleChunk, body)
		if err == nil {
			err = s.w.Flush()
		}
		buf.end(sp)
		if err != nil {
			return run, err
		}
		run.writeUs = append(run.writeUs, float64(time.Since(now))/1e3)
		run.samples += int64(len(c))
		if d.k+1 < p.chunks(pacedChunk) {
			heap.Push(&h, due{at: sched.dueAt(d.pass, d.k+1), pass: d.pass, k: d.k + 1})
		}
	}
	return run, nil
}

func runPacedRouted(cfg runConfig, rec *recorder) (*result, error) {
	res := newResult()
	var hp heapProbe
	setups := make([]float64, setupRepeats)
	var sys *pacedSystem
	for r := range setups {
		if sys != nil {
			sys.close()
		}
		r2 := rec
		if r < setupRepeats-1 {
			r2 = nil
		}
		s, d, err := setupPaced(cfg, r2, &hp)
		if err != nil {
			return nil, err
		}
		sys, setups[r] = s, d.Seconds()
	}
	defer sys.close()
	n := len(sys.sched.start)
	shortest, longest := len(sys.pool[0].samples), 0
	for _, p := range sys.pool {
		shortest, longest = min(shortest, len(p.samples)), max(longest, len(p.samples))
	}
	fs := sys.pool[0].fs
	res.notef("inputs: %d fleet-load passes (preset stagger and jitter kept) with a %.1f s ambient tail, %.1f-%.1f s each, %d-sample chunks, digest %s",
		len(sys.pool), pacedTailSec, float64(shortest)/fs, float64(longest)/fs, pacedChunk, sys.digest)

	start := readRuntime()
	run, err := sys.generate(rec.buf())
	if err != nil {
		return nil, fmt.Errorf("paced generator: %w", err)
	}
	if !sys.eng.sink.await(n, drainTimeout) {
		res.notef("gave up waiting for events after %s", drainTimeout)
	}
	win := since(start)
	res.headline["live_heap_mb"] = hp.deltaMB()

	events := byPass(sys.eng.sink.snapshot())
	passChunk := make([]int, n)
	done := make([]time.Time, n)
	for i := 0; i < n; i++ {
		evs := events[uint64(1)<<32|uint64(i+1)]
		p := sys.pool[i%len(sys.pool)]
		class := classifyPass(p.bits, outcomes(evs))
		if class == passOK && evs[0].end != p.end {
			// The online decode completed on a different span than the
			// set-up replay of the same samples: not the pass we meant
			// to time.
			class = passWrong
		}
		res.failures.add(class)
		passChunk[i] = p.completing
		if class == passOK {
			done[i] = evs[0].at
		}
	}
	lat := pacedLatencies(sys.sched, run.origin, passChunk, done)
	t, _ := tailOf(lat)
	sort.Float64s(run.late)
	res.headline["setup_s"] = median(setups)
	res.headline["cpu_ms_per_pass"] = float64(win.cpu) / 1e6 / float64(n)
	// An open loop decodes at its offered rate, so passes_per_s is no
	// result here and stays 0.
	res.headline["latency_p50_ms"] = median(lat)
	res.headline["latency_tail_ms"] = t.Value
	res.notef("open loop: 1 generator, %d sessions at a time, %d passes started in the %s window, %.2f s wall",
		pacedFanout, n, cfg.window, win.wall.Seconds())
	res.notef("latency from due p50 %.3f ms, p%g %.3f ms over %d passes (%d beyond); generator late p50 %.0f us, p99 %.0f us",
		res.headline["latency_p50_ms"], t.Percentile, t.Value, t.Samples, t.Beyond, percentile(run.late, 50), percentile(run.late, 99))
	res.notef("set-up runs (s): %v", setups)

	sys.eng.engineCounters(res)
	snap := sys.eng.reg.Snapshot()
	for _, c := range []struct{ layer, series string }{
		{"cluster.chunks_forwarded", "pl_cluster_chunks_forwarded_total"},
		{"cluster.replayed_chunks", "pl_cluster_replayed_chunks_total"},
		{"cluster.nacks_received", "pl_cluster_nacks_received_total"},
		{"cluster.undeliverable_chunks", "pl_cluster_undeliverable_chunks_total"},
	} {
		v := snap.Counters[c.series]
		res.layers[c.layer] = float64(v)
		if v != 0 && c.layer != "cluster.chunks_forwarded" {
			res.invariant = append(res.invariant, fmt.Sprintf("%s = %d", c.layer, v))
		}
	}
	res.layers["cluster.routes_active"] = snap.Gauges["pl_cluster_routes_active"]
	res.layers["generator.late_us_p99"] = percentile(run.late, 99)
	res.layers["rxnet.write_us_per_chunk"] = median(run.writeUs)
	res.layers["decoder.ok_ratio"] = float64(res.failures.Attempted-res.failures.Failed()) / float64(max(n, 1))
	res.layers["runtime.alloc_kb_per_pass"] = float64(win.allocBytes) / 1024 / float64(max(n, 1))
	res.layers["runtime.gc_cpu_share"] = win.gcShare
	res.layers["transport.latency_p50_us"] = res.headline["latency_p50_ms"]*1e3 - res.layers["stream.detection_latency_p50_us"]
	// The pipeline's pull goroutine records into a span buffer; stop it
	// before folding.
	sys.close()
	if rec != nil {
		folded := rec.fold()
		perChunk := func(name string) float64 {
			return float64(folded[name].Self) / 1e3 / float64(max(folded[name].Count, 1))
		}
		res.layers["source.next_wait_us_per_chunk"] = perChunk("source.next")
		res.layers["source.feed_us_per_chunk"] = perChunk("source.feed")
		unmarshal, err := replayUnmarshal(sys.pool, pacedChunk)
		if err != nil {
			return nil, err
		}
		res.layers["rxnet.unmarshal_ns_per_sample"] = unmarshal
		res.layers["decoder.incremental_ns_per_sample"] = sys.replayNs
		perPassSamples := float64(run.samples) / float64(n)
		busyNs := float64(folded["rxnet.write"].Self+folded["source.feed"].Self)/float64(n) + perPassSamples*(unmarshal+sys.replayNs)
		res.layers["trace.cpu_explained_pct"] = 100 * busyNs / 1e6 / res.headline["cpu_ms_per_pass"]
	}
	return res, nil
}
