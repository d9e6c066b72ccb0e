package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"passivelight/internal/rxnet"
)

// Flood-direct workload: a closed loop limited only by TCP
// backpressure. nproc node connections stream pre-rendered fleet passes
// straight into the pipeline's listener, floodInFlight sessions per
// connection interleaved chunk by chunk as distinct stream ids, and
// end every session with a StreamEnd frame, so a pass completes on
// decode, never on an idle timer.

const (
	// floodChunk is plnet's default chunk size.
	floodChunk = 1024
	// floodInFlight is how many sessions each connection interleaves.
	floodInFlight = 4
	// drainTimeout bounds the wait for the last events after the
	// generators stop; a pass still missing then is a failure.
	drainTimeout = 30 * time.Second
)

// floodAttempt is one pass a generator sent in full.
type floodAttempt struct {
	session uint64
	pass    int
	first   time.Time // first chunk write began
}

// floodSession is one in-flight session on a connection.
type floodSession struct {
	attempt floodAttempt
	stream  uint32
	seq     uint32
	k       int // next chunk
}

// floodGen streams passes over one connection until the deadline, then
// finishes the sessions in flight.
type floodGen struct {
	conn     net.Conn
	w        *bufio.Writer
	node     uint32
	index    int // this generator's position among nproc
	gens     int
	pool     []fleetPass
	buf      *spanBuf
	occ      func() float64
	attempts []floodAttempt
	samples  int64
	occSum   float64
	occN     int
}

func (g *floodGen) writeFrame(t rxnet.FrameType, body []byte, pass int64) error {
	s := g.buf.begin("rxnet.write", -1, pass)
	err := rxnet.WriteFrame(g.w, t, body)
	if err == nil {
		err = g.w.Flush()
	}
	g.buf.end(s)
	return err
}

func (g *floodGen) run(deadline time.Time) error {
	var active []*floodSession
	started := 0
	open := func() {
		// Generator g takes pool passes g, g+gens, g+2*gens, ... so the
		// connections never send the same pass at once.
		stream := uint32(started + 1)
		pass := (g.index + g.gens*started) % len(g.pool)
		started++
		active = append(active, &floodSession{
			attempt: floodAttempt{session: uint64(g.node)<<32 | uint64(stream), pass: pass},
			stream:  stream,
		})
	}
	for i := 0; i < floodInFlight; i++ {
		open()
	}
	for len(active) > 0 {
		for i := 0; i < len(active); {
			s := active[i]
			p := g.pool[s.attempt.pass]
			id := int64(s.attempt.session)
			if s.k == p.chunks(floodChunk) {
				if err := g.writeFrame(rxnet.FrameStreamEnd, rxnet.MarshalStreamEnd(rxnet.StreamEnd{Session: s.attempt.session}), id); err != nil {
					return err
				}
				g.attempts = append(g.attempts, s.attempt)
				if g.buf != nil {
					g.occSum += g.occ()
					g.occN++
				}
				active = append(active[:i], active[i+1:]...)
				if time.Now().Before(deadline) {
					open()
				}
				continue
			}
			c := p.chunk(s.k, floodChunk)
			if s.k == 0 {
				s.attempt.first = time.Now()
			}
			s.seq++
			m := g.buf.begin("rxnet.marshal", -1, id)
			body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
				NodeID: g.node, StreamID: s.stream, Seq: s.seq, Fs: p.fs,
				Start: uint64(s.k * floodChunk), Samples: c,
			})
			g.buf.end(m)
			if err != nil {
				return err
			}
			if err := g.writeFrame(rxnet.FrameSampleChunk, body, id); err != nil {
				return err
			}
			g.samples += int64(len(c))
			s.k++
			i++
		}
	}
	return nil
}

// floodSystem is one set-up: the rendered pool, the engine and the
// node connections.
type floodSystem struct {
	pool   []fleetPass
	digest string
	eng    *engineSide
	gens   []*floodGen
}

// close tears the system down; calling it again does nothing.
func (s *floodSystem) close() {
	for _, g := range s.gens {
		g.conn.Close()
	}
	s.gens = nil
	if s.eng != nil {
		s.eng.close()
		s.eng = nil
	}
}

func setupFlood(cfg runConfig, rec *recorder, heap *heapProbe) (*floodSystem, time.Duration, error) {
	runtime.GC()
	var clk setupClock
	clk.resume()
	pool, digest, err := renderFleet(cfg.seed, fleetPool, 0, false, nil)
	if err != nil {
		return nil, 0, err
	}
	clk.pause()
	// Bookkeeping sized for a minute at several times the measured
	// rate, allocated before the baseline.
	sink := newSinkLog(1 << 17)
	attempts := make([][]floodAttempt, cfg.procs)
	for i := range attempts {
		attempts[i] = make([]floodAttempt, 0, (1<<17)/cfg.procs)
	}
	heap.setBaseline()
	clk.resume()
	sys := &floodSystem{pool: pool, digest: digest}
	eng, err := startEngine(engineOptions{buf: rec.buf(), nodes: cfg.procs, sink: sink})
	if err != nil {
		return nil, 0, err
	}
	sys.eng = eng
	for i := 0; i < cfg.procs; i++ {
		conn, err := net.Dial("tcp", eng.src.Addr())
		if err != nil {
			sys.close()
			return nil, 0, err
		}
		g := &floodGen{conn: conn, w: bufio.NewWriterSize(conn, 64<<10), node: uint32(i + 1), index: i, gens: cfg.procs,
			pool: pool, buf: rec.buf(), occ: eng.pipe.Occupancy, attempts: attempts[i]}
		sys.gens = append(sys.gens, g)
		hello, err := rxnet.MarshalHello(rxnet.Hello{NodeID: g.node, Name: fmt.Sprintf("flood-%d", i+1)})
		if err == nil {
			err = g.writeFrame(rxnet.FrameHello, hello, -1)
		}
		if err != nil {
			sys.close()
			return nil, 0, err
		}
	}
	if err := eng.awaitHellos(cfg.procs, drainTimeout); err != nil {
		sys.close()
		return nil, 0, err
	}
	clk.pause()
	return sys, clk.spent, nil
}

func runFloodDirect(cfg runConfig, rec *recorder) (*result, error) {
	res := newResult()
	var heap heapProbe
	setups := make([]float64, setupRepeats)
	var sys *floodSystem
	for r := range setups {
		if sys != nil {
			sys.close()
		}
		// Only the last set-up is used; a traced run records spans in
		// that one alone.
		r2 := rec
		if r < setupRepeats-1 {
			r2 = nil
		}
		s, d, err := setupFlood(cfg, r2, &heap)
		if err != nil {
			return nil, err
		}
		sys, setups[r] = s, d.Seconds()
	}
	defer sys.close()
	total := 0
	for _, p := range sys.pool {
		total += len(p.samples)
	}
	res.notef("inputs: %d fleet-load passes, %.0f samples each on average, %d-sample chunks, digest %s",
		len(sys.pool), float64(total)/float64(len(sys.pool)), floodChunk, sys.digest)

	start := readRuntime()
	deadline := start.wall.Add(cfg.window)
	var wg sync.WaitGroup
	var genErr atomic.Value
	for _, g := range sys.gens {
		wg.Add(1)
		go func(g *floodGen) {
			defer wg.Done()
			if err := g.run(deadline); err != nil {
				genErr.Store(err)
			}
		}(g)
	}
	// The window closes at the deadline; sessions still in flight then
	// finish and are checked, but do not count towards the rate.
	time.Sleep(time.Until(deadline))
	win := since(start)
	wg.Wait()
	if err, _ := genErr.Load().(error); err != nil {
		return nil, fmt.Errorf("flood generator: %w", err)
	}
	sent := 0
	for _, g := range sys.gens {
		sent += len(g.attempts)
	}
	if !sys.eng.sink.await(sent, drainTimeout) {
		res.notef("gave up waiting for events after %s", drainTimeout)
	}
	// Read the heap before the benchmark builds its own tables below.
	res.headline["live_heap_mb"] = heap.deltaMB()
	var attempts []floodAttempt
	var samples int64
	var occSum float64
	var occN int
	for _, g := range sys.gens {
		attempts = append(attempts, g.attempts...)
		samples += g.samples
		occSum += g.occSum
		occN += g.occN
	}
	events := byPass(sys.eng.sink.snapshot())
	var turnaround []float64
	inWindow := 0
	for _, a := range attempts {
		evs := events[a.session]
		class := classifyPass(sys.pool[a.pass].bits, outcomes(evs))
		res.failures.add(class)
		if class == passOK && !evs[0].at.After(deadline) {
			inWindow++
			turnaround = append(turnaround, float64(evs[0].at.Sub(a.first))/1e6)
		}
	}
	res.headline["setup_s"] = median(setups)
	res.headline["passes_per_s"] = float64(inWindow) / win.wall.Seconds()
	res.headline["cpu_ms_per_pass"] = float64(win.cpu) / 1e6 / float64(max(inWindow, 1))
	// No latency under flood: the latency figures stay 0. Under
	// saturation pass turnaround is the work in flight divided by
	// throughput, so it is printed as a note only.
	t, _ := tailOf(turnaround)
	res.notef("closed loop: %d connections x %d sessions in flight; %d passes decoded in the %.2f s window (%d attempted in all)",
		len(sys.gens), floodInFlight, inWindow, win.wall.Seconds(), len(attempts))
	res.notef("pass turnaround (first chunk written to event) p50 %.2f ms, p%g %.2f ms over %d passes (%d beyond); a saturation figure, not a latency",
		median(turnaround), t.Percentile, t.Value, t.Samples, t.Beyond)
	res.notef("set-up runs (s): %v", setups)

	sys.eng.engineCounters(res)
	res.layers["decoder.ok_ratio"] = float64(res.failures.Attempted-res.failures.Failed()) / float64(max(res.failures.Attempted, 1))
	res.layers["runtime.alloc_kb_per_pass"] = float64(win.allocBytes) / 1024 / float64(max(inWindow, 1))
	res.layers["runtime.gc_cpu_share"] = win.gcShare
	// The pipeline's pull goroutine records into a span buffer; stop it
	// before folding.
	sys.close()
	if rec != nil {
		folded := rec.fold()
		perChunk := func(name string) float64 {
			return float64(folded[name].Self) / 1e3 / float64(max(folded[name].Count, 1))
		}
		res.layers["rxnet.marshal_ns_per_sample"] = float64(folded["rxnet.marshal"].Self) / float64(max(samples, 1))
		res.layers["rxnet.write_blocked_us_per_chunk"] = perChunk("rxnet.write")
		res.layers["source.next_wait_us_per_chunk"] = perChunk("source.next")
		res.layers["source.feed_us_per_chunk"] = perChunk("source.feed")
		if occN > 0 {
			res.layers["stream.occupancy_mean"] = occSum / float64(occN)
		}
		unmarshal, err := replayUnmarshal(sys.pool, floodChunk)
		if err != nil {
			return nil, err
		}
		incremental, err := replayDecode(sys.pool, floodChunk)
		if err != nil {
			return nil, err
		}
		res.layers["rxnet.unmarshal_ns_per_sample"] = unmarshal
		res.layers["decoder.incremental_ns_per_sample"] = incremental
		// Busy time per pass: the generator's marshal and the replayed
		// per-sample costs of parsing and decoding, against the CPU the
		// window spent per pass. The pull loop's feed time is left out:
		// under flood it is mostly spent blocked on the engine.
		perPassSamples := float64(samples) / float64(max(len(attempts), 1))
		busyNs := float64(folded["rxnet.marshal"].Self)/float64(max(len(attempts), 1)) +
			perPassSamples*(unmarshal+incremental)
		res.layers["trace.cpu_explained_pct"] = 100 * busyNs / 1e6 / res.headline["cpu_ms_per_pass"]
	}
	return res, nil
}
