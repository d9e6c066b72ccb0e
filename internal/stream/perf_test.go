package stream

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"passivelight/internal/decoder"
)

// engineSteadyStateAllocCeiling is the committed allocs-per-run bound
// for steady-state feed+decode of a small fleet (8 sessions × 4096
// quiet samples, ring drain + decode + synchronous flush per session).
// The pooled-session-state design holds this near zero — the ceiling
// leaves slack for scheduler noise (testing.AllocsPerRun measures
// every goroutine's allocations, including the decode workers') but
// fails loudly if a per-chunk or per-decode-step allocation sneaks
// back onto the hot path: before pooling, the same loop cost several
// hundred allocations per run.
const engineSteadyStateAllocCeiling = 48

// TestEngineSteadyStateAllocs is the alloc-regression guard for the
// engine hot path: feeding and decoding a steady fleet must not hit
// the allocator once rings, decoder buffers and batch slices have
// reached steady state.
func TestEngineSteadyStateAllocs(t *testing.T) {
	const (
		sessions  = 8
		chunkSize = 512
		chunks    = 8
	)
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000},
		Workers:     2,
		Shards:      2,
		IdleTimeout: -1, // no janitor: nothing but the fed work runs
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Quiet baseline samples: the noise tracker settles and no segment
	// ever opens, so every chunk exercises exactly the steady-state
	// path (ring push, worker drain, per-sample state machine,
	// pre-roll trim).
	chunk := make([]float64, chunkSize)
	for i := range chunk {
		chunk[i] = 10
	}
	oneRound := func() {
		for id := uint64(1); id <= sessions; id++ {
			for c := 0; c < chunks; c++ {
				if err := e.FeedTagged(id, 0, chunk, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		// flushSession is synchronous: when it returns, the session
		// ring is empty and the decoder idle — a deterministic
		// steady-state boundary for the measurement.
		for id := uint64(1); id <= sessions; id++ {
			flushSession(t, e, id)
		}
	}
	// Warm up: first rounds grow rings, decoder buffers and the
	// pre-roll to their steady capacity.
	for i := 0; i < 3; i++ {
		oneRound()
	}
	avg := testing.AllocsPerRun(20, oneRound)
	t.Logf("steady-state allocs/run: %.1f (ceiling %d)", avg, engineSteadyStateAllocCeiling)
	if avg > engineSteadyStateAllocCeiling {
		t.Fatalf("engine steady-state feed+decode allocates %.1f/run, above the committed ceiling %d — a hot-path allocation regressed",
			avg, engineSteadyStateAllocCeiling)
	}
}

// TestEngineShardHammer drives every shard from many goroutines at
// once — disjoint session feeds, concurrent Stats/Occupancy polling,
// explicit EndSession churn and janitor eviction — and then checks
// the folded shard-local counters account for every sample. Run under
// -race (CI does) this locks the shard-local accumulator fold-up and
// the pooled session teardown as race-free.
func TestEngineShardHammer(t *testing.T) {
	const (
		feeders    = 8
		perFeeder  = 4 // disjoint sessions per feeder
		duration   = 300 * time.Millisecond
		chunkSize  = 256
		queueLimit = 1 << 15
	)
	e, err := NewEngine(EngineConfig{
		Session:      Config{Fs: 1000},
		Workers:      4,
		Shards:       4,
		QueueSamples: queueLimit,
		IdleTimeout:  40 * time.Millisecond, // janitor evicts mid-hammer
	})
	if err != nil {
		t.Fatal(err)
	}

	var fed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(f)))
			chunk := make([]float64, chunkSize)
			for i := range chunk {
				chunk[i] = 10 + 0.1*rng.NormFloat64()
			}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(f*perFeeder+n%perFeeder) + 1
				if err := e.FeedTagged(id, 0, chunk, 0); err != nil {
					t.Errorf("feed session %d: %v", id, err)
					return
				}
				fed.Add(int64(chunkSize))
				if n%97 == 0 {
					// Session churn: end one of our sessions so the
					// next feed recreates it from the pooled state.
					// An already-evicted session is fine.
					e.EndSession(id)
				}
				if n%31 == 0 {
					runtime.Gosched()
				}
			}
		}(f)
	}
	// Pollers: fold the shard-local counters while feeders write them.
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := e.Stats()
				if st.SamplesIn < 0 || st.BufferedSamples < 0 {
					t.Error("stats went negative")
					return
				}
				_ = e.Occupancy()
				runtime.Gosched()
			}
		}()
	}
	// Consumer: drain batches (quiet data decodes to errors at most)
	// and recycle them, the consumer contract the pipeline follows.
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for batch := range e.Batches() {
			RecycleBatch(batch)
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	// With the feeders quiet, the janitor (period IdleTimeout/4) must
	// evict the whole fleet — this is the concurrent-eviction leg, and
	// it races only against the pollers still folding Stats.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Sessions > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	evicted := e.Stats().Evicted
	e.Close()
	<-consumerDone

	st := e.Stats()
	if st.SamplesIn != fed.Load() {
		t.Fatalf("accepted %d samples, fed %d — shard counter fold-up lost samples", st.SamplesIn, fed.Load())
	}
	if st.DroppedSamples != 0 {
		t.Fatalf("dropped %d samples with rings far below capacity", st.DroppedSamples)
	}
	if evicted == 0 {
		t.Fatal("janitor evicted nothing after the feeders stopped")
	}
	if st.Sessions != 0 {
		t.Fatalf("%d sessions still tracked after idle eviction window", st.Sessions)
	}
	t.Logf("hammer: %d samples, %d evictions", st.SamplesIn, st.Evicted)
}

// TestEngineSessionStateRecycled pins the pooled-state contract: a
// drained or ended session holds no ring array, and the arrays drained
// sessions hand back serve the sessions that follow instead of fresh
// allocations.
func TestEngineSessionStateRecycled(t *testing.T) {
	// One P, so the worker's pool puts and this goroutine's gets share
	// one per-P pool cache.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const queue = 1 << 15
	e, err := NewEngine(EngineConfig{
		Session:      Config{Fs: 1000},
		Workers:      1,
		Shards:       1,
		QueueSamples: queue,
		IdleTimeout:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	chunk := make([]float64, queue)
	for i := range chunk {
		chunk[i] = 10
	}
	holdsRing := func(s *session) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.rng.buf != nil || s.rng.box != nil
	}
	cycle := func(id uint64) {
		if err := e.FeedTagged(id, 0, chunk, 0); err != nil {
			t.Fatal(err)
		}
		flushSession(t, e, id)
		e.shards[0].mu.Lock()
		s := e.shards[0].sessions[id]
		e.shards[0].mu.Unlock()
		if holdsRing(s) {
			t.Fatalf("session %d still holds a ring array after flushSession drained it", id)
		}
		if err := e.EndSession(id); err != nil {
			t.Fatal(err)
		}
		if holdsRing(s) {
			t.Fatalf("ended session %d holds a ring array", id)
		}
	}
	for id := uint64(1); id <= 3; id++ {
		cycle(id) // warm the pools
	}
	const cycles = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := uint64(100); id < 100+cycles; id++ {
		cycle(id)
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	// Each new session still allocates its decoder's pre-roll buffer
	// (2×1000 samples, 16 KB); a fresh ring array would add 256 KB.
	// Half the array leaves room for the race detector, whose sync.Pool
	// drops a quarter of all puts on purpose.
	if arrayBytes := uint64(8 * queue); perCycle >= arrayBytes/2 {
		t.Fatalf("each session cycle allocates %d B; the %d B ring array is not reused from the pool", perCycle, arrayBytes)
	}
}

// TestEngineIdleSessionsHoldPreRollOnly is the per-session memory
// bound: once every session has decoded its pass and sits in its
// ambient tail, it holds no ring array and at most 2×PreRollSamples of
// decoder buffer capacity, whatever its segment grew to.
func TestEngineIdleSessionsHoldPreRollOnly(t *testing.T) {
	const (
		sessions = 16
		preRoll  = 1000 // PreRollSec 1 at 1 kHz
		chunk    = 512
	)
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000, PreRollSec: 1, Decode: decoder.Options{ExpectedSymbols: 12}},
		Workers:     2,
		IdleTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	decoded := make(chan struct{}, sessions)
	go func() {
		for det := range detections(e) {
			if det.Err == nil {
				decoded <- struct{}{}
			}
		}
	}()
	// A quiet lead-in, one pass and a 2.5 s ambient tail: the tail
	// outlasts the 1.5 s quiet hold, so every segment completes on the
	// worker while the session stays live.
	for id := uint64(1); id <= sessions; id++ {
		trace := sessionStream([]string{"1001"}, 1000, 0.2, 2.5, 0.3, int64(id))
		for lo := 0; lo < len(trace); lo += chunk {
			if err := e.FeedTagged(id, 0, trace[lo:min(lo+chunk, len(trace))], 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < sessions; i++ {
		select {
		case <-decoded:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d sessions decoded", i, sessions)
		}
	}
	// Wait for the workers to finish the tails, then inspect each
	// session under its lock with no claim outstanding.
	deadline := time.Now().Add(5 * time.Second)
	for id := uint64(1); id <= sessions; id++ {
		sh := e.shardOf(id)
		sh.mu.Lock()
		s := sh.sessions[id]
		sh.mu.Unlock()
		for {
			s.mu.Lock()
			if !s.scheduled && s.rng.len() == 0 {
				break
			}
			s.mu.Unlock()
			if time.Now().After(deadline) {
				t.Fatalf("session %d never went idle", id)
			}
			time.Sleep(time.Millisecond)
		}
		ringCap, decCap := s.rng.retained(), s.dec.Retained()
		s.mu.Unlock()
		if ringCap != 0 {
			t.Errorf("idle session %d holds a %d-sample ring array", id, ringCap)
		}
		if decCap > 2*preRoll {
			t.Errorf("idle session %d holds %d samples of decoder buffers, bound %d", id, decCap, 2*preRoll)
		}
	}
	if st, bound := e.Stats(), int64(sessions*2*preRoll*8); st.RetainedBytes > bound {
		t.Errorf("engine retains %d B across idle sessions, bound %d B", st.RetainedBytes, bound)
	}
}

// TestEngineOversizedFeedWakesOnRelease pins Feed's backpressure: a
// feed many times QueueSamples long waits for the worker to release
// the session at each refill instead of sleep-polling, so it finishes
// well inside the old 1 ms-per-refill floor.
func TestEngineOversizedFeedWakesOnRelease(t *testing.T) {
	const (
		queue   = 256
		refills = 1000
	)
	e, err := NewEngine(EngineConfig{
		Session:      Config{Fs: 1000},
		Workers:      1,
		QueueSamples: queue,
		IdleTimeout:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	quiet := make([]float64, queue*refills)
	for i := range quiet {
		quiet[i] = 10
	}
	start := time.Now()
	if err := e.FeedTagged(1, 0, quiet, 0); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if floor := refills * time.Millisecond; elapsed >= floor/2 {
		t.Fatalf("feeding %d ring refills took %v, at the sleep-poll floor of %v", refills, elapsed, floor)
	}
	flushSession(t, e, 1)
	if st := e.Stats(); st.SamplesIn != int64(len(quiet)) || st.DroppedSamples != 0 {
		t.Fatalf("accepted %d of %d samples, dropped %d", st.SamplesIn, len(quiet), st.DroppedSamples)
	}
	t.Logf("%d refills in %v", refills, elapsed)
}

// TestRingLazyGrowth pins the lazy-allocation contract: a fresh ring
// owns no backing store, materializes it geometrically as pushes
// arrive, and never exceeds the configured bound.
func TestRingLazyGrowth(t *testing.T) {
	r := newRing(1 << 15)
	if got := len(r.buf); got != 0 {
		t.Fatalf("fresh ring materialized %d samples of backing store", got)
	}
	r.push(make([]float64, 100))
	if got := len(r.buf); got > 1024 {
		t.Fatalf("100-sample ring materialized %d samples", got)
	}
	if d := r.push(make([]float64, 5000)); d != 0 {
		t.Fatalf("dropped %d below capacity", d)
	}
	if got, want := r.len(), 5100; got != want {
		t.Fatalf("len %d, want %d", got, want)
	}
	if len(r.buf) > 1<<15 {
		t.Fatalf("backing store %d exceeds bound %d", len(r.buf), 1<<15)
	}
	out := ringContents(r)
	if len(out) != 5100 {
		t.Fatalf("drained %d", len(out))
	}
	// Overflow only at the bound.
	small := newRing(8)
	small.push([]float64{1, 2, 3, 4, 5, 6})
	if d := small.push([]float64{7, 8, 9, 10}); d != 2 {
		t.Fatalf("dropped %d at bound, want 2", d)
	}
	got := ringContents(small)
	want := []float64{3, 4, 5, 6, 7, 8, 9, 10}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
