package stream

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"passivelight/internal/coding"
	"passivelight/internal/decoder"
	"passivelight/internal/telemetry"
)

// sessionStream synthesizes what one receiver node sees: quiet noise,
// a packet pass, quiet, another pass, quiet.
func sessionStream(payloads []string, fs, symbolDur, gapSec, noise float64, seed int64) []float64 {
	const high, low, baseline = 90.0, 12.0, 10.0
	rng := rand.New(rand.NewSource(seed))
	gap := int(gapSec * fs)
	perSymbol := int(symbolDur * fs)
	var out []float64
	appendQuiet := func(n int) {
		for i := 0; i < n; i++ {
			out = append(out, baseline+noise*rng.NormFloat64())
		}
	}
	appendQuiet(gap)
	for _, p := range payloads {
		for _, s := range coding.MustPacket(p).Symbols() {
			level := low
			if s == coding.High {
				level = high
			}
			for i := 0; i < perSymbol; i++ {
				out = append(out, level+noise*rng.NormFloat64())
			}
		}
		appendQuiet(gap)
	}
	return out
}

// detections flattens the engine's Batches into one detection per
// receive. Call it once per engine; the channel closes after Close has
// flushed every session. The buffer matches the engine's default
// DetectionBuffer, so a test that reads only after feeding everything
// never stalls the engine's output.
func detections(e *Engine) <-chan Detection {
	out := make(chan Detection, 1024)
	go func() {
		defer close(out)
		for batch := range e.Batches() {
			for _, det := range batch {
				out <- det
			}
			RecycleBatch(batch)
		}
	}()
	return out
}

// flushSession decodes session id's pending samples and flushes its
// open segment on the calling goroutine; the session stays registered.
func flushSession(t *testing.T, e *Engine, id uint64) {
	t.Helper()
	sh := e.shardOf(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	sh.mu.Unlock()
	if !ok {
		t.Fatalf("session %d not tracked", id)
	}
	e.drainNow(s)
}

// TestEngineConcurrentSessions drives well over 100 sessions through
// the worker pool at once and checks every session decodes both of
// its passes, with memory staying far below the total sample volume.
func TestEngineConcurrentSessions(t *testing.T) {
	const sessions = 120
	// A fixed 4-bit packet format, as a real installation would use —
	// ExpectedSymbols pins the grid length, which is what makes the
	// decode robust against clock aliases at this noise level.
	payloadSet := []string{"1001", "0110", "1100", "0011"}
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000, Decode: decoder.Options{ExpectedSymbols: 12}},
		IdleTimeout: -1, // deterministic: no eviction mid-test
	})
	if err != nil {
		t.Fatal(err)
	}
	dets := detections(e)
	defer e.Close()

	streams := make([][]float64, sessions)
	wants := make([]string, sessions)
	totalSamples := 0
	for i := range streams {
		p := payloadSet[i%len(payloadSet)]
		wants[i] = p
		streams[i] = sessionStream([]string{p, p}, 1000, 0.2, 2.5, 0.3, int64(i+1))
		totalSamples += len(streams[i])
	}

	// Collect detections as they are emitted.
	var detMu sync.Mutex
	got := make(map[uint64][]string)
	var collect sync.WaitGroup
	collect.Add(1)
	go func() {
		defer collect.Done()
		for det := range dets {
			if det.Err == nil {
				detMu.Lock()
				got[det.Session] = append(got[det.Session], det.BitString())
				detMu.Unlock()
			}
		}
	}()

	// Shard sessions across feeders: per-session chunk order is the
	// caller's responsibility, cross-session concurrency is the
	// engine's.
	const feeders = 8
	var feed sync.WaitGroup
	for f := 0; f < feeders; f++ {
		feed.Add(1)
		go func(f int) {
			defer feed.Done()
			const chunk = 512
			for id := f; id < sessions; id += feeders {
				s := streams[id]
				for lo := 0; lo < len(s); lo += chunk {
					hi := min(lo+chunk, len(s))
					if err := e.FeedTagged(uint64(id), 0, s[lo:hi], 0); err != nil {
						t.Errorf("feed %d: %v", id, err)
						return
					}
				}
			}
		}(f)
	}
	feed.Wait()

	st := e.Stats()
	if st.Sessions != sessions {
		t.Fatalf("sessions %d, want %d", st.Sessions, sessions)
	}
	if st.SamplesIn != int64(totalSamples) {
		t.Fatalf("samples in %d, want %d", st.SamplesIn, totalSamples)
	}
	if st.DroppedSamples != 0 {
		t.Fatalf("dropped %d samples", st.DroppedSamples)
	}
	// Bounded memory: once the workers catch up, sessions retain only
	// pre-roll context and open segments, never whole streams. Each
	// session's steady-state footprint is about a pre-roll (1 s = 1000
	// samples) plus a partial segment — far below its ~12k stream.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st = e.Stats()
		if st.BufferedSamples < int64(sessions)*4000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("buffered %d of %d samples fed — unbounded growth", st.BufferedSamples, st.SamplesIn)
		}
		time.Sleep(10 * time.Millisecond)
	}

	for id := 0; id < sessions; id++ {
		flushSession(t, e, uint64(id))
	}
	e.Close()
	collect.Wait()

	for id := 0; id < sessions; id++ {
		bits := got[uint64(id)]
		if len(bits) != 2 {
			t.Fatalf("session %d decoded %v, want 2 passes of %q", id, bits, wants[id])
		}
		for _, b := range bits {
			if b != wants[id] {
				t.Fatalf("session %d decoded %v, want %q", id, bits, wants[id])
			}
		}
	}
}

func TestEngineIdleEviction(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000},
		IdleTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dets := detections(e)
	defer e.Close()
	s := sessionStream([]string{"10"}, 1000, 0.2, 2.0, 0.3, 3)
	// Withhold the trailing quiet so the segment stays open and only
	// the eviction flush can complete it.
	if err := e.FeedTagged(7, 0, s[:len(s)-1900], 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.Stats()
		if st.Evicted >= 1 {
			if st.Sessions != 0 {
				t.Fatalf("evicted but %d sessions remain", st.Sessions)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no eviction after 5 s: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	det := <-dets
	if det.Err != nil || det.BitString() != "10" {
		t.Fatalf("eviction flush produced %q (err %v), want 10", det.BitString(), det.Err)
	}
	// The evicted id starts a fresh session on the next feed.
	if err := e.FeedTagged(7, 0, s[:100], 0); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Sessions != 1 {
		t.Fatalf("refeed after eviction: %d sessions", st.Sessions)
	}
}

// TestEngineFlushAllAfterEviction pins the eviction/flush claim
// protocol: FlushAll on sessions the janitor has already evicted (or
// is evicting concurrently) must return, not spin on the stale
// pointers.
func TestEngineFlushAllAfterEviction(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000},
		IdleTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := sessionStream([]string{"10"}, 1000, 0.2, 2.0, 0.3, 3)
	for id := uint64(0); id < 8; id++ {
		if err := e.FeedTagged(id, 0, s, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Hammer FlushAll while the janitor evicts underneath it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(deadline) {
			e.FlushAll()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("FlushAll deadlocked against eviction")
	}
	// Evicted ids accept new feeds as fresh sessions.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions not evicted: %+v", e.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := e.FeedTagged(3, 0, s[:100], 0); err != nil {
		t.Fatal(err)
	}
}

func TestEngineEndSession(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000},
		IdleTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dets := detections(e)
	defer e.Close()
	s := sessionStream([]string{"10"}, 1000, 0.2, 2.0, 0.3, 3)
	// Withhold the trailing quiet: only EndSession's flush completes
	// the segment.
	if err := e.FeedTagged(5, 0, s[:len(s)-1900], 0); err != nil {
		t.Fatal(err)
	}
	if err := e.EndSession(5); err != nil {
		t.Fatal(err)
	}
	det := <-dets
	if det.Err != nil || det.BitString() != "10" {
		t.Fatalf("end-session flush produced %q (err %v)", det.BitString(), det.Err)
	}
	if st := e.Stats(); st.Sessions != 0 {
		t.Fatalf("%d sessions after EndSession", st.Sessions)
	}
	if err := e.EndSession(5); err == nil {
		t.Fatal("ending a gone session should error")
	}
	// The id restarts cleanly.
	if err := e.FeedTagged(5, 0, s, 0); err != nil {
		t.Fatal(err)
	}
	flushSession(t, e, 5)
	det = <-dets
	if det.Err != nil || det.BitString() != "10" {
		t.Fatalf("restarted session produced %q (err %v)", det.BitString(), det.Err)
	}
}

// holdDrainClaim waits for the workers to let go of session id, then
// takes its scheduled claim the way a worker does when it starts a
// drain, and returns the session so the test can release it again.
func holdDrainClaim(t *testing.T, e *Engine, id uint64) *session {
	t.Helper()
	sh := e.shardOf(id)
	sh.mu.Lock()
	s := sh.sessions[id]
	sh.mu.Unlock()
	if s == nil {
		t.Fatalf("session %d not tracked", id)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		if !s.scheduled && s.rng.len() == 0 {
			s.scheduled = true
			s.mu.Unlock()
			return s
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("worker never released the session")
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitClaimWaiter blocks until some goroutine waits on s's claim.
func awaitClaimWaiter(t *testing.T, s *session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		waiting := s.released != nil
		s.mu.Unlock()
		if waiting {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("nobody started waiting for the drain claim")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineEndSessionMidDrain ends a session while a worker holds its
// drain claim (run with -race in CI). EndSession must wait for the
// claim rather than tear the decoder down under the worker, return
// once the worker releases it, and publish the flushed pass exactly
// once.
func TestEngineEndSessionMidDrain(t *testing.T) {
	var ends sync.Map
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000},
		Workers:     1,
		IdleTimeout: -1,
		OnSessionEnd: func(id uint64, _ SessionStats, reason string, _ uint64) {
			if _, dup := ends.LoadOrStore(id, reason); dup {
				t.Errorf("session %d released twice", id)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dets := detections(e)
	defer e.Close()
	s := sessionStream([]string{"10"}, 1000, 0.2, 2.0, 0.3, 3)
	if err := e.FeedTagged(9, 0, s[:len(s)-1900], 0); err != nil {
		t.Fatal(err)
	}
	held := holdDrainClaim(t, e, 9)
	done := make(chan error, 1)
	go func() { done <- e.EndSession(9) }()
	awaitClaimWaiter(t, held)
	select {
	case err := <-done:
		t.Fatalf("EndSession returned %v while a worker held the drain claim", err)
	default:
	}
	// The worker's drain finds the ring empty and lets go.
	held.mu.Lock()
	held.unschedule()
	held.mu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EndSession still blocked after the claim was released")
	}
	det := <-dets
	if det.Err != nil || det.BitString() != "10" {
		t.Fatalf("end-session flush produced %q (err %v)", det.BitString(), det.Err)
	}
	if reason, _ := ends.Load(uint64(9)); reason != "end" {
		t.Fatalf("release reason %v, want end", reason)
	}
	select {
	case extra := <-dets:
		t.Fatalf("pass published twice: extra %+v", extra)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestEngineCloseWhileEndSessionWaits closes the engine while an
// EndSession waits on a held drain claim: the waiter must give up with
// ErrEngineClosed and hand the session back, so Close's sweep flushes
// it and releases it once, as "close".
func TestEngineCloseWhileEndSessionWaits(t *testing.T) {
	var ends sync.Map
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000},
		Workers:     1,
		IdleTimeout: -1,
		OnSessionEnd: func(id uint64, _ SessionStats, reason string, _ uint64) {
			if _, dup := ends.LoadOrStore(id, reason); dup {
				t.Errorf("session %d released twice", id)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dets := detections(e)
	s := sessionStream([]string{"10"}, 1000, 0.2, 2.0, 0.3, 3)
	if err := e.FeedTagged(4, 0, s[:len(s)-1900], 0); err != nil {
		t.Fatal(err)
	}
	held := holdDrainClaim(t, e, 4)
	done := make(chan error, 1)
	go func() { done <- e.EndSession(4) }()
	awaitClaimWaiter(t, held)
	e.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("EndSession during Close returned %v, want ErrEngineClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EndSession did not return after Close")
	}
	if reason, _ := ends.Load(uint64(4)); reason != "close" {
		t.Fatalf("release reason %v, want close", reason)
	}
	var bits []string
	for det := range dets {
		bits = append(bits, det.BitString())
	}
	if len(bits) != 1 || bits[0] != "10" {
		t.Fatalf("close flush published %q, want one \"10\"", bits)
	}
}

// TestEngineOversizedFeed replays a whole recorded stream in one Feed
// call larger than the ring: the head must not be structurally
// evicted before a worker drains it.
func TestEngineOversizedFeed(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		Session:      Config{Fs: 1000},
		QueueSamples: 1024,
		IdleTimeout:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dets := detections(e)
	defer e.Close()
	s := sessionStream([]string{"10"}, 1000, 0.2, 2.0, 0.3, 3) // ~5600 samples >> 1024
	if err := e.FeedTagged(1, 0, s, 0); err != nil {
		t.Fatal(err)
	}
	flushSession(t, e, 1)
	det := <-dets
	if det.Err != nil || det.BitString() != "10" {
		t.Fatalf("oversized feed decoded %q (err %v); stats %+v", det.BitString(), det.Err, e.Stats())
	}
}

// TestEngineNegativeWorkers pins the config clamp: a negative worker
// count (e.g. a miswired WithWorkers(-1)) must select the default
// pool, not panic on a negative shard slice.
func TestEngineNegativeWorkers(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000},
		Workers:     -1,
		IdleTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dets := detections(e)
	defer e.Close()
	s := sessionStream([]string{"10"}, 1000, 0.2, 2.0, 0.3, 3)
	if err := e.FeedTagged(1, 0, s, 0); err != nil {
		t.Fatal(err)
	}
	flushSession(t, e, 1)
	det := <-dets
	if det.Err != nil || det.BitString() != "10" {
		t.Fatalf("decoded %q (err %v)", det.BitString(), det.Err)
	}
}

func TestEngineGuards(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000},
		MaxSessions: 2,
		IdleTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	chunk := make([]float64, 64)
	if err := e.FeedTagged(1, 0, chunk, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.FeedTagged(2, 4000, chunk, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.FeedTagged(3, 0, chunk, 0); err == nil {
		t.Fatal("session table full should reject")
	}
	if err := e.FeedTagged(2, 8000, chunk, 0); err == nil {
		t.Fatal("fs mismatch should reject")
	}
	if err := e.FeedTagged(2, 4000, chunk, 0); err != nil {
		t.Fatalf("matching fs rejected: %v", err)
	}
	st := e.Stats()
	if st.DroppedSamples != 128 {
		t.Fatalf("dropped %d, want 128 (table-full chunk + fs-mismatch chunk)", st.DroppedSamples)
	}
	e.Close()
	if err := e.FeedTagged(1, 0, chunk, 0); err == nil {
		t.Fatal("feed after close should fail")
	}
}

// TestEngineTelemetry checks the metrics registry mirrors Stats after
// a decode round and that the live histograms saw the decode steps.
func TestEngineTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000, Decode: decoder.Options{ExpectedSymbols: 12}},
		IdleTimeout: -1,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	go func() {
		got := 0
		for batch := range e.Batches() {
			for _, det := range batch {
				if det.Err == nil {
					got++
				}
				if det.Arrival.IsZero() {
					t.Error("detection carries no Arrival stamp")
				}
			}
		}
		done <- got
	}()
	stream := sessionStream([]string{"1001", "0110"}, 1000, 0.2, 2.5, 0.3, 7)
	if err := e.FeedTagged(1, 0, stream, 0); err != nil {
		t.Fatal(err)
	}
	e.FlushAll()
	st := e.Stats()
	e.Close()
	if got := <-done; got != 2 {
		t.Fatalf("decoded %d packets, want 2", got)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["pl_engine_samples_in_total"]; got != st.SamplesIn {
		t.Fatalf("samples_in = %d, want %d", got, st.SamplesIn)
	}
	if got := snap.Counters["pl_engine_detections_total"]; got != 2 {
		t.Fatalf("detections_total = %d, want 2", got)
	}
	lat := snap.Histograms["pl_engine_detection_latency_ns"]
	if lat.Count != st.Detections+st.DecodeErrors {
		t.Fatalf("latency histogram count = %d, want %d", lat.Count, st.Detections+st.DecodeErrors)
	}
	if lat.Max <= 0 {
		t.Fatalf("latency histogram never observed a positive latency: %+v", lat)
	}
	if steps := snap.Histograms["pl_engine_decode_step_ns"]; steps.Count == 0 {
		t.Fatal("decode step histogram never recorded")
	}
}

// TestEngineOnSessionEnd locks in the session-release hook: exactly
// one callback per released session, after the final flush, with the
// release reason ("end" | "idle" | "close") and the session's decode
// totals — the export point cluster handoffs rely on.
func TestEngineOnSessionEnd(t *testing.T) {
	type ended struct {
		id     uint64
		stats  SessionStats
		reason string
	}
	var mu sync.Mutex
	var ends []ended
	e, err := NewEngine(EngineConfig{
		Session:     Config{Fs: 1000, Decode: decoder.Options{ExpectedSymbols: 12}},
		IdleTimeout: 50 * time.Millisecond,
		OnSessionEnd: func(id uint64, stats SessionStats, reason string, _ uint64) {
			mu.Lock()
			ends = append(ends, ended{id, stats, reason})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range e.Batches() {
		}
	}()

	samples := sessionStream([]string{"1001"}, 1000, 0.05, 1.0, 0.3, 1)

	// Session 1: explicit end.
	if err := e.FeedTagged(1, 0, samples, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.EndSession(1); err != nil {
		t.Fatal(err)
	}
	// Session 2: idle-evicted by the janitor.
	if err := e.FeedTagged(2, 0, samples, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(ends)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("have %d session-end callbacks, want 2 (end + idle)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Session 3: released by Close.
	if err := e.FeedTagged(3, 0, samples, 0); err != nil {
		t.Fatal(err)
	}
	e.Close()

	mu.Lock()
	defer mu.Unlock()
	byID := map[uint64]ended{}
	for _, en := range ends {
		if prev, dup := byID[en.id]; dup {
			t.Fatalf("session %d released twice: %q then %q", en.id, prev.reason, en.reason)
		}
		byID[en.id] = en
	}
	for id, want := range map[uint64]string{1: "end", 2: "idle", 3: "close"} {
		en, ok := byID[id]
		if !ok {
			t.Fatalf("session %d never fired the release hook", id)
		}
		if en.reason != want {
			t.Fatalf("session %d released with reason %q, want %q", id, en.reason, want)
		}
		if en.stats.Samples != int64(len(samples)) {
			t.Fatalf("session %d exported %d samples, want %d", id, en.stats.Samples, len(samples))
		}
		if en.stats.Detections < 1 {
			t.Fatalf("session %d exported %d detections, want >= 1", id, en.stats.Detections)
		}
	}
}
