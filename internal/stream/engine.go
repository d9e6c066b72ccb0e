package stream

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"passivelight/internal/telemetry"
)

// Sentinel errors for engine session management; test with errors.Is.
var (
	// ErrEngineClosed is returned by FeedTagged and EndSession after
	// Close.
	ErrEngineClosed = errors.New("stream: engine closed")
	// ErrSessionEvicted is returned by EndSession when the engine no
	// longer tracks the session — it was never fed, was ended
	// explicitly, or was idle-evicted by the janitor.
	ErrSessionEvicted = errors.New("stream: session not tracked (evicted or never fed)")
	// ErrSessionTableFull is returned by FeedTagged when MaxSessions
	// sessions are already tracked and the chunk addresses a new one.
	ErrSessionTableFull = errors.New("stream: session table full")
)

// EngineConfig tunes the concurrent session manager.
type EngineConfig struct {
	// Session is the template for per-session decoders. Session.Fs is
	// the default sample rate; FeedTagged can override it per session.
	Session Config
	// Workers is the decode worker pool size, spread across the
	// shards. Zero selects runtime.GOMAXPROCS(0).
	Workers int
	// Shards splits the session table into independent groups, each
	// with its own map, lock, run queue and worker set; sessions are
	// hashed to a shard by stream id. More shards mean feeders and
	// workers on different cores never contend on one mutex or one
	// queue. Zero selects min(Workers, GOMAXPROCS); values above
	// Workers are clamped so every shard keeps at least one worker.
	Shards int
	// QueueSamples is the per-session ring buffer capacity. A session
	// that falls behind drops its oldest samples. Zero selects 32768.
	QueueSamples int
	// IdleTimeout evicts sessions that have not been fed for this
	// long (their open segment is flushed first). Zero selects 60 s;
	// negative disables eviction.
	IdleTimeout time.Duration
	// DetectionBuffer is the capacity of the Batches channel; detection
	// batches beyond it are dropped (and counted). Zero selects 1024.
	DetectionBuffer int
	// MaxSessions bounds the session table across all shards. Feeds
	// for new sessions beyond it are rejected. Zero selects 65536.
	MaxSessions int
	// OnSessionEnd, when non-nil, fires once per session release,
	// after the session's final flush has published its detections:
	// reason "end" for an explicit EndSession, "idle" for janitor
	// eviction, "close" for engine shutdown. tag is the one passed
	// with the last chunk the session consumed. It runs on the
	// releasing goroutine (an EndSession caller, the janitor, or
	// Close) with no engine locks held, but must not block — the
	// janitor and Close release sessions serially. Cluster
	// deployments use it to export per-session decode totals and to
	// acknowledge consumption upstream.
	OnSessionEnd func(id uint64, stats SessionStats, reason string, tag uint64)
	// Metrics, when non-nil, registers the engine's observability
	// surface into the registry: counters and gauges mirroring Stats
	// (read at snapshot time, zero hot-path cost) plus two histograms
	// recorded live on the worker path — pl_engine_decode_step_ns
	// (duration of one decode step) and pl_engine_detection_latency_ns
	// (last chunk arrival to detection publish).
	Metrics *telemetry.Registry
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards == 0 {
		c.Shards = min(c.Workers, runtime.GOMAXPROCS(0))
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Shards > c.Workers {
		c.Shards = c.Workers
	}
	if c.QueueSamples == 0 {
		c.QueueSamples = 32768
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.DetectionBuffer == 0 {
		c.DetectionBuffer = 1024
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 65536
	}
	return c
}

// Stats is an operational snapshot of the engine.
type Stats struct {
	// Sessions currently tracked; Shards is the configured shard
	// count.
	Sessions int
	Shards   int
	// SamplesIn is the total samples accepted since start.
	SamplesIn int64
	// SamplesPerSec is the ingest rate measured since the previous
	// Stats call (or since start, for the first call).
	SamplesPerSec float64
	// Detections successfully decoded; DecodeErrors are segments that
	// completed but held no parsable packet.
	Detections, DecodeErrors int64
	// DroppedSamples were evicted from ring buffers of lagging
	// sessions; DroppedDetections overflowed the batched detection
	// channel.
	DroppedSamples, DroppedDetections int64
	// Evicted counts idle sessions removed.
	Evicted int64
	// BufferedSamples is the current memory footprint across all
	// session rings and open decode segments, in samples.
	BufferedSamples int64
	// RetainedBytes is what holding them costs: the capacity of every
	// live session's ring array and decoder buffers, in bytes. An idle
	// session retains its decoder's pre-roll buffer and no ring array.
	RetainedBytes int64
}

type session struct {
	id uint64
	// sh is the owning shard — the home of the session's share of the
	// engine counters.
	sh  *shard
	mu  sync.Mutex
	rng *ring
	// dec is owned by whichever goroutine holds a claim (scheduled
	// for workers and drains, evicted for teardown) — it is NOT
	// guarded by mu.
	dec *Decoder
	// scheduled marks the session as enqueued on its shard's run
	// queue or being drained by a worker/drainNow; at most one
	// run-queue entry exists per session.
	scheduled bool
	// released, when non-nil, is closed by unschedule to wake the
	// goroutines waiting (in waitRelease) to claim the session.
	released chan struct{}
	// evicted is the terminal claim: set (under mu, only when
	// !scheduled) by the janitor, EndSession or Close. Once set, no
	// other goroutine touches the session again — a Feed holding a
	// stale pointer sees it and retries against the session table.
	evicted  bool
	lastFeed time.Time
	// tag is the caller's tag for the last chunk fed (FeedTagged),
	// reported by the release hook.
	tag uint64
	// created anchors the session's stream time to the wall clock
	// (first sample arrived then).
	created time.Time
	// buffered and decRetained mirror dec.Buffered() and dec.Retained()
	// for Stats and the retained-memory gauge, updated by the claim owner
	// after each decode step.
	buffered, decRetained atomic.Int64
}

// noteDecoder refreshes the decoder mirrors. Only the claim owner calls
// it.
func (s *session) noteDecoder() {
	s.buffered.Store(int64(s.dec.Buffered()))
	s.decRetained.Store(int64(s.dec.Retained()))
}

// feedPending hands the session's ring contents to its decoder,
// returns the ring's array to the pool and publishes the detections.
// The caller holds a drain claim (scheduled or evicted) and s.mu, which
// feedPending releases. timed records the decode in the decode-step
// histogram (worker steps only).
func (e *Engine) feedPending(s *session, timed bool) {
	pending, box := s.rng.take()
	arrival := s.lastFeed
	s.mu.Unlock()
	if len(pending) == 0 {
		putRingBuf(box)
		return
	}
	timed = timed && e.tel != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	dets := s.dec.Feed(pending)
	if timed {
		e.tel.decodeStep.Observe(int64(time.Since(t0)))
	}
	putRingBuf(box)
	s.noteDecoder()
	e.publish(s, dets, arrival)
}

// unschedule releases the scheduled claim and wakes every goroutine
// waiting to take it. The caller holds s.mu.
func (s *session) unschedule() {
	s.scheduled = false
	if s.released != nil {
		close(s.released)
		s.released = nil
	}
}

// waitRelease unlocks s.mu, which the caller holds after seeing
// s.scheduled set, and blocks until that claim is released or stop
// closes. The caller relocks to re-check. The wake-up channel is made
// only when someone waits, so the feed and worker paths allocate
// nothing for it.
func (s *session) waitRelease(stop <-chan struct{}) {
	if s.released == nil {
		s.released = make(chan struct{})
	}
	released := s.released
	s.mu.Unlock()
	select {
	case <-released:
	case <-stop:
	}
}

// shardStats is one shard's slice of the engine-wide counters. Every
// shard owns a private copy — padded out to a cache line — so feeders
// and workers of different shards never write the same line (the old
// engine-global atomics funneled every shard's feed and publish path
// through one contended cache line); Stats() and the telemetry counter
// funcs fold the shards at snapshot time instead.
type shardStats struct {
	samplesIn, detections, decodeErrs   atomic.Int64
	droppedSamples, droppedDets, evicts atomic.Int64
	_                                   [16]byte // pad to 64 bytes
}

// shard is one independent slice of the engine: its own session
// table, lock, run queue and counters, drained by its own workers.
// Feeders and workers of different shards share nothing but the
// detection output. The run queue is a slice FIFO under the shard
// mutex (not a channel pre-sized at MaxSessions — that would multiply
// idle memory by the shard count); cond wakes the shard's workers on
// enqueue and on Close. At most one entry exists per session (the
// scheduled flag), so the FIFO is bounded by the shard's session count.
type shard struct {
	mu       sync.Mutex
	sessions map[uint64]*session
	stopped  bool // set under mu by Close; session lookup refuses new sessions, workers exit
	// runq[runqHead:] is the FIFO of scheduled sessions. A head index
	// (instead of re-slicing runq[1:]) keeps the backing array in
	// place, so steady-state enqueue/dequeue cycles never re-allocate
	// it; the array is bounded by the shard's session count because at
	// most one entry exists per session.
	runq     []*session
	runqHead int
	cond     *sync.Cond // signaled on enqueue; broadcast on Close

	stats shardStats
}

// enqueue appends a scheduled session and wakes one worker.
func (sh *shard) enqueue(s *session) {
	sh.mu.Lock()
	sh.runq = append(sh.runq, s)
	sh.mu.Unlock()
	sh.cond.Signal()
}

// dequeue blocks until a session is scheduled or the engine stops;
// ok=false means stop. Entries still queued at stop time are left for
// Close's sweep, mirroring the old stranded-channel-entry semantics.
func (sh *shard) dequeue() (*session, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sh.runqHead == len(sh.runq) && !sh.stopped {
		sh.cond.Wait()
	}
	if sh.stopped {
		return nil, false
	}
	s := sh.runq[sh.runqHead]
	sh.runq[sh.runqHead] = nil
	sh.runqHead++
	if sh.runqHead == len(sh.runq) {
		// Empty: rewind onto the same backing array.
		sh.runq = sh.runq[:0]
		sh.runqHead = 0
	}
	return s, true
}

// Engine multiplexes many concurrent streaming decode sessions over a
// sharded worker pool: sessions are hashed by id to one of N shards,
// each with a private map, mutex, run queue and workers, so aggregate
// ingest scales across cores instead of serializing on one lock and
// one queue. Feeds are cheap (a ring-buffer copy); decoding happens
// on the workers; detections are delivered in batches (one channel
// send per decode step, not per detection). All methods are safe for
// concurrent use.
type Engine struct {
	cfg    EngineConfig
	shards []*shard
	// sessionCount enforces MaxSessions across shards.
	sessionCount atomic.Int64

	batches chan []Detection
	closed  chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	// lifeMu serializes Close (writer) against the caller-goroutine
	// drain operations FlushAll/EndSession (readers):
	// Close must not touch session decoders while a flusher holds a
	// drain claim, and a flusher must not spin on claims that no
	// worker is left alive to release.
	lifeMu sync.RWMutex

	pubMu      sync.RWMutex
	detsClosed bool

	// tel holds the live-recorded histograms; nil when the engine runs
	// without a metrics registry, which keeps time.Now off the worker
	// path entirely.
	tel *engineTelemetry

	rateMu      sync.Mutex
	rateTime    time.Time
	rateSamples int64
}

// NewEngine starts the sharded worker pool and idle-eviction janitor.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Session.Fs <= 0 {
		return nil, errors.New("stream: engine config needs Session.Fs > 0")
	}
	e := &Engine{
		cfg:      cfg,
		shards:   make([]*shard, cfg.Shards),
		batches:  make(chan []Detection, cfg.DetectionBuffer),
		closed:   make(chan struct{}),
		rateTime: time.Now(),
	}
	// Spread the workers: shard i gets floor(W/S) workers plus one of
	// the remainder, so every shard has at least one.
	base, rem := cfg.Workers/cfg.Shards, cfg.Workers%cfg.Shards
	for i := range e.shards {
		sh := &shard{sessions: make(map[uint64]*session)}
		sh.cond = sync.NewCond(&sh.mu)
		e.shards[i] = sh
		workers := base
		if i < rem {
			workers++
		}
		for w := 0; w < workers; w++ {
			e.wg.Add(1)
			go e.worker(sh)
		}
	}
	if cfg.IdleTimeout > 0 {
		e.wg.Add(1)
		go e.janitor()
	}
	if cfg.Metrics != nil {
		e.tel = e.registerMetrics(cfg.Metrics)
	}
	return e, nil
}

// engineTelemetry is the engine's live-recorded metric set.
type engineTelemetry struct {
	decodeStep *telemetry.Histogram
	latency    *telemetry.Histogram
}

// sumShards folds one shard-local counter across all shards — the
// snapshot-time half of the shard-local counter scheme. pick must be a
// capture-free selector so the call allocates nothing.
func (e *Engine) sumShards(pick func(*shardStats) *atomic.Int64) int64 {
	var n int64
	for _, sh := range e.shards {
		n += pick(&sh.stats).Load()
	}
	return n
}

// registerMetrics publishes the engine's observability surface. The
// Stats counters are exported as snapshot-time funcs folding the
// shard-local counters, so scraping costs nothing on the decode path;
// only the two histograms record live.
func (e *Engine) registerMetrics(reg *telemetry.Registry) *engineTelemetry {
	reg.CounterFunc("pl_engine_samples_in_total", "samples accepted across all sessions", func() int64 {
		return e.sumShards(func(st *shardStats) *atomic.Int64 { return &st.samplesIn })
	})
	reg.CounterFunc("pl_engine_detections_total", "successfully decoded detections", func() int64 {
		return e.sumShards(func(st *shardStats) *atomic.Int64 { return &st.detections })
	})
	reg.CounterFunc("pl_engine_decode_errors_total", "segments that held no parsable packet", func() int64 {
		return e.sumShards(func(st *shardStats) *atomic.Int64 { return &st.decodeErrs })
	})
	reg.CounterFunc("pl_engine_dropped_samples_total", "samples evicted from lagging session rings", func() int64 {
		return e.sumShards(func(st *shardStats) *atomic.Int64 { return &st.droppedSamples })
	})
	reg.CounterFunc("pl_engine_dropped_detections_total", "detection batches dropped on channel overflow", func() int64 {
		return e.sumShards(func(st *shardStats) *atomic.Int64 { return &st.droppedDets })
	})
	reg.CounterFunc("pl_engine_sessions_evicted_total", "idle sessions evicted", func() int64 {
		return e.sumShards(func(st *shardStats) *atomic.Int64 { return &st.evicts })
	})
	reg.GaugeFunc("pl_engine_sessions_active", "sessions currently tracked", func() float64 {
		return float64(e.sessionCount.Load())
	})
	reg.GaugeFunc("pl_engine_sessions_limit", "configured MaxSessions bound", func() float64 {
		return float64(e.cfg.MaxSessions)
	})
	reg.GaugeFunc("pl_engine_shards", "configured shard count", func() float64 {
		return float64(len(e.shards))
	})
	reg.GaugeFunc("pl_engine_buffered_samples", "ring-buffer plus open-segment occupancy in samples", func() float64 {
		_, samples, _ := e.footprint()
		return float64(samples)
	})
	reg.GaugeFunc("pl_engine_retained_bytes", "ring plus decoder buffer capacity held by live sessions, in bytes", func() float64 {
		_, _, retained := e.footprint()
		return float64(retained)
	})
	reg.GaugeFunc("pl_engine_occupancy", "queue fill fraction (0 idle .. 1 saturated), the backpressure signal", e.Occupancy)
	return &engineTelemetry{
		decodeStep: reg.Histogram("pl_engine_decode_step_ns", "duration of one worker decode step"),
		latency:    reg.Histogram("pl_engine_detection_latency_ns", "last chunk arrival to detection publish"),
	}
}

// shardOf hashes a stream id onto a shard. Fibonacci mixing spreads
// sequential ids (the common assignment scheme) as well as sparse
// hashes.
func (e *Engine) shardOf(id uint64) *shard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	h := id * 0x9E3779B97F4A7C15
	return e.shards[(h>>32)%uint64(len(e.shards))]
}

// FeedTagged routes one chunk of RSS samples to the session's ring
// buffer and wakes a worker on the session's shard. fs selects the
// session sample rate on first feed; zero uses the engine default.
// Feeding an existing session with a different non-zero fs is an
// error. tag is recorded on the session the chunk lands in:
// OnSessionEnd reports the tag of the session's last chunk, so a
// caller can tell exactly what a released session consumed even when
// a later chunk already started a fresh session under the same id.
func (e *Engine) FeedTagged(id uint64, fs float64, chunk []float64, tag uint64) error {
	if len(chunk) == 0 {
		return nil
	}
	// A chunk larger than the ring would structurally evict its own
	// head before any worker saw it. Split it and apply backpressure:
	// each sub-push waits for ring space (workers free it with a
	// quick copy), so replaying a long recorded trace in one call is
	// lossless. Normal-sized feeds stay non-blocking with drop-oldest
	// semantics for real-time streams.
	if max := e.cfg.QueueSamples; len(chunk) > max {
		for len(chunk) > max {
			if err := e.feedChunk(id, fs, chunk[:max], tag, true); err != nil {
				return err
			}
			chunk = chunk[max:]
		}
		return e.feedChunk(id, fs, chunk, tag, true)
	}
	return e.feedChunk(id, fs, chunk, tag, false)
}

func (e *Engine) feedChunk(id uint64, fs float64, chunk []float64, tag uint64, wait bool) error {
	sh := e.shardOf(id)
	for {
		s, err := e.session(sh, id, fs)
		if err != nil {
			sh.stats.droppedSamples.Add(int64(len(chunk)))
			return err
		}
		s.mu.Lock()
		if s.evicted {
			// The session was torn down between lookup and lock;
			// retry against the table (a fresh session, or an
			// engine-closed error).
			s.mu.Unlock()
			continue
		}
		if wait && s.rng.len()+len(chunk) > s.rng.capacity() {
			// Backpressure: the ring holds earlier sub-chunks that
			// the claim holder (a worker or a drainNow) has not taken
			// yet. Wait for it to let go of the session, which it
			// does only once the ring is empty; closing the engine
			// surfaces via the session lookup on the next retry.
			s.waitRelease(e.closed)
			continue
		}
		dropped := s.rng.push(chunk)
		s.lastFeed = time.Now()
		s.tag = tag
		wake := !s.scheduled
		if wake {
			s.scheduled = true
		}
		s.mu.Unlock()
		sh.stats.samplesIn.Add(int64(len(chunk)))
		if dropped > 0 {
			sh.stats.droppedSamples.Add(int64(dropped))
		}
		if wake {
			sh.enqueue(s)
		}
		return nil
	}
}

func (e *Engine) session(sh *shard, id uint64, fs float64) (*session, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped {
		return nil, ErrEngineClosed
	}
	if s, ok := sh.sessions[id]; ok {
		if fs != 0 && fs != s.dec.cfg.Fs {
			return nil, fmt.Errorf("stream: session %d is at %g Hz, chunk says %g Hz", id, s.dec.cfg.Fs, fs)
		}
		return s, nil
	}
	// The cap is engine-wide; claim a slot before creating so
	// concurrent creations on different shards cannot overshoot.
	if e.sessionCount.Add(1) > int64(e.cfg.MaxSessions) {
		e.sessionCount.Add(-1)
		return nil, fmt.Errorf("%w (%d)", ErrSessionTableFull, e.cfg.MaxSessions)
	}
	scfg := e.cfg.Session
	if fs != 0 {
		scfg.Fs = fs
	}
	dec, err := NewDecoder(scfg)
	if err != nil {
		e.sessionCount.Add(-1)
		return nil, err
	}
	now := time.Now()
	s := &session{
		id:       id,
		sh:       sh,
		rng:      newRing(e.cfg.QueueSamples),
		dec:      dec,
		lastFeed: now,
		created:  now,
	}
	sh.sessions[id] = s
	return s, nil
}

// worker drains scheduled sessions of one shard: take everything from
// the ring, run the decode state machine, publish detections, repeat
// until the ring is empty.
func (e *Engine) worker(sh *shard) {
	defer e.wg.Done()
	for {
		s, ok := sh.dequeue()
		if !ok {
			return
		}
		for {
			s.mu.Lock()
			if s.rng.len() == 0 {
				s.unschedule()
				s.mu.Unlock()
				break
			}
			e.feedPending(s, true)
		}
	}
}

// publish stamps one decode step's detections and delivers them to
// the consumer in a single channel send. The slice comes fresh from
// the session decoder, so ownership transfers to the consumer.
// arrival is the wall-clock time the session was last fed before this
// decode step — the chunk-arrival anchor of the detection-latency
// histogram and of Detection.Arrival.
func (e *Engine) publish(s *session, dets []Detection, arrival time.Time) {
	if len(dets) == 0 {
		return
	}
	var latency int64
	if e.tel != nil && !arrival.IsZero() {
		latency = int64(time.Since(arrival))
	}
	st := &s.sh.stats
	e.pubMu.RLock()
	defer e.pubMu.RUnlock()
	for i := range dets {
		det := &dets[i]
		det.Session = s.id
		// Anchor stream time to the wall clock: for a real-time
		// paced stream this is the actual pass time, regardless of
		// when the segment got decoded or consumed.
		det.Wall = s.created.Add(time.Duration(det.TimeSec * float64(time.Second)))
		det.Arrival = arrival
		if det.Err != nil {
			st.decodeErrs.Add(1)
		} else {
			st.detections.Add(1)
		}
		if e.tel != nil {
			e.tel.latency.Observe(latency)
		}
	}
	if e.detsClosed {
		st.droppedDets.Add(int64(len(dets)))
		RecycleBatch(dets)
		return
	}
	select {
	case e.batches <- dets:
	default:
		// No consumer took ownership: count the loss and recycle the
		// batch ourselves.
		st.droppedDets.Add(int64(len(dets)))
		RecycleBatch(dets)
	}
}

// janitor evicts sessions that have been idle past the timeout,
// flushing their open segment first.
func (e *Engine) janitor() {
	defer e.wg.Done()
	interval := e.cfg.IdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-e.closed:
			return
		case now := <-tick.C:
			var stale []*session
			for _, sh := range e.shards {
				sh.mu.Lock()
				var shardStale []*session
				for _, s := range sh.sessions {
					s.mu.Lock()
					if !s.scheduled && s.rng.len() == 0 && now.Sub(s.lastFeed) > e.cfg.IdleTimeout {
						// Terminal claim: no worker holds the session
						// (!scheduled) and none can acquire it afterwards
						// (a racing Feed sees evicted and retries, which
						// recreates the session fresh).
						s.evicted = true
						shardStale = append(shardStale, s)
					}
					s.mu.Unlock()
				}
				for _, s := range shardStale {
					delete(sh.sessions, s.id)
				}
				e.sessionCount.Add(-int64(len(shardStale)))
				sh.mu.Unlock()
				stale = append(stale, shardStale...)
			}
			for _, s := range stale {
				// Terminal claim held: lastFeed is stable now.
				e.publish(s, s.dec.Flush(), s.lastFeed)
				s.sh.stats.evicts.Add(1)
				e.sessionEnded(s, "idle")
			}
		}
	}
}

// FlushAll forces end-of-stream on every registered session (e.g.
// when a deployment-wide capture window closes).
func (e *Engine) FlushAll() {
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	for _, sh := range e.shards {
		sh.mu.Lock()
		sessions := make([]*session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			sessions = append(sessions, s)
		}
		sh.mu.Unlock()
		for _, s := range sessions {
			e.drainNow(s)
		}
	}
}

// drainNow synchronously decodes a session's pending samples and
// flushes its open segment. It waits for a concurrent worker drain to
// settle by claiming the scheduled flag itself. A session that gets
// evicted while we wait needs nothing more — eviction flushed it.
func (e *Engine) drainNow(s *session) {
	for {
		select {
		case <-e.closed:
			// Shutting down: a scheduled claim may be stranded on the
			// run queue with no worker left to release it. Yield —
			// Close flushes every session itself.
			return
		default:
		}
		s.mu.Lock()
		if s.evicted {
			s.mu.Unlock()
			return
		}
		if s.scheduled {
			s.waitRelease(e.closed)
			continue
		}
		s.scheduled = true
		arrival := s.lastFeed
		e.feedPending(s, false)
		dets := s.dec.Flush()
		s.noteDecoder()
		e.publish(s, dets, arrival)
		s.mu.Lock()
		done := s.rng.len() == 0
		s.unschedule()
		s.mu.Unlock()
		if done {
			return
		}
	}
}

// EndSession flushes and removes one session: its pending samples
// decode, its open segment flushes, and the next Feed for the same id
// starts a fresh stream. Use when a sensor's stream restarts (e.g. a
// node reconnect) so old and new epochs cannot splice together.
func (e *Engine) EndSession(id uint64) error {
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	sh := e.shardOf(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
		e.sessionCount.Add(-1)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: session %d", ErrSessionEvicted, id)
	}
	// Terminal claim, waiting out any worker currently draining.
	for {
		select {
		case <-e.closed:
			// Shutting down: hand the session back so Close's sweep
			// (which runs after this RLock is released and clears
			// stranded claims) flushes it instead.
			sh.mu.Lock()
			sh.sessions[id] = s
			e.sessionCount.Add(1)
			sh.mu.Unlock()
			return ErrEngineClosed
		default:
		}
		s.mu.Lock()
		if !s.scheduled {
			s.evicted = true
			s.mu.Unlock()
			break
		}
		s.waitRelease(e.closed)
	}
	s.mu.Lock()
	arrival := s.lastFeed
	e.feedPending(s, false)
	e.publish(s, s.dec.Flush(), arrival)
	e.sessionEnded(s, "end")
	return nil
}

// sessionEnded fires the release hook for a terminally-claimed
// session whose final flush has published. The session holds no pooled
// state by then: the final drain returned its ring array and the flush
// its decoder segment buffer. Safe without s.mu: the terminal claim was
// taken under s.mu, so every other goroutine that could touch the
// decoder has either finished or will observe evicted first and back
// off.
func (e *Engine) sessionEnded(s *session, reason string) {
	if e.cfg.OnSessionEnd != nil {
		e.cfg.OnSessionEnd(s.id, s.dec.Stats(), reason, s.tag)
	}
}

// Batches is the engine's native output: every channel receive
// carries all detections of one decode step, so the engine pays one
// channel operation per step instead of one per detection. The
// channel is closed by Close after all sessions are flushed.
func (e *Engine) Batches() <-chan []Detection { return e.batches }

// Occupancy reports how full the engine is on a 0..1 scale: the
// larger of mean session-ring fill (buffered samples over sessions ×
// QueueSamples) and detection-channel fill. Near 0 the engine is
// keeping up; near 1 the next chunks will start displacing buffered
// samples or detection batches. This is the signal cluster
// backpressure keys off (NetSource.AutoThrottle).
func (e *Engine) Occupancy() float64 {
	sessions, samples, _ := e.footprint()
	var ring float64
	if capacity := int64(sessions) * int64(e.cfg.QueueSamples); capacity > 0 {
		ring = float64(samples) / float64(capacity)
	}
	var dets float64
	if c := cap(e.batches); c > 0 {
		dets = float64(len(e.batches)) / float64(c)
	}
	if dets > ring {
		return dets
	}
	return ring
}

// footprint walks the session tables and sums ring occupancy plus
// open decode segments (samples), and the ring and decoder buffer
// capacity that holds them (retained, in bytes) — shared by Stats and
// the pl_engine_buffered_samples and pl_engine_retained_bytes gauges.
// Sessions are visited in place under their shard lock (the same
// sh.mu → s.mu nesting the janitor uses), so polling it — AutoThrottle
// does, several times a second — allocates nothing.
func (e *Engine) footprint() (sessions int, samples, retained int64) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		sessions += len(sh.sessions)
		for _, s := range sh.sessions {
			s.mu.Lock()
			pending, ringCap := s.rng.len(), s.rng.retained()
			s.mu.Unlock()
			samples += int64(pending) + s.buffered.Load()
			retained += 8 * (int64(ringCap) + s.decRetained.Load())
		}
		sh.mu.Unlock()
	}
	return sessions, samples, retained
}

// Stats returns an operational snapshot, folding the shard-local
// counters.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: len(e.shards)}
	for _, sh := range e.shards {
		ss := &sh.stats
		st.SamplesIn += ss.samplesIn.Load()
		st.Detections += ss.detections.Load()
		st.DecodeErrors += ss.decodeErrs.Load()
		st.DroppedSamples += ss.droppedSamples.Load()
		st.DroppedDetections += ss.droppedDets.Load()
		st.Evicted += ss.evicts.Load()
	}
	st.Sessions, st.BufferedSamples, st.RetainedBytes = e.footprint()
	e.rateMu.Lock()
	now := time.Now()
	if dt := now.Sub(e.rateTime).Seconds(); dt > 0 {
		st.SamplesPerSec = float64(st.SamplesIn-e.rateSamples) / dt
	}
	e.rateTime = now
	e.rateSamples = st.SamplesIn
	e.rateMu.Unlock()
	return st
}

// Close stops the workers and janitor, flushes every session's
// remaining samples and open segments, and closes the detection
// output.
func (e *Engine) Close() {
	e.once.Do(func() {
		// Refuse feeds first: a producer racing Close could otherwise
		// keep a worker's drain loop fed forever and wg.Wait below
		// would never return. The broadcast releases workers parked in
		// dequeue.
		for _, sh := range e.shards {
			sh.mu.Lock()
			sh.stopped = true
			sh.mu.Unlock()
			sh.cond.Broadcast()
		}
		close(e.closed)
		e.wg.Wait()
		// Wait out in-flight FlushAll/EndSession callers
		// (they hold drain claims on session decoders) and block new
		// ones for the remainder of the shutdown.
		e.lifeMu.Lock()
		defer e.lifeMu.Unlock()
		var sessions []*session
		for _, sh := range e.shards {
			sh.mu.Lock()
			// Entries stranded on the run queue when the workers
			// exited hold a scheduled claim nobody will release;
			// clear them so the per-session drain below owns the
			// decoders.
			for _, s := range sh.runq[sh.runqHead:] {
				s.mu.Lock()
				s.unschedule()
				s.mu.Unlock()
			}
			sh.runq, sh.runqHead = nil, 0
			for _, s := range sh.sessions {
				sessions = append(sessions, s)
			}
			e.sessionCount.Add(-int64(len(sh.sessions)))
			sh.sessions = make(map[uint64]*session)
			sh.mu.Unlock()
		}
		for _, s := range sessions {
			// Workers are stopped; claim terminally (so a Feed still
			// holding the pointer retries into the engine-closed
			// error instead of feeding a dead ring), then drain.
			s.mu.Lock()
			s.evicted = true
			arrival := s.lastFeed
			e.feedPending(s, false)
			e.publish(s, s.dec.Flush(), arrival)
			e.sessionEnded(s, "close")
		}
		e.pubMu.Lock()
		e.detsClosed = true
		close(e.batches)
		e.pubMu.Unlock()
	})
}
