package rxnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"passivelight/internal/telemetry"
)

// ChunkEvent is one raw-sample delivery surfaced by a ChunkListener:
// the wire chunk resolved to an engine session key, with stream
// continuity already checked. It is the receiver-network flavor of a
// pipeline source chunk.
type ChunkEvent struct {
	// Session is the (node, stream) pair folded into one session key
	// (SampleChunk.SessionKey).
	Session uint64
	// NodeID and StreamID identify the sender.
	NodeID, StreamID uint32
	// Seq is the chunk's sequence number and Epoch the continuity
	// epoch it was admitted under: every new stream cursor and every
	// reset starts a fresh epoch. AckThrough takes both back, so an
	// ack can never trim chunks of a later incarnation of the stream.
	Seq, Epoch uint32
	// Fs is the stream's sample rate (Hz).
	Fs float64
	// Samples are the chunk's RSS values.
	Samples []float64
	// Reset means the stream restarted or skipped (reconnect, gap):
	// the consumer must end any open decode session for Session before
	// feeding these samples, so epochs cannot splice together.
	Reset bool
	// End means the stream is over (a cluster router moved it to
	// another engine, or this engine force-redirected it): the
	// consumer must flush and release the decode session. Samples is
	// empty on End events.
	End bool
	// Buf, when non-nil, is the pooled buffer backing Samples. The
	// consumer owns one reference and must call Buf.Release once the
	// samples have been consumed — e.g. copied into an engine session
	// ring. Ignoring it is safe
	// (the buffer falls to the garbage collector, costing only a pool
	// miss), but a consumer must never retain Samples past Release.
	Buf *SampleBuf
}

// lconn is one accepted connection with a serialized write path, so
// control frames (drain notices, NACKs) can be sent from goroutines
// other than the connection's reader.
type lconn struct {
	c   net.Conn
	wmu sync.Mutex
}

func (lc *lconn) writeFrame(t FrameType, body []byte) error {
	lc.wmu.Lock()
	defer lc.wmu.Unlock()
	if err := lc.c.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	return WriteFrame(lc.c, t, body)
}

// ChunkListener accepts receiver-node connections speaking the rxnet
// frame protocol and surfaces their raw SampleChunk frames as a
// channel of ChunkEvents — the one ingest path for raw samples, which
// a decode pipeline consumes. Sample chunks arrive as float64 or as
// 2-byte code frames and decode to the same samples. Hello frames are
// answered with FrameCodesOK when they ask (AskCodes) and surfaced on
// a side channel for node registration; Detection frames are rejected
// (nodes that decode locally should talk to an Aggregator instead).
type ChunkListener struct {
	ln         net.Listener
	out        chan ChunkEvent
	hellos     chan Hello
	drainReq   chan struct{}
	logf       func(format string, args ...any)
	paceIdle   time.Duration
	dropped    atomic.Int64
	received   atomic.Int64
	refusedCnt atomic.Int64
	duplicates atomic.Int64
	nacksSent  atomic.Int64
	acksSent   atomic.Int64
	endsRecv   atomic.Int64
	resets     atomic.Int64
	throttles  atomic.Int64
	paceRatio  atomic.Uint64 // float64 bits: max observed chunkGap/idle
	paceWarned atomic.Bool

	mu        sync.Mutex
	cursors   map[uint64]*streamCursor
	epoch     uint32 // last continuity epoch handed out
	refused   map[uint64]bool
	conns     map[*lconn]struct{}
	draining  bool
	throttled bool
	reg       *telemetry.Registry
	frameErr  *telemetry.Counter
	nodeTel   map[uint32]*telemetry.Counter

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// maxStreamCursors bounds the per-stream bookkeeping tables (cursors,
// refusals) of a long-running listener.
const maxStreamCursors = 1 << 16

// chunkCursor is one stream's expected chunk continuation: the Seq of
// the last chunk consumed and the Start index the next one must carry.
type chunkCursor struct {
	seq  uint32
	next uint64
}

// advance checks chunk c against the cursor and moves the cursor to
// c's end unless c is a duplicate. It is the one stream-continuity
// rule. A contiguous chunk continues the stream, whichever connection
// it arrives on. A chunk wholly within the cursor is a duplicate when
// it is provably a retransmission: explicitly replayed, or live
// mid-stream. A live Seq 1 or Start 0 within the cursor is a genuine
// restart, which must reset and never be silently discarded. Any
// other chunk is a restart or a gap: reset reports that the open
// decode session must end before c is fed.
func (cur *chunkCursor) advance(c SampleChunk, replay bool) (dup, reset bool) {
	end := c.Start + uint64(len(c.Samples))
	contiguous := c.Seq == cur.seq+1 && c.Start == cur.next
	if !contiguous && SeqLEq(c.Seq, cur.seq) && end <= cur.next &&
		(replay || (c.Seq != 1 && c.Start != 0)) {
		return true, false
	}
	cur.seq, cur.next = c.Seq, end
	return false, !contiguous
}

// streamCursor extends the chunk-continuity cursor with the
// connection the stream is arriving on, so a force-redirect can NACK
// the right peer, and with the continuity epoch of its chunks.
type streamCursor struct {
	chunkCursor
	src   *lconn
	epoch uint32
}

// nextEpoch hands out a continuity epoch. Zero is skipped, so a zero
// epoch always means "not admitted by a listener". Callers hold l.mu.
func (l *ChunkListener) nextEpoch() uint32 {
	l.epoch++
	if l.epoch == 0 {
		l.epoch++
	}
	return l.epoch
}

// ChunkListenerConfig tunes a ChunkListener beyond the address.
type ChunkListenerConfig struct {
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// QueueDepth bounds the Chunks channel (the ingest queue between
	// the network readers and the consumer). Zero selects 64.
	// A full queue blocks the connection readers, so TCP flow control
	// pushes back on the nodes: ingest is lossless.
	QueueDepth int
	// Metrics registers the listener's ingest series: per-node
	// pl_rxnet_ingest_bytes_total{node="N"}, pl_rxnet_frame_errors_total,
	// pl_rxnet_dropped_chunks_total and the pl_rxnet_queue_depth gauge.
	Metrics *telemetry.Registry
	// PaceGuardIdle, when positive, is the consumer's session idle
	// timeout: a stream whose per-chunk span (len(Samples)/Fs — the
	// wall-clock gap between paced chunks) reaches it would be
	// idle-evicted mid-stream. The listener warns once and tracks the
	// worst ratio in the pl_rxnet_pace_gap_ratio gauge (>= 1 means the
	// documented timing invariant is violated).
	PaceGuardIdle time.Duration
}

// ListenChunksConfig starts a chunk listener with explicit queue and
// telemetry configuration.
func ListenChunksConfig(addr string, cfg ChunkListenerConfig) (*ChunkListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	l := &ChunkListener{
		ln:       ln,
		out:      make(chan ChunkEvent, depth),
		hellos:   make(chan Hello, 64),
		drainReq: make(chan struct{}, 1),
		logf:     logf,
		paceIdle: cfg.PaceGuardIdle,
		cursors:  make(map[uint64]*streamCursor),
		refused:  make(map[uint64]bool),
		conns:    make(map[*lconn]struct{}),
		closed:   make(chan struct{}),
	}
	if cfg.Metrics != nil {
		l.reg = cfg.Metrics
		l.nodeTel = make(map[uint32]*telemetry.Counter)
		l.frameErr = l.reg.Counter("pl_rxnet_frame_errors_total",
			"Malformed or unexpected frames received from nodes.")
		l.reg.CounterFunc("pl_rxnet_dropped_chunks_total",
			"Sample chunks discarded because the listener closed with its ingest queue full.",
			l.dropped.Load)
		l.reg.GaugeFunc("pl_rxnet_queue_depth",
			"Chunk events waiting in the listener's ingest queue.",
			func() float64 { return float64(len(l.out)) })
		l.reg.CounterFunc("pl_cluster_stream_nacks_sent_total",
			"Streams this engine refused and redirected back to the router.",
			l.nacksSent.Load)
		l.reg.CounterFunc("pl_cluster_stream_acks_sent_total",
			"Consumption acks sent upstream (sessions decoded; replay buffers trimmable).",
			l.acksSent.Load)
		l.reg.CounterFunc("pl_cluster_stream_ends_received_total",
			"StreamEnd orders received from a cluster router (handoffs applied).",
			l.endsRecv.Load)
		l.reg.CounterFunc("pl_cluster_refused_chunks_total",
			"Chunks discarded because their stream was NACKed while draining.",
			l.refusedCnt.Load)
		l.reg.CounterFunc("pl_rxnet_stream_resets_total",
			"Streams restarted or spliced with a gap (reconnects, discontinuities).",
			l.resets.Load)
		l.reg.CounterFunc("pl_rxnet_duplicate_chunks_total",
			"Replayed chunks discarded because the stream cursor had already consumed them (router failover retransmissions).",
			l.duplicates.Load)
		l.reg.CounterFunc("pl_cluster_throttle_engaged_total",
			"Times this engine signaled backpressure upstream (pauses only).",
			l.throttles.Load)
		l.reg.GaugeFunc("pl_cluster_throttled",
			"1 while this engine holds its peers paused, else 0.",
			func() float64 {
				l.mu.Lock()
				defer l.mu.Unlock()
				if l.throttled {
					return 1
				}
				return 0
			})
		if cfg.PaceGuardIdle > 0 {
			l.reg.GaugeFunc("pl_rxnet_pace_gap_ratio",
				"Worst observed chunk span / idle timeout; >= 1 means paced streams outlast idle eviction.",
				func() float64 { return math.Float64frombits(l.paceRatio.Load()) })
		}
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// DroppedChunks reports how many sample chunks the listener discarded
// because it closed while its ingest queue was full. Ingest is
// otherwise lossless, so this is zero until Close.
func (l *ChunkListener) DroppedChunks() int64 { return l.dropped.Load() }

// ReceivedChunks reports how many well-formed sample chunks the
// listener has read off its sockets. Every received chunk is either
// delivered on Chunks, counted in DroppedChunks, counted in
// RefusedChunks, or counted in DuplicateChunks — the four always sum
// to ReceivedChunks, including across Close.
func (l *ChunkListener) ReceivedChunks() int64 { return l.received.Load() }

// RefusedChunks reports how many chunks were discarded because their
// stream was NACKed back to the router (drain admission control).
func (l *ChunkListener) RefusedChunks() int64 { return l.refusedCnt.Load() }

// DuplicateChunks reports how many replayed chunks were discarded
// because the stream's continuity cursor had already consumed them —
// the failover-dedup ledger: a router crash replays its unacked
// buffer, a node failover retransmits its saved tail, and everything
// already decoded lands here instead of double-counting as samples.
func (l *ChunkListener) DuplicateChunks() int64 { return l.duplicates.Load() }

// StreamResets reports how many times a stream restarted or spliced
// with a gap (reconnects, discontinuities) — every non-graceful loss
// surfaces here, which is what makes chunk loss countable rather than
// silent.
func (l *ChunkListener) StreamResets() int64 { return l.resets.Load() }

// DrainRequests signals FrameDrainRequest arrivals (an ops client or
// the router asking this engine to drain). The channel is buffered
// and level-triggered: coalesced requests signal once.
func (l *ChunkListener) DrainRequests() <-chan struct{} { return l.drainReq }

// Draining reports whether the listener is refusing new streams.
func (l *ChunkListener) Draining() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.draining
}

// Sessions returns the streams currently flowing through the listener
// (those with a live continuity cursor), for drain bookkeeping.
func (l *ChunkListener) Sessions() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, 0, len(l.cursors))
	for k := range l.cursors {
		out = append(out, k)
	}
	return out
}

// Drain switches the listener into drain mode: every connected peer
// is sent a FrameDrain notice, new streams are refused with a NACK
// (the router re-routes them), and in-flight streams keep flowing so
// they can finish losslessly. Idempotent.
func (l *ChunkListener) Drain() {
	l.mu.Lock()
	if l.draining {
		l.mu.Unlock()
		return
	}
	l.draining = true
	conns := make([]*lconn, 0, len(l.conns))
	for lc := range l.conns {
		conns = append(conns, lc)
	}
	l.mu.Unlock()
	body := MarshalDrain(Drain{Draining: true})
	for _, lc := range conns {
		if err := lc.writeFrame(FrameDrain, body); err != nil {
			l.logf("rxnet: drain notice: %v", err)
		}
	}
}

// SetThrottled flips the listener's backpressure signal: every
// connected peer (and every later one) is sent a Throttle frame, so a
// router pauses the contributing nodes — or a directly-connected node
// stalls itself — until the signal clears.
// Idempotent per state.
func (l *ChunkListener) SetThrottled(paused bool) {
	l.mu.Lock()
	if l.throttled == paused {
		l.mu.Unlock()
		return
	}
	l.throttled = paused
	conns := make([]*lconn, 0, len(l.conns))
	for lc := range l.conns {
		conns = append(conns, lc)
	}
	l.mu.Unlock()
	if paused {
		l.throttles.Add(1)
	}
	body := MarshalThrottle(Throttle{Paused: paused})
	for _, lc := range conns {
		if err := lc.writeFrame(FrameThrottle, body); err != nil {
			l.logf("rxnet: throttle notice: %v", err)
		}
	}
}

// Throttled reports whether the listener currently signals
// backpressure.
func (l *ChunkListener) Throttled() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.throttled
}

// paceGuard checks one chunk against the consumer's idle timeout: a
// paced stream whose chunks each span >= the idle timeout will be
// idle-evicted mid-stream (the documented timing invariant). Tracks
// the worst ratio and warns once.
func (l *ChunkListener) paceGuard(c SampleChunk) {
	if l.paceIdle <= 0 || c.Fs <= 0 || len(c.Samples) == 0 {
		return
	}
	gap := float64(len(c.Samples)) / c.Fs
	ratio := gap / l.paceIdle.Seconds()
	for {
		old := l.paceRatio.Load()
		if ratio <= math.Float64frombits(old) {
			break
		}
		if l.paceRatio.CompareAndSwap(old, math.Float64bits(ratio)) {
			break
		}
	}
	if ratio >= 1 && l.paceWarned.CompareAndSwap(false, true) {
		l.logf("rxnet: stream %d/%d chunk span %.2fs >= idle timeout %v; paced sessions will be idle-evicted mid-stream (shrink the chunk size or raise the idle timeout)",
			c.NodeID, c.StreamID, gap, l.paceIdle)
	}
}

// ForceRedirect ends an in-flight stream on this engine: the consumer
// gets an End event (flush + release the decode session) and the
// stream's peer gets a NACK carrying the last consumed chunk Seq, so
// a router replays the remainder on the stream's new owner. It
// reports whether the stream was known. Used to evict the stragglers
// of a drain that must not wait for streams to finish naturally.
func (l *ChunkListener) ForceRedirect(session uint64) bool {
	l.mu.Lock()
	cur, ok := l.cursors[session]
	if !ok {
		l.mu.Unlock()
		return false
	}
	delete(l.cursors, session)
	l.refuse(session)
	l.mu.Unlock()
	l.emitEnd(session)
	if cur.src != nil {
		l.nacksSent.Add(1)
		nack := StreamNack{Session: session, LastSeq: cur.seq}
		if err := cur.src.writeFrame(FrameStreamNack, MarshalStreamNack(nack)); err != nil {
			l.logf("rxnet: redirect nack for session %d: %v", session, err)
		}
	}
	return true
}

// AckSession tells a session's peer that everything received so far
// has been consumed (decoded) through the stream's continuity cursor:
// the peer gets a StreamAck carrying the last consumed chunk Seq, so a
// cluster router can trim the stream's replay buffer — acked chunks
// never need replaying to a failover owner if this engine dies. It
// reports whether the stream was still known (a redirected or ended
// stream has no cursor left to ack). Peers that are not routers
// tolerate the frame: streaming nodes ignore control frames they do
// not act on.
func (l *ChunkListener) AckSession(session uint64) bool {
	l.mu.Lock()
	var src *lconn
	var seq uint32
	if cur, ok := l.cursors[session]; ok {
		src, seq = cur.src, cur.seq
	}
	l.mu.Unlock()
	return l.sendAck(src, session, seq)
}

// AckThrough acks a session through one delivered chunk (its
// ChunkEvent Seq and Epoch) rather than through everything admitted:
// chunks still queued behind it stay unacked. The ack is sent only
// while the stream is still in that epoch — once the stream restarted
// or skipped, its Seqs name other chunks and the ack is dropped.
// Reports whether an ack was sent.
func (l *ChunkListener) AckThrough(session uint64, epoch, seq uint32) bool {
	l.mu.Lock()
	var src *lconn
	if cur, ok := l.cursors[session]; ok && cur.epoch == epoch {
		src = cur.src
	}
	l.mu.Unlock()
	return l.sendAck(src, session, seq)
}

// sendAck writes a StreamAck through seq to the stream's connection
// (nil: the stream is unknown, nothing to ack).
func (l *ChunkListener) sendAck(src *lconn, session uint64, seq uint32) bool {
	if src == nil {
		return false
	}
	l.acksSent.Add(1)
	ack := StreamAck{Session: session, LastSeq: seq}
	if err := src.writeFrame(FrameStreamAck, MarshalStreamAck(ack)); err != nil {
		l.logf("rxnet: ack for session %d: %v", session, err)
		return false
	}
	return true
}

// refuse marks a session NACKed. Callers hold l.mu.
func (l *ChunkListener) refuse(session uint64) {
	if len(l.refused) >= maxStreamCursors {
		for k := range l.refused {
			delete(l.refused, k)
			break
		}
	}
	l.refused[session] = true
}

// emitEnd delivers a stream-End event to the consumer. End events are
// control plane: they are never dropped for queue pressure (losing
// one leaks a decode session), only when the listener is closing and
// the consumer stopped draining.
func (l *ChunkListener) emitEnd(session uint64) {
	ev := ChunkEvent{
		Session:  session,
		NodeID:   SessionNodeID(session),
		StreamID: SessionStreamID(session),
		End:      true,
	}
	select {
	case l.out <- ev:
	case <-l.closed:
		select {
		case l.out <- ev:
		default:
		}
	}
}

// ingestCounter returns the per-node ingest-bytes counter, creating
// its series on the node's first chunk.
func (l *ChunkListener) ingestCounter(node uint32) *telemetry.Counter {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.nodeTel[node]
	if !ok {
		c = l.reg.Counter(fmt.Sprintf(`pl_rxnet_ingest_bytes_total{node="%d"}`, node),
			"Sample-chunk frame bytes ingested per node.")
		l.nodeTel[node] = c
	}
	return c
}

// countFrameErr counts one malformed/unexpected frame.
func (l *ChunkListener) countFrameErr() {
	if l.frameErr != nil {
		l.frameErr.Inc()
	}
}

// Addr returns the bound listen address.
func (l *ChunkListener) Addr() string { return l.ln.Addr().String() }

// Chunks is the stream of sample deliveries. It is closed by Close
// after all connection handlers have exited.
func (l *ChunkListener) Chunks() <-chan ChunkEvent { return l.out }

// Hellos surfaces node registrations. The channel is buffered; when
// no one drains it, registrations are dropped rather than blocking
// sample delivery.
func (l *ChunkListener) Hellos() <-chan Hello { return l.hellos }

func (l *ChunkListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.closed:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			l.logf("rxnet: chunk accept: %v", err)
			return
		}
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

// admit applies cluster admission control and the stream-continuity
// rule (chunkCursor.advance) to one chunk. accept=false means the
// chunk must be discarded: counted in RefusedChunks (nack=true
// additionally means this is the stream's first refusal and the peer
// must be sent a StreamNack), or in DuplicateChunks when dup=true — a
// retransmission the cursor already consumed (router failover
// replay), discarded without disturbing the decode session. reset
// means the consumer must end the stream's open decode session first.
// replay marks an explicitly retransmitted chunk (FrameSampleReplay or
// FrameCodeReplay).
// epoch is the continuity epoch of an accepted chunk: fresh for a new
// cursor or a reset. shed=true means the cursor of session shedKey was
// evicted to bound the table; the caller must end that session once
// l.mu is released, since its continuity can no longer be checked.
func (l *ChunkListener) admit(c SampleChunk, src *lconn, replay bool) (accept, nack, reset, dup bool, epoch uint32, shedKey uint64, shed bool) {
	key := c.SessionKey()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.refused[key] {
		if l.draining {
			return false, false, false, false, 0, 0, false
		}
		// Not draining anymore: the ring moved the stream back here.
		// Accept it as a fresh stream (the redirect already released
		// any decode session).
		delete(l.refused, key)
	}
	cur, ok := l.cursors[key]
	if !ok {
		if l.draining {
			// New streams are refused while draining; in-flight ones
			// keep flowing so the drain stays lossless.
			l.refuse(key)
			return false, true, false, false, 0, 0, false
		}
		if len(l.cursors) >= maxStreamCursors {
			for k := range l.cursors {
				delete(l.cursors, k)
				shedKey, shed = k, true
				break
			}
		}
		epoch := l.nextEpoch()
		l.cursors[key] = &streamCursor{
			chunkCursor: chunkCursor{seq: c.Seq, next: c.Start + uint64(len(c.Samples))},
			src:         src,
			epoch:       epoch,
		}
		return true, false, false, false, epoch, shedKey, shed
	}
	// After a failover the replaying conn IS the stream's new source,
	// even for chunks already consumed: control frames must go there.
	cur.src = src
	if dup, reset = cur.advance(c, replay); dup {
		return false, false, false, true, 0, 0, false
	}
	if reset {
		cur.epoch = l.nextEpoch()
	}
	return true, false, reset, false, cur.epoch, 0, false
}

func (l *ChunkListener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer conn.Close()
	lc := &lconn{c: conn}
	l.mu.Lock()
	l.conns[lc] = struct{}{}
	draining := l.draining
	throttled := l.throttled
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.conns, lc)
		l.mu.Unlock()
	}()
	select {
	case <-l.closed:
		// Close snapshotted the connections it closes before this one
		// registered, so nothing else would end the read below.
		return
	default:
	}
	if draining {
		// A peer connecting to a draining engine (e.g. a router
		// redial) learns immediately.
		if err := lc.writeFrame(FrameDrain, MarshalDrain(Drain{Draining: true})); err != nil {
			return
		}
	}
	if throttled {
		// Likewise for a live backpressure signal.
		if err := lc.writeFrame(FrameThrottle, MarshalThrottle(Throttle{Paused: true})); err != nil {
			return
		}
	}
	var nodeID uint32
	// One frame buffer per connection: every frame body lands in it
	// (and is fully consumed before the next read), so the read loop
	// allocates nothing per frame.
	fr := NewFrameReader(conn)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(2 * time.Minute)); err != nil {
			return
		}
		t, body, err := fr.Next()
		if err != nil {
			select {
			case <-l.closed:
			default:
				l.logf("rxnet: chunk node %d read: %v", nodeID, err)
			}
			return
		}
		switch t {
		case FrameHello:
			h, err := UnmarshalHello(body)
			if err != nil {
				l.countFrameErr()
				l.logf("rxnet: bad hello: %v", err)
				return
			}
			nodeID = h.NodeID
			// Tell a sender that asks that it may use code frames
			// here. A failed answer only keeps it on float64 frames.
			if AsksCodes(body) {
				lc.writeFrame(FrameCodesOK, nil)
			}
			select {
			case l.hellos <- h:
			default:
			}
			l.logf("rxnet: chunk node %d (%s) at x=%.2f m joined", h.NodeID, h.Name, h.PosX)
		case FrameSampleChunk, FrameSampleReplay, FrameCodeChunk, FrameCodeReplay:
			// Decode straight into a pooled sample buffer: the wire →
			// buffer copy here is the only copy the chunk pays before
			// it reaches a session ring. The consumer releases the
			// buffer (Buf.Release) once the samples are fed.
			c, sb, err := decodeSampleChunk(t, body, getSampleBuf)
			if err != nil {
				l.countFrameErr()
				l.logf("rxnet: bad sample chunk: %v", err)
				return
			}
			if l.reg != nil {
				l.ingestCounter(c.NodeID).Add(int64(len(body)))
			}
			l.received.Add(1)
			l.paceGuard(c)
			accept, nack, reset, dup, epoch, shedKey, shed := l.admit(c, lc, t == FrameSampleReplay || t == FrameCodeReplay)
			if shed {
				l.emitEnd(shedKey)
			}
			if reset {
				l.resets.Add(1)
			}
			if dup {
				sb.Release()
				l.duplicates.Add(1)
				continue
			}
			if !accept {
				sb.Release()
				l.refusedCnt.Add(1)
				if nack {
					l.nacksSent.Add(1)
					// LastSeq 0: nothing of the stream was consumed
					// here; the router replays it from the beginning.
					body := MarshalStreamNack(StreamNack{Session: c.SessionKey()})
					if err := lc.writeFrame(FrameStreamNack, body); err != nil {
						l.logf("rxnet: stream nack: %v", err)
						return
					}
				}
				continue
			}
			ev := ChunkEvent{
				Session:  c.SessionKey(),
				NodeID:   c.NodeID,
				StreamID: c.StreamID,
				Seq:      c.Seq,
				Epoch:    epoch,
				Fs:       c.Fs,
				Samples:  c.Samples,
				Reset:    reset,
				Buf:      sb,
			}
			select {
			case l.out <- ev:
			case <-l.closed:
				// Closing mid-send: the consumer may still be draining
				// Chunks (Close only closes it after handlers exit), so
				// try once more without blocking rather than silently
				// abandoning the chunk in hand; count it dropped if the
				// queue is truly full.
				select {
				case l.out <- ev:
				default:
					l.dropped.Add(1)
					sb.Release()
				}
				return
			}
		case FrameStreamEnd:
			e, err := UnmarshalStreamEnd(body)
			if err != nil {
				l.countFrameErr()
				l.logf("rxnet: bad stream end: %v", err)
				return
			}
			l.endsRecv.Add(1)
			l.mu.Lock()
			delete(l.cursors, e.Session)
			delete(l.refused, e.Session)
			l.mu.Unlock()
			l.emitEnd(e.Session)
		case FrameDrainRequest:
			select {
			case l.drainReq <- struct{}{}:
			default:
			}
		default:
			l.countFrameErr()
			l.logf("rxnet: chunk listener got unexpected frame type %d", t)
			return
		}
	}
}

// Close stops the listener and all connection handlers, then closes
// the Chunks channel. Active connections are closed (a handler parked
// in a read would otherwise hold Close until its deadline), but each
// handler's in-hand chunk is still offered to the queue and counted
// if undeliverable, so delivered+dropped+refused always matches
// ReceivedChunks.
func (l *ChunkListener) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.closed)
		err = l.ln.Close()
		l.mu.Lock()
		conns := make([]*lconn, 0, len(l.conns))
		for lc := range l.conns {
			conns = append(conns, lc)
		}
		l.mu.Unlock()
		for _, lc := range conns {
			lc.c.Close()
		}
		l.wg.Wait()
		close(l.out)
		close(l.hellos)
	})
	return err
}
