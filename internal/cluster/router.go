package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"passivelight/internal/rxnet"
	"passivelight/internal/telemetry"
)

// RouterConfig tunes a Router beyond its ring.
type RouterConfig struct {
	// Ring is the engine fleet. Required, at least one member.
	Ring *Ring
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// ReplayBytes bounds the per-stream replay buffer by the bytes it
	// stores (recent chunk bodies kept so a NACKed stream can be
	// replayed on its new owner; a chunk of integer ADC codes is stored
	// at 2 bytes a sample, any other at 8). Zero selects 1 MiB, about
	// 509 s of a 1 kHz code stream in 512-sample chunks, or 130 s of a
	// float64 one. Overflow evicts the oldest
	// frames, counted in pl_cluster_replay_evicted_bytes_total; a NACK
	// that reaches past the buffer is counted in
	// pl_cluster_replay_gaps_total and the stream resumes with a gap
	// (the new owner's continuity cursor resets it).
	ReplayBytes int
	// RedialBackoff is the first-failure backoff before an upstream is
	// redialed; consecutive failures double it (with jitter) up to
	// RedialBackoffMax. Zero selects 1 s.
	RedialBackoff time.Duration
	// RedialBackoffMax caps the exponential redial backoff. Zero
	// selects 15 s.
	RedialBackoffMax time.Duration
	// DeadEngineTimeout evicts an engine that has been continuously
	// unreachable this long: the ring shrinks (its streams fail over
	// permanently on their next chunk) and the epoch bumps. A later
	// EngineHello re-admits it. Zero selects 60 s; negative disables
	// eviction.
	DeadEngineTimeout time.Duration
	// AutoAdmit accepts EngineHello frames: an engine announcing
	// itself is added to the ring (or has its address refreshed after
	// a restart) with no operator action. With AutoAdmit the router
	// may start on an empty ring and wait for its fleet.
	AutoAdmit bool
	// Peers lists the addresses of this router's replicas. Each peer is
	// dialed with backoff and pushed this router's ring on every
	// membership change (plus a periodic keepalive), over the same
	// RingUpdate frames engines receive; incoming peer updates converge
	// on the highest epoch. Two routers with each other as peers form
	// the HA pair: nodes carry both addresses (rxnet.RedialConfig.Addrs)
	// and fail over between them with no external coordinator. Peers
	// can also be added after Listen with AddPeer.
	Peers []string
	// RingBatchWindow coalesces ring-changing admissions (new engines,
	// address moves): the first one arms a timer and everything that
	// lands within the window is absorbed as ONE epoch bump, so a join
	// stampede of N engines costs one rebalance instead of N. Zero
	// selects 250 ms; negative applies every admission synchronously
	// (no batching — what the pre-batching tests and latency-sensitive
	// single-join deployments want).
	RingBatchWindow time.Duration
	// Metrics registers the router's pl_cluster_* series.
	Metrics *telemetry.Registry
}

// routeIdleTimeout evicts routes whose stream has been silent for
// this long, sending the owner a StreamEnd so the engine session
// releases too.
const routeIdleTimeout = 120 * time.Second

// dialTimeout bounds one upstream or peer dial.
const dialTimeout = 5 * time.Second

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.ReplayBytes == 0 {
		c.ReplayBytes = 1 << 20
	}
	if c.RedialBackoff == 0 {
		c.RedialBackoff = time.Second
	}
	if c.RedialBackoffMax == 0 {
		c.RedialBackoffMax = 15 * time.Second
	}
	if c.RedialBackoffMax < c.RedialBackoff {
		c.RedialBackoffMax = c.RedialBackoff
	}
	if c.DeadEngineTimeout == 0 {
		c.DeadEngineTimeout = 60 * time.Second
	}
	if c.RingBatchWindow == 0 {
		c.RingBatchWindow = 250 * time.Millisecond
	}
	return c
}

// keepChunk turns a chunk frame body of type t, which aliases the
// connection's read buffer, into the chunk the router keeps: a code
// chunk as it arrived, a float64 chunk as codes when every sample is
// one, and any other chunk as a copy.
func keepChunk(t rxnet.FrameType, body []byte) (rxnet.ReplayEntry, error) {
	if len(body) < 12 {
		return rxnet.ReplayEntry{}, fmt.Errorf("short chunk frame (%d bytes)", len(body))
	}
	c := rxnet.ReplayEntry{Seq: binary.BigEndian.Uint32(body[8:12])}
	if t == rxnet.FrameCodeChunk || t == rxnet.FrameCodeReplay {
		if err := rxnet.CheckCodeBody(body); err != nil {
			return rxnet.ReplayEntry{}, err
		}
		c.Body, c.Codes = bytes.Clone(body), true
	} else if c.Body = rxnet.CodeBody(body); c.Body != nil {
		c.Codes = true
	} else {
		c.Body = bytes.Clone(body)
	}
	return c, nil
}

// route is the router's view of one chunk stream: its sticky owner
// and a bounded replay buffer. fmu serializes the stream end to end —
// resolve, buffer, forward, and NACK-triggered replay — so the new
// owner can never observe replayed and live chunks out of order.
type route struct {
	fmu     sync.Mutex
	owner   string // member ID; "" means unresolved
	lastFwd uint32
	lastAct time.Time
	replay  rxnet.ReplayTail
	// ackedThrough is the highest chunk Seq the owner confirmed
	// consumed (StreamAck); acked frames are dropped from replay and a
	// failover replay starting past ackedThrough+1 is a counted gap.
	ackedThrough uint32
	// evicted is set (with the buffer emptied) when the janitor drops
	// the route from the table; a goroutine that looked the route up
	// before that must not touch it again.
	evicted bool
}

// upstream is the router's connection to one engine, redialed on
// demand. wmu serializes writes from routing goroutines, the NACK
// handler and the hello replay.
type upstream struct {
	id   string
	addr string

	wmu  sync.Mutex
	conn net.Conn

	// nextDial (unix nanos) and connected are read lock-free by
	// resolve and Stats — resolve runs under a route's fmu and must
	// not touch wmu, which send holds across dials.
	nextDial  atomic.Int64
	connected atomic.Bool
	draining  atomic.Bool
	throttled atomic.Bool
	// fails counts consecutive dial/write failures (exponential
	// backoff input); downSince (unix nanos) marks the start of the
	// current outage, 0 while healthy — the dead-engine eviction
	// clock.
	fails     atomic.Int32
	downSince atomic.Int64
}

// down reports whether the engine is unreachable and still in dial
// backoff, i.e. not worth assigning new streams to.
func (up *upstream) down(now time.Time) bool {
	return !up.connected.Load() && now.UnixNano() < up.nextDial.Load()
}

// failed records one dial/write failure: the outage clock starts (if
// not already running) and the next dial backs off exponentially with
// jitter.
func (up *upstream) failed(backoff rxnet.Backoff) {
	n := up.fails.Add(1)
	now := time.Now()
	up.nextDial.Store(now.Add(backoff.Delay(int(n))).UnixNano())
	up.downSince.CompareAndSwap(0, now.UnixNano())
}

// recovered clears the failure state after a successful dial.
func (up *upstream) recovered() {
	up.fails.Store(0)
	up.downSince.Store(0)
	up.nextDial.Store(0)
}

// nodeConn is one accepted receiver-node connection. Writes (throttle
// pause/resume relays) serialize on wmu; owners tracks which engines
// this connection's streams were forwarded to, so backpressure from a
// hot engine pauses exactly the nodes feeding it.
type nodeConn struct {
	c   net.Conn
	wmu sync.Mutex

	mu     sync.Mutex
	owners map[string]bool
	paused bool
}

func (nc *nodeConn) writeFrame(t rxnet.FrameType, body []byte) error {
	nc.wmu.Lock()
	defer nc.wmu.Unlock()
	if err := nc.c.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	return rxnet.WriteFrame(nc.c, t, body)
}

// Router is the cluster front-end: it accepts rxnet chunk streams
// from receiver nodes and forwards each stream to the engine that
// owns it on the consistent-hash ring, over the same wire protocol.
// Streams are sticky — once routed, a stream stays with its engine
// until it ends or the engine refuses it (drain NACK) — so membership
// changes never cut packets mid-window.
type Router struct {
	cfg  RouterConfig
	logf func(format string, args ...any)

	mu     sync.Mutex
	ring   *Ring
	routes map[uint64]*route
	ups    map[string]*upstream
	hellos map[uint32][]byte // latest Hello body per node, replayed on engine (re)connect
	nconns map[*nodeConn]struct{}
	peers  map[string]*peerLink

	// pendAdmits holds ring-changing admissions waiting for the batch
	// window to close; pendTimer is armed by the first of them.
	pendAdmits map[string]Member
	pendTimer  *time.Timer

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	chunksFwd       atomic.Int64
	streams         atomic.Int64
	handoffs        atomic.Int64
	nacksRecv       atomic.Int64
	acksRecv        atomic.Int64
	replayed        atomic.Int64
	replayGaps      atomic.Int64
	replayEvicted   atomic.Int64
	replayHeld      atomic.Int64 // bytes across every route's replay buffer
	redials         atomic.Int64
	failovers       atomic.Int64
	undeliv         atomic.Int64
	routesEnded     atomic.Int64
	joins           atomic.Int64
	evicted         atomic.Int64
	throttleSignals atomic.Int64
	throttlePauses  atomic.Int64
	ringBatches     atomic.Int64
	resyncs         atomic.Int64
	peerUpdates     atomic.Int64
}

// backoff is the upstream redial policy from the config.
func (r *Router) backoff() rxnet.Backoff {
	return rxnet.Backoff{Base: r.cfg.RedialBackoff, Max: r.cfg.RedialBackoffMax}
}

// RouterStats is an operational snapshot for health checks.
type RouterStats struct {
	// Routes currently tracked; Engines on the ring; Draining engines
	// among them; Down engines in dial backoff.
	Routes, Engines, Draining, Down int
	// Epoch of the active ring.
	Epoch uint64
	// Handoffs is the total streams moved between engines.
	Handoffs int64
	// Undeliverable counts chunks dropped because no engine would
	// take them.
	Undeliverable int64
	// Peers is the number of configured router replicas; PeersUp how
	// many of their links are currently connected.
	Peers, PeersUp int
}

// NewRouter builds an idle router over the ring. With cfg.AutoAdmit
// the ring may be nil or empty — the router waits for engines to
// announce themselves with EngineHello.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Ring == nil || cfg.Ring.Len() == 0 {
		if !cfg.AutoAdmit {
			return nil, errors.New("cluster: router needs a ring with at least one member (or AutoAdmit)")
		}
		if cfg.Ring == nil {
			empty, err := NewRing(0)
			if err != nil {
				return nil, err
			}
			cfg.Ring = empty
		}
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:        cfg,
		logf:       cfg.Logf,
		ring:       cfg.Ring,
		routes:     make(map[uint64]*route),
		ups:        make(map[string]*upstream),
		hellos:     make(map[uint32][]byte),
		nconns:     make(map[*nodeConn]struct{}),
		peers:      make(map[string]*peerLink),
		pendAdmits: make(map[string]Member),
		closed:     make(chan struct{}),
	}
	for _, m := range cfg.Ring.Members() {
		r.ups[m.ID] = &upstream{id: m.ID, addr: m.Addr}
	}
	if reg := cfg.Metrics; reg != nil {
		reg.CounterFunc("pl_cluster_chunks_forwarded_total",
			"Sample chunks forwarded to owning engines.", r.chunksFwd.Load)
		reg.CounterFunc("pl_cluster_streams_routed_total",
			"Streams assigned an owning engine.", r.streams.Load)
		reg.CounterFunc("pl_cluster_handoffs_total",
			"Streams moved between engines (drain NACKs, failovers).", r.handoffs.Load)
		reg.CounterFunc("pl_cluster_nacks_received_total",
			"Stream NACKs received from draining engines.", r.nacksRecv.Load)
		reg.CounterFunc("pl_cluster_stream_acks_total",
			"Consumption acks received from engines (replay buffers trimmed).", r.acksRecv.Load)
		reg.CounterFunc("pl_cluster_replayed_chunks_total",
			"Buffered chunks replayed on a stream's new owner after a handoff.", r.replayed.Load)
		reg.CounterFunc("pl_cluster_replay_gaps_total",
			"Handoffs whose replay buffer no longer held every unconsumed chunk.", r.replayGaps.Load)
		reg.CounterFunc("pl_cluster_replay_evicted_bytes_total",
			"Replay-buffer bytes evicted by the per-stream ReplayBytes bound.", r.replayEvicted.Load)
		reg.GaugeFunc("pl_cluster_replay_bytes",
			"Chunk bytes retained across all routes' replay buffers (forwarded, not yet acked).",
			func() float64 { return float64(r.replayHeld.Load()) })
		reg.CounterFunc("pl_cluster_engine_joins_total",
			"EngineHello admissions (new members plus address refreshes).", r.joins.Load)
		reg.CounterFunc("pl_cluster_engines_evicted_total",
			"Engines removed from the ring after DeadEngineTimeout.", r.evicted.Load)
		reg.CounterFunc("pl_cluster_throttle_signals_total",
			"Throttle state changes received from engines.", r.throttleSignals.Load)
		reg.CounterFunc("pl_cluster_throttle_pauses_total",
			"Pause frames relayed to receiver nodes feeding a hot engine.", r.throttlePauses.Load)
		reg.GaugeFunc("pl_cluster_throttled_engines", "Engines currently signalling backpressure.", func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			n := 0
			for _, up := range r.ups {
				if up.throttled.Load() {
					n++
				}
			}
			return float64(n)
		})
		reg.CounterFunc("pl_cluster_upstream_redials_total",
			"Engine connections re-established.", r.redials.Load)
		reg.CounterFunc("pl_cluster_failovers_total",
			"Streams moved because their engine connection failed mid-forward.", r.failovers.Load)
		reg.CounterFunc("pl_cluster_undeliverable_chunks_total",
			"Chunks dropped because no engine would accept their stream.", r.undeliv.Load)
		reg.CounterFunc("pl_cluster_routes_ended_total",
			"Routes released (idle eviction and shutdown).", r.routesEnded.Load)
		reg.CounterFunc("pl_cluster_ring_batches_total",
			"Batched membership changes applied (each is one epoch bump covering every admission or eviction in the window).", r.ringBatches.Load)
		reg.CounterFunc("pl_cluster_stream_resyncs_total",
			"Mid-stream first-sight chunks that triggered a resync NACK to the node (router failover arrivals).", r.resyncs.Load)
		reg.CounterFunc("pl_cluster_peer_updates_total",
			"Ring updates received from router peers.", r.peerUpdates.Load)
		reg.GaugeFunc("pl_cluster_router_peers", "Router peer links currently connected.", func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			n := 0
			for _, pl := range r.peers {
				if pl.connected.Load() {
					n++
				}
			}
			return float64(n)
		})
		reg.GaugeFunc("pl_cluster_epoch", "Active ring epoch.", func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.ring.Epoch())
		})
		reg.GaugeFunc("pl_cluster_engines", "Engines on the ring.", func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.ring.Len())
		})
		reg.GaugeFunc("pl_cluster_routes_active", "Streams currently routed.", func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.routes))
		})
	}
	return r, nil
}

// Listen starts accepting receiver-node connections on addr
// ("host:port"; empty port picks an ephemeral one) and returns the
// bound address.
func (r *Router) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.ln = ln
	r.mu.Unlock()
	r.wg.Add(1)
	go r.acceptLoop(ln)
	r.wg.Add(1)
	go r.janitor()
	for _, p := range r.cfg.Peers {
		r.AddPeer(p)
	}
	return ln.Addr().String(), nil
}

func (r *Router) acceptLoop(ln net.Listener) {
	defer r.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-r.closed:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			r.logf("cluster: accept: %v", err)
			return
		}
		r.wg.Add(1)
		go r.serveConn(conn)
	}
}

// serveConn relays one receiver node's frames. Only the 12-byte
// (NodeID, StreamID, Seq) prefix of a chunk is parsed to route it; the
// samples are read only to keep the chunk as 2-byte codes when they
// all are (keepChunk). Frames are read through one buffer per
// connection, so a chunk costs only the body the router keeps. The
// same port also accepts EngineHello frames from engines joining the
// cluster (AutoAdmit).
func (r *Router) serveConn(conn net.Conn) {
	defer r.wg.Done()
	nc := &nodeConn{c: conn, owners: make(map[string]bool)}
	r.mu.Lock()
	r.nconns[nc] = struct{}{}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.nconns, nc)
		r.mu.Unlock()
		conn.Close()
	}()
	select {
	case <-r.closed:
		// Close snapshotted the connections it closes before this one
		// registered, so nothing else would end the read below.
		return
	default:
	}
	fr := rxnet.NewFrameReader(conn)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(2 * time.Minute)); err != nil {
			return
		}
		t, body, err := fr.Next()
		if err != nil {
			select {
			case <-r.closed:
			default:
				r.logf("cluster: node read: %v", err)
			}
			return
		}
		switch t {
		case rxnet.FrameEngineHello:
			eh, err := rxnet.UnmarshalEngineHello(body)
			if err != nil {
				r.logf("cluster: bad engine hello: %v", err)
				return
			}
			if !r.cfg.AutoAdmit {
				r.logf("cluster: engine %s hello refused (auto-admit disabled)", eh.ID)
				continue
			}
			r.AdmitEngine(Member{ID: eh.ID, Addr: eh.Addr})
			// Ack with the active ring so the engine can observe its
			// own membership (and the fleet it joined). Admissions still
			// waiting in the batch window are included — the engine sees
			// itself immediately even though the epoch bump is pending.
			r.mu.Lock()
			ru := rxnet.RingUpdate{Epoch: r.ring.Epoch()}
			seen := make(map[string]bool, r.ring.Len())
			for _, m := range r.ring.Members() {
				ru.Members = append(ru.Members, rxnet.RingMember{ID: m.ID, Addr: m.Addr})
				seen[m.ID] = true
			}
			for _, m := range r.pendAdmits {
				if !seen[m.ID] {
					ru.Members = append(ru.Members, rxnet.RingMember{ID: m.ID, Addr: m.Addr})
				}
			}
			r.mu.Unlock()
			rb, err := rxnet.MarshalRingUpdate(ru)
			if err != nil {
				r.logf("cluster: ring update for %s: %v", eh.ID, err)
				continue
			}
			if err := nc.writeFrame(rxnet.FrameRingUpdate, rb); err != nil {
				r.logf("cluster: ring update to %s: %v", eh.ID, err)
				return
			}
		case rxnet.FrameHello:
			h, err := rxnet.UnmarshalHello(body)
			if err != nil {
				r.logf("cluster: bad hello: %v", err)
				return
			}
			body = bytes.Clone(body) // it aliases the read buffer
			r.mu.Lock()
			r.hellos[h.NodeID] = body
			ups := r.upstreamsLocked()
			r.mu.Unlock()
			// Node metadata fans out to the whole fleet: any engine may
			// end up owning one of this node's streams.
			for _, up := range ups {
				if err := r.sendHello(up, body); err != nil {
					r.logf("cluster: hello to %s: %v", up.id, err)
				}
			}
		case rxnet.FrameSampleChunk, rxnet.FrameSampleReplay, rxnet.FrameCodeChunk, rxnet.FrameCodeReplay:
			c, err := keepChunk(t, body)
			if err != nil {
				r.logf("cluster: bad chunk frame: %v", err)
				return
			}
			node := binary.BigEndian.Uint32(body[0:4])
			stream := binary.BigEndian.Uint32(body[4:8])
			session := uint64(node)<<32 | uint64(stream)
			r.forward(nc, session, c, t == rxnet.FrameSampleReplay || t == rxnet.FrameCodeReplay)
		case rxnet.FrameRingUpdate:
			// A router peer pushing its ring (peer link, or an operator
			// tool relaying state). Converge on it.
			ru, err := rxnet.UnmarshalRingUpdate(body)
			if err != nil {
				r.logf("cluster: bad peer ring update: %v", err)
				return
			}
			r.applyPeerUpdate(ru)
		default:
			r.logf("cluster: unexpected frame type %d from node", t)
			return
		}
	}
}

// routeFor returns the session's route, creating it unresolved, and
// reports whether this call created it (the stream's first sight).
func (r *Router) routeFor(session uint64) (*route, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt, ok := r.routes[session]
	if !ok {
		// Born active: the janitor must not evict a route before its
		// first forward stamps it.
		rt = &route{lastAct: time.Now()}
		r.routes[session] = rt
	}
	return rt, !ok
}

// upstreamsLocked snapshots the upstream set. Callers hold r.mu.
func (r *Router) upstreamsLocked() []*upstream {
	ups := make([]*upstream, 0, len(r.ups))
	for _, up := range r.ups {
		ups = append(ups, up)
	}
	return ups
}

// resolve picks the owner for a session from the active ring,
// walking past engines that are draining or in dial backoff, plus the
// member named by exclude (the sender of a NACK refused the stream
// whether or not its drain notice has been processed yet).
func (r *Router) resolve(session uint64, exclude string) (*upstream, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	m, ok := r.ring.OwnerAvoiding(session, func(m Member) bool {
		if m.ID == exclude {
			return true
		}
		up := r.ups[m.ID]
		return up == nil || up.draining.Load() || up.down(now)
	})
	if !ok {
		return nil, false
	}
	return r.ups[m.ID], true
}

// forward routes one chunk to its stream's owner, assigning an owner
// to new streams and buffering the chunk for NACK replay. nc is the
// node connection the chunk arrived on (nil in tests); successful
// forwards record the owner on it so engine backpressure can be
// relayed to exactly the nodes feeding that engine. replay reports
// whether the chunk arrived as a replay frame: node retransmissions
// after a failover forward under the same marking so the engine can
// dedup them against its cursor, and never masquerade as live
// restarts. The wire type, code or float64, is chosen per upstream at
// send time.
func (r *Router) forward(nc *nodeConn, session uint64, in rxnet.ReplayEntry, replay bool) {
	seq := in.Seq
	rt, created := r.routeFor(session)
	rt.fmu.Lock()
	for rt.evicted {
		// The janitor evicted the route between lookup and lock; the
		// stream continues on a fresh one.
		rt.fmu.Unlock()
		rt, created = r.routeFor(session)
		rt.fmu.Lock()
	}
	defer rt.fmu.Unlock()
	rt.lastAct = time.Now()
	if created && seq != 1 && !replay && nc != nil {
		// First sight of a mid-stream live chunk: this router holds
		// none of the stream's history (the node failed over from a
		// dead peer, or the route idled out). Ask the node to resend
		// its buffered tail — everything the engine already consumed
		// dedups against its continuity cursor, everything else closes
		// the gap the dead router's replay buffer took with it.
		r.resyncs.Add(1)
		nb := rxnet.MarshalStreamNack(rxnet.StreamNack{Session: session})
		if err := nc.writeFrame(rxnet.FrameStreamNack, nb); err != nil {
			r.logf("cluster: resync nack for stream %d: %v", session, err)
		}
	}
	// Buffer first: a NACK can arrive for any forwarded chunk. The
	// buffer is byte-bounded; overflow evicts from the oldest end but
	// always keeps the newest frame. Appends must keep the buffer
	// seq-ordered — a retransmission of a chunk already buffered (the
	// node resent its tail to a router that survived) is skipped
	// entirely: it was already forwarded once and a failover replay
	// must not deliver it out of order.
	if kept := rt.replay.Entries(); len(kept) > 0 && !rxnet.SeqLess(kept[len(kept)-1].Seq, seq) && (replay || seq != 1) {
		return
	}
	if !replay && seq == 1 && !rxnet.SeqLess(rt.lastFwd, seq) {
		// A live Seq=1 at or behind the newest forwarded chunk is a
		// genuine stream restart: the buffered chunks and the acks
		// belong to the previous incarnation, even once an ack has
		// emptied the buffer.
		r.replayHeld.Add(-int64(rt.replay.TrimThrough(rt.lastFwd)))
		rt.ackedThrough = 0
	}
	evicted := rt.replay.Append(in, r.cfg.ReplayBytes)
	r.replayHeld.Add(int64(len(in.Body) - evicted))
	if evicted > 0 {
		r.replayEvicted.Add(int64(evicted))
	}
	rt.lastFwd = seq
	failedOver := false
	for attempt := 0; attempt < 2; attempt++ {
		if rt.owner == "" {
			up, ok := r.resolve(session, "")
			if !ok {
				r.undeliv.Add(1)
				return
			}
			rt.owner = up.id
			r.streams.Add(1)
		}
		r.mu.Lock()
		up := r.ups[rt.owner]
		r.mu.Unlock()
		if up == nil {
			rt.owner = ""
			continue
		}
		// Normally only the live chunk goes out. After a crash
		// failover the new owner has no state for this stream, so the
		// whole retained unacked buffer is replayed in front of it —
		// what the dead engine consumed past its last ack is unknown,
		// and at-least-once is safe because replayed frames carry the
		// replay marking and dedup against the new owner's cursor.
		// Anything the byte bound already trimmed is a counted gap,
		// never a silent splice.
		frames := []rxnet.ReplayEntry{in}
		if failedOver {
			var gap bool
			if frames, gap = rt.replay.After(rt.ackedThrough); gap {
				r.replayGaps.Add(1)
			}
		}
		var err error
		for _, c := range frames {
			// The in-hand chunk keeps its arrival marking; everything
			// in front of it is a retransmission.
			if err = r.sendChunk(up, c, replay || c.Seq != seq); err != nil {
				break
			}
			r.chunksFwd.Add(1)
			if c.Seq != seq {
				r.replayed.Add(1)
			}
		}
		if err != nil {
			// The engine is gone mid-stream (crash, not drain): fail
			// the stream over to a survivor.
			r.logf("cluster: forward to %s: %v; failing stream %d over", up.id, err, session)
			r.failovers.Add(1)
			r.handoffs.Add(1)
			rt.owner = ""
			failedOver = true
			continue
		}
		if nc != nil {
			r.noteOwner(nc, up)
		}
		return
	}
	r.undeliv.Add(1)
}

// noteOwner records that nc's streams feed engine up, and pauses the
// node immediately if that engine is already throttled (a stream that
// lands on a hot engine after the propagation pass must not bypass
// the backpressure).
func (r *Router) noteOwner(nc *nodeConn, up *upstream) {
	nc.mu.Lock()
	nc.owners[up.id] = true
	pause := up.throttled.Load() && !nc.paused
	if pause {
		nc.paused = true
	}
	nc.mu.Unlock()
	if !pause {
		return
	}
	r.throttlePauses.Add(1)
	if err := nc.writeFrame(rxnet.FrameThrottle, rxnet.MarshalThrottle(rxnet.Throttle{Paused: true})); err != nil {
		r.logf("cluster: throttle to node: %v", err)
	}
}

// send writes one frame to an upstream, dialing it first if needed.
func (r *Router) send(up *upstream, t rxnet.FrameType, body []byte) error {
	up.wmu.Lock()
	defer up.wmu.Unlock()
	if _, err := r.connectLocked(up); err != nil {
		return err
	}
	return r.writeLocked(up, t, body)
}

// sendHello writes a node's Hello, already stored in r.hellos, to an
// upstream. When it has to dial first, the dial replays every stored
// Hello, this one included, so it writes nothing more.
func (r *Router) sendHello(up *upstream, body []byte) error {
	up.wmu.Lock()
	defer up.wmu.Unlock()
	dialed, err := r.connectLocked(up)
	if err != nil || dialed {
		return err
	}
	return r.writeLocked(up, rxnet.FrameHello, body)
}

// sendChunk writes one chunk to an upstream, dialing it first if
// needed, in the one wire form the chunk was kept in.
func (r *Router) sendChunk(up *upstream, c rxnet.ReplayEntry, replay bool) error {
	t, body := c.Frame(replay)
	return r.send(up, t, body)
}

// connectLocked dials the upstream unless it is connected, and
// reports whether it dialed. Callers hold up.wmu.
func (r *Router) connectLocked(up *upstream) (dialed bool, err error) {
	select {
	case <-r.closed:
		return false, errors.New("cluster: router closed")
	default:
	}
	if up.conn != nil {
		return false, nil
	}
	if time.Now().UnixNano() < up.nextDial.Load() {
		return false, fmt.Errorf("cluster: engine %s in dial backoff", up.id)
	}
	if err := r.dialLocked(up); err != nil {
		up.failed(r.backoff())
		return false, err
	}
	return true, nil
}

// writeLocked writes one frame on the upstream's connection, dropping
// the connection on failure. Callers hold up.wmu after connectLocked.
func (r *Router) writeLocked(up *upstream, t rxnet.FrameType, body []byte) error {
	if err := up.conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	if err := rxnet.WriteFrame(up.conn, t, body); err != nil {
		up.conn.Close()
		up.conn = nil
		up.connected.Store(false)
		up.failed(r.backoff())
		return err
	}
	return nil
}

// dialLocked connects an upstream and starts its reader. Callers hold
// up.wmu.
func (r *Router) dialLocked(up *upstream) error {
	conn, err := net.DialTimeout("tcp", up.addr, dialTimeout)
	if err != nil {
		return err
	}
	up.conn = conn
	up.connected.Store(true)
	up.draining.Store(false) // a fresh process announces its own state
	up.recovered()
	r.redials.Add(1)
	r.wg.Add(1)
	go r.readUpstream(up, conn)
	// A (re)connected engine needs the fleet's node metadata before
	// any of their streams land on it.
	r.mu.Lock()
	hellos := make([][]byte, 0, len(r.hellos))
	for _, h := range r.hellos {
		hellos = append(hellos, h)
	}
	r.mu.Unlock()
	for _, h := range hellos {
		if err := conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
			return err
		}
		if err := rxnet.WriteFrame(conn, rxnet.FrameHello, h); err != nil {
			return err
		}
	}
	return nil
}

// readUpstream consumes engine-to-router control frames (drain
// notices, stream NACKs and acks, throttles) from one dial of the
// upstream until the connection dies.
func (r *Router) readUpstream(up *upstream, conn net.Conn) {
	defer r.wg.Done()
	fr := rxnet.NewFrameReader(conn)
	for {
		// No deadline: engines speak only when state changes.
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			break
		}
		t, body, err := fr.Next()
		if err != nil {
			select {
			case <-r.closed:
			default:
				r.logf("cluster: engine %s read: %v", up.id, err)
			}
			break
		}
		switch t {
		case rxnet.FrameDrain:
			d, err := rxnet.UnmarshalDrain(body)
			if err != nil {
				r.logf("cluster: engine %s bad drain: %v", up.id, err)
				continue
			}
			up.draining.Store(d.Draining)
			r.logf("cluster: engine %s draining=%v", up.id, d.Draining)
		case rxnet.FrameStreamNack:
			n, err := rxnet.UnmarshalStreamNack(body)
			if err != nil {
				r.logf("cluster: engine %s bad nack: %v", up.id, err)
				continue
			}
			r.nacksRecv.Add(1)
			r.handleNack(up, n)
		case rxnet.FrameStreamAck:
			a, err := rxnet.UnmarshalStreamAck(body)
			if err != nil {
				r.logf("cluster: engine %s bad ack: %v", up.id, err)
				continue
			}
			r.acksRecv.Add(1)
			r.handleAck(up, a)
		case rxnet.FrameThrottle:
			th, err := rxnet.UnmarshalThrottle(body)
			if err != nil {
				r.logf("cluster: engine %s bad throttle: %v", up.id, err)
				continue
			}
			if up.throttled.Swap(th.Paused) != th.Paused {
				r.throttleSignals.Add(1)
				r.logf("cluster: engine %s throttled=%v", up.id, th.Paused)
				r.propagateThrottle()
			}
		default:
			// Engines send nothing else today; tolerate future frames.
		}
	}
	up.wmu.Lock()
	if up.conn == conn {
		up.conn = nil
		up.connected.Store(false)
		up.failed(r.backoff())
	}
	up.wmu.Unlock()
	// A dead engine drops its throttle with its connection.
	if up.throttled.Swap(false) {
		r.propagateThrottle()
	}
}

// propagateThrottle recomputes every node connection's pause state
// from the throttled-engine set and relays the changes. A node pauses
// while any engine its streams feed is throttled, and resumes when
// the last of them recovers.
func (r *Router) propagateThrottle() {
	r.mu.Lock()
	hot := make(map[string]bool)
	for id, up := range r.ups {
		if up.throttled.Load() {
			hot[id] = true
		}
	}
	nconns := make([]*nodeConn, 0, len(r.nconns))
	for nc := range r.nconns {
		nconns = append(nconns, nc)
	}
	r.mu.Unlock()
	for _, nc := range nconns {
		nc.mu.Lock()
		want := false
		for id := range nc.owners {
			if hot[id] {
				want = true
				break
			}
		}
		changed := want != nc.paused
		if changed {
			nc.paused = want
		}
		nc.mu.Unlock()
		if !changed {
			continue
		}
		if want {
			r.throttlePauses.Add(1)
		}
		body := rxnet.MarshalThrottle(rxnet.Throttle{Paused: want})
		if err := nc.writeFrame(rxnet.FrameThrottle, body); err != nil {
			r.logf("cluster: throttle relay to node: %v", err)
		}
	}
}

// handleAck trims a stream's replay buffer: the owner decoded every
// chunk through LastSeq, so none of them ever needs replaying again.
// This is what keeps crash failover exactly-once on the happy path —
// an evicted engine's streams replay only their unacked tail.
func (r *Router) handleAck(from *upstream, a rxnet.StreamAck) {
	r.mu.Lock()
	rt := r.routes[a.Session]
	r.mu.Unlock()
	if rt == nil {
		return
	}
	rt.fmu.Lock()
	defer rt.fmu.Unlock()
	if rt.evicted || rt.owner != from.id {
		// Stale ack: the route is gone, or the stream already moved and
		// the new owner's acks are the ones that matter now.
		return
	}
	// Serial-number comparisons throughout: a long-lived stream's Seq
	// wraps past MaxUint32, where naked uint32 ordering inverts and an
	// ack would either be ignored or trim the whole buffer.
	if rxnet.SeqLess(rt.lastFwd, a.LastSeq) {
		// Past the newest forwarded chunk: an ack of the stream's
		// previous incarnation, still in flight across a Seq=1
		// restart. Acks carry no epoch, so applying it would trim the
		// new incarnation's unconsumed chunks.
		return
	}
	if rxnet.SeqLess(rt.ackedThrough, a.LastSeq) {
		rt.ackedThrough = a.LastSeq
	}
	r.replayHeld.Add(-int64(rt.replay.TrimThrough(a.LastSeq)))
}

// handleNack moves a refused stream to a new owner and replays every
// chunk the old owner did not consume (Seq > LastSeq) from the replay
// buffer.
func (r *Router) handleNack(from *upstream, n rxnet.StreamNack) {
	r.mu.Lock()
	rt := r.routes[n.Session]
	r.mu.Unlock()
	if rt == nil {
		return
	}
	rt.fmu.Lock()
	defer rt.fmu.Unlock()
	if rt.evicted || rt.owner != from.id {
		// Stale NACK: the route is gone, or the stream already moved
		// (e.g. the first chunk was NACKed and follow-ups crossed it
		// on the wire).
		return
	}
	up, ok := r.resolve(n.Session, from.id)
	if !ok {
		// Nobody else will take it; unresolve so the next live chunk
		// retries (the drain may have ended by then).
		r.logf("cluster: stream %d refused by %s and no engine will take it", n.Session, from.id)
		rt.owner = ""
		return
	}
	rt.owner = up.id
	r.handoffs.Add(1)
	r.streams.Add(1)
	// Replay the unconsumed window in order. If the buffer no longer
	// reaches back to LastSeq+1, the stream resumes with a gap and
	// the new owner's continuity cursor resets the session; count it.
	later, gap := rt.replay.After(n.LastSeq)
	if gap {
		r.replayGaps.Add(1)
	}
	if err := r.replayOn(up, later); err != nil {
		r.logf("cluster: replay to %s: %v", up.id, err)
		r.failovers.Add(1)
		rt.owner = ""
	}
}

// replayOn sends buffered chunks to up as replay frames, in order,
// stopping at the first failure.
func (r *Router) replayOn(up *upstream, entries []rxnet.ReplayEntry) error {
	for _, c := range entries {
		if err := r.sendChunk(up, c, true); err != nil {
			return err
		}
		r.replayed.Add(1)
		r.chunksFwd.Add(1)
	}
	return nil
}

// AdmitEngine adds (or refreshes) an engine on the active ring — the
// engine-initiated path behind EngineHello, no operator action
// required. Three cases:
//
//   - Unknown ID: the member joins the ring (epoch bump). Existing
//     streams stay sticky with their owners; future streams see it.
//   - Known ID, new address: the engine restarted elsewhere. The
//     address is refreshed in place (epoch bump, no ownership
//     movement — the ring hashes IDs only) and the stale connection
//     is dropped.
//   - Known ID, same address: a restart behind a stable address or a
//     keepalive re-hello. If the engine was in dial backoff, the
//     backoff clears so its streams return on their next chunk.
//     Applied immediately — no ring change, nothing to batch.
//
// Ring-changing admissions (the first two cases) coalesce inside
// RingBatchWindow: the first one arms a timer, everything arriving
// before it fires is absorbed as ONE epoch bump — a join stampede of
// N engines costs one rebalance instead of N. A negative window
// applies each admission synchronously as its own epoch bump.
//
// Admission never clears a draining flag — a keepalive from a
// draining engine must not un-drain it; the flag resets when the
// router redials the fresh process.
func (r *Router) AdmitEngine(m Member) {
	if m.ID == "" || m.Addr == "" {
		return
	}
	r.mu.Lock()
	if up := r.ups[m.ID]; up != nil && up.addr == m.Addr {
		if _, pending := r.pendAdmits[m.ID]; !pending {
			if !up.connected.Load() && (up.fails.Load() > 0 || up.downSince.Load() != 0) {
				up.recovered()
				r.joins.Add(1)
				r.logf("cluster: engine %s rejoined at %s", m.ID, m.Addr)
			}
			r.mu.Unlock()
			return
		}
		// A queued address move for this ID is pending; fall through so
		// the newest announcement wins when the batch flushes.
	}
	if r.cfg.RingBatchWindow < 0 {
		// Unbatched: apply exactly this admission under the same lock
		// hold, so concurrent joins cost one epoch bump each.
		r.applyAdmits([]Member{m})
		return
	}
	r.pendAdmits[m.ID] = m
	if r.pendTimer == nil {
		r.pendTimer = time.AfterFunc(r.cfg.RingBatchWindow, r.flushAdmits)
	}
	r.mu.Unlock()
}

// flushAdmits applies every admission queued in the batch window as
// one membership change. Runs on the batch timer.
func (r *Router) flushAdmits() {
	r.mu.Lock()
	r.pendTimer = nil
	members := make([]Member, 0, len(r.pendAdmits))
	for _, m := range r.pendAdmits {
		members = append(members, m)
	}
	r.pendAdmits = make(map[string]Member)
	r.applyAdmits(members)
}

// applyAdmits applies admissions as one membership change: a single
// ring clone, a single epoch bump (Ring.Absorb), however many engines
// joined or moved. Entries that became no-ops (a keepalive or peer
// update already landed the same ID+addr) are skipped. The caller
// holds r.mu; applyAdmits releases it.
func (r *Router) applyAdmits(admits []Member) {
	members := admits[:0]
	for _, m := range admits {
		if up := r.ups[m.ID]; up != nil && up.addr == m.Addr {
			continue
		}
		members = append(members, m)
	}
	if len(members) == 0 {
		r.mu.Unlock()
		return
	}
	nr := r.ring.Clone()
	if !nr.Absorb(members) {
		r.mu.Unlock()
		return
	}
	r.ring = nr
	var stale []*upstream
	for _, m := range members {
		if old := r.ups[m.ID]; old != nil {
			stale = append(stale, old)
			r.logf("cluster: engine %s moved to %s (epoch %d)", m.ID, m.Addr, nr.Epoch())
		} else {
			r.logf("cluster: engine %s joined at %s (epoch %d, %d members)",
				m.ID, m.Addr, nr.Epoch(), nr.Len())
		}
		r.ups[m.ID] = &upstream{id: m.ID, addr: m.Addr}
		r.joins.Add(1)
	}
	r.ringBatches.Add(1)
	r.mu.Unlock()
	for _, up := range stale {
		up.wmu.Lock()
		if up.conn != nil {
			up.conn.Close()
			up.conn = nil
			up.connected.Store(false)
		}
		up.wmu.Unlock()
	}
	r.kickPeers()
}

// janitor evicts idle routes (releasing the engine session with a
// StreamEnd so neither side leaks per-stream state) and engines that
// have been continuously unreachable past DeadEngineTimeout.
func (r *Router) janitor() {
	defer r.wg.Done()
	interval := routeIdleTimeout / 4
	if r.cfg.DeadEngineTimeout > 0 && r.cfg.DeadEngineTimeout/4 < interval {
		interval = r.cfg.DeadEngineTimeout / 4
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.closed:
			return
		case now := <-tick.C:
			if r.cfg.DeadEngineTimeout > 0 {
				r.evictDeadEngines(now)
			}
			type idle struct {
				session uint64
				owner   string
			}
			// Lock order is fmu -> r.mu everywhere else (resolve runs
			// under a route's fmu), so snapshot first and take each
			// fmu with r.mu released.
			r.mu.Lock()
			snapshot := make(map[uint64]*route, len(r.routes))
			for s, rt := range r.routes {
				snapshot[s] = rt
			}
			r.mu.Unlock()
			var stale []idle
			for s, rt := range snapshot {
				rt.fmu.Lock()
				if now.Sub(rt.lastAct) <= routeIdleTimeout {
					rt.fmu.Unlock()
					continue
				}
				r.mu.Lock()
				gone := r.routes[s] == rt
				if gone {
					delete(r.routes, s)
				}
				r.mu.Unlock()
				if gone {
					rt.evicted = true
					r.replayHeld.Add(-int64(rt.replay.Bytes()))
					rt.replay = rxnet.ReplayTail{}
					stale = append(stale, idle{s, rt.owner})
				}
				rt.fmu.Unlock()
			}
			for _, st := range stale {
				r.routesEnded.Add(1)
				if st.owner == "" {
					continue
				}
				r.mu.Lock()
				up := r.ups[st.owner]
				r.mu.Unlock()
				if up != nil {
					body := rxnet.MarshalStreamEnd(rxnet.StreamEnd{Session: st.session})
					if err := r.send(up, rxnet.FrameStreamEnd, body); err != nil {
						r.logf("cluster: idle stream end to %s: %v", up.id, err)
					}
				}
			}
		}
	}
}

// evictDeadEngines removes ring members whose upstream has been
// continuously unreachable past DeadEngineTimeout. Their streams fail
// over permanently on their next chunk (the owner lookup misses and
// re-resolves); a later EngineHello re-admits the engine.
func (r *Router) evictDeadEngines(now time.Time) {
	cutoff := now.Add(-r.cfg.DeadEngineTimeout).UnixNano()
	var dead []*upstream
	r.mu.Lock()
	// One ring clone and ONE epoch bump however many engines die in
	// the same sweep — evictions batch like admissions do.
	var nr *Ring
	for id, up := range r.ups {
		ds := up.downSince.Load()
		if up.connected.Load() || ds == 0 || ds > cutoff {
			continue
		}
		if nr == nil {
			nr = r.ring.Clone()
		}
		nr.Remove(id)
		delete(r.ups, id)
		dead = append(dead, up)
	}
	if nr != nil && len(dead) > 0 {
		// Remove bumps per call; collapse the batch to a single bump.
		nr.epoch = r.ring.epoch + 1
		r.ring = nr
		r.ringBatches.Add(1)
	}
	r.mu.Unlock()
	if len(dead) == 0 {
		return
	}
	r.kickPeers()
	deadIDs := make(map[string]bool, len(dead))
	for _, up := range dead {
		deadIDs[up.id] = true
		r.evicted.Add(1)
		r.logf("cluster: engine %s evicted after %v unreachable", up.id, r.cfg.DeadEngineTimeout)
		up.wmu.Lock()
		if up.conn != nil {
			up.conn.Close()
			up.conn = nil
			up.connected.Store(false)
		}
		up.wmu.Unlock()
	}
	r.failOverRoutes(deadIDs)
}

// failOverRoutes moves every stream owned by an evicted engine to a
// survivor NOW, replaying its unacked replay buffer. Waiting for the
// stream's next live chunk is not enough: a stream whose node already
// finished sending never produces another chunk, so whatever the dead
// engine had received but not yet decoded would be lost silently even
// though the router still holds it. Acked streams (buffer empty) just
// unresolve — there is nothing left to deliver.
func (r *Router) failOverRoutes(dead map[string]bool) {
	// Lock order is fmu -> r.mu (resolve runs under a route's fmu), so
	// snapshot the table first and take each fmu with r.mu released.
	r.mu.Lock()
	snapshot := make(map[uint64]*route, len(r.routes))
	for s, rt := range r.routes {
		snapshot[s] = rt
	}
	r.mu.Unlock()
	for session, rt := range snapshot {
		rt.fmu.Lock()
		if !dead[rt.owner] {
			rt.fmu.Unlock()
			continue
		}
		rt.owner = ""
		unacked, gap := rt.replay.After(rt.ackedThrough)
		if len(unacked) == 0 {
			rt.fmu.Unlock()
			continue
		}
		up, ok := r.resolve(session, "")
		if !ok {
			r.undeliv.Add(int64(len(unacked)))
			r.logf("cluster: stream %d orphaned by eviction and no engine will take it", session)
			rt.fmu.Unlock()
			continue
		}
		if gap {
			r.replayGaps.Add(1)
		}
		r.failovers.Add(1)
		r.handoffs.Add(1)
		r.streams.Add(1)
		if err := r.replayOn(up, unacked); err != nil {
			// The survivor is down too; leave the route unresolved so
			// the next live chunk (or a later NACK) retries.
			r.logf("cluster: eviction replay to %s: %v", up.id, err)
		} else {
			rt.owner = up.id
			r.logf("cluster: stream %d failed over to %s after eviction (%d chunks replayed)",
				session, up.id, len(unacked))
		}
		rt.fmu.Unlock()
	}
}

// Stats returns an operational snapshot.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RouterStats{
		Routes:        len(r.routes),
		Engines:       r.ring.Len(),
		Epoch:         r.ring.Epoch(),
		Handoffs:      r.handoffs.Load(),
		Undeliverable: r.undeliv.Load(),
	}
	now := time.Now()
	for _, up := range r.ups {
		if up.draining.Load() {
			st.Draining++
		}
		if up.down(now) {
			st.Down++
		}
	}
	st.Peers = len(r.peers)
	for _, pl := range r.peers {
		if pl.connected.Load() {
			st.PeersUp++
		}
	}
	return st
}

// Addr returns the bound listen address ("" before Listen).
func (r *Router) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Close stops the listener, node handlers and upstream connections.
func (r *Router) Close() error {
	var err error
	r.closeOnce.Do(func() {
		close(r.closed)
		r.mu.Lock()
		if r.pendTimer != nil {
			r.pendTimer.Stop()
			r.pendTimer = nil
		}
		if r.ln != nil {
			err = r.ln.Close()
		}
		ups := r.upstreamsLocked()
		conns := make([]net.Conn, 0, len(r.nconns))
		for nc := range r.nconns {
			conns = append(conns, nc.c)
		}
		r.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		for _, up := range ups {
			up.wmu.Lock()
			if up.conn != nil {
				up.conn.Close()
				up.conn = nil
				up.connected.Store(false)
			}
			up.wmu.Unlock()
		}
		r.wg.Wait()
	})
	return err
}
