package rxnet

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Backoff computes capped exponential redial delays with jitter:
// attempt n (1-based) waits Base<<(n-1) capped at Max, scaled by a
// uniform factor in [0.5, 1.5) so a fleet of retrying peers does not
// thundering-herd a restarted server. The zero value selects
// 500 ms / 15 s.
type Backoff struct {
	// Base is the first-attempt delay. Zero selects 500 ms.
	Base time.Duration
	// Max caps the exponential growth. Zero selects 15 s.
	Max time.Duration
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 500 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 15 * time.Second
	}
	if b.Max < b.Base {
		b.Max = b.Base
	}
	return b
}

// minBackoffDelay floors the pre-jitter delay. rand.Int63n panics on
// a non-positive argument, so the delay must stay strictly positive
// through every degenerate config (sub-millisecond Base, a doubling
// that overflows int64 on large attempt counts). Degenerate configs
// with Max below this floor may therefore see delays slightly above
// their Max — a millisecond of extra patience beats a panic.
const minBackoffDelay = time.Millisecond

// maxBackoffDelay caps the pre-jitter delay: the jitter scales by up
// to 1.5x, so anything above MaxInt64/2 could overflow int64 and come
// out negative. Half of MaxInt64 is ~146 years — not a real cap.
const maxBackoffDelay = time.Duration(math.MaxInt64 / 2)

// Delay returns the jittered delay before attempt n (1-based).
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	d := b.Base
	for i := 1; i < attempt && d < b.Max; i++ {
		d *= 2
		if d <= 0 {
			// Doubling overflowed (huge Max, many attempts): the intent
			// was "as long as allowed", so cap and stop.
			d = b.Max
			break
		}
	}
	if d > b.Max {
		d = b.Max
	}
	if d < minBackoffDelay {
		d = minBackoffDelay
	}
	if d > maxBackoffDelay {
		d = maxBackoffDelay
	}
	// Uniform jitter in [0.5d, 1.5d).
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// RedialConfig tunes a streaming node (DialReliable).
type RedialConfig struct {
	// Backoff paces reconnect attempts after a connection failure.
	Backoff Backoff
	// MaxDowntime bounds one reconnect episode: if the server stays
	// unreachable this long, the pending write fails with the dial
	// error. Zero selects 30 s; negative retries forever.
	MaxDowntime time.Duration
	// Addrs lists additional server addresses beyond the one passed to
	// DialReliable. When a reconnect episode cannot reach the current
	// address, the node rotates through the list — transparent router
	// failover.
	Addrs []string
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (c RedialConfig) withDefaults() RedialConfig {
	if c.MaxDowntime == 0 {
		c.MaxDowntime = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// resendBytes bounds each stream's resend tail. A 512-sample chunk of
// codes stores 1054 bytes and any other chunk 4126, so at 1 kHz it
// holds 127 s of a code stream and 32 s of a float64 one.
const resendBytes = 256 << 10

// ErrNodeClosed reports a write on a closed node.
var ErrNodeClosed = errors.New("rxnet: node closed")

// Node is a receiver-side client streaming raw samples to a
// ChunkListener, or to a cluster router in front of one. It redials
// with backoff when its connection dies, reads its connection for
// control frames, stalls while the server holds it paused, and keeps
// a bounded resend tail of every stream.
type Node struct {
	hello     Hello
	cfg       RedialConfig
	helloBody []byte
	rctx      context.Context

	mu      sync.Mutex
	conn    net.Conn
	streams map[uint32]*streamState
	addrs   []string // failover rotation, the dialed address first
	addrIdx int      // current rotation position
	gen     int      // connection generation
	reading bool     // a control reader is running
	wbuf    []byte   // float64 expansion of a code body

	// codesGen is the connection generation whose server answered the
	// Hello with FrameCodesOK (set by the control reader); live chunks
	// go as code frames only while it equals gen.
	codesGen  atomic.Int64
	redials   atomic.Int64
	resent    atomic.Int64
	readerWG  sync.WaitGroup
	closedCh  chan struct{}
	closeOnce sync.Once

	pmu      sync.Mutex
	paused   bool
	resumeCh chan struct{}
}

// streamState tracks per-stream chunk accounting on the node side.
type streamState struct {
	seq   uint32
	start uint64
	// tail is the stream's resend buffer, bounded by resendBytes: the
	// bodies of the most recently sent chunks, replayed on reconnect or
	// on a server StreamNack so a server that never saw the stream's
	// recent chunks can rebuild it.
	tail ReplayTail
}

// DialReliable connects a streaming node and sends its Hello, asking
// the server whether it takes code frames. The node survives server
// restarts: writes that hit a dead connection redial with capped
// exponential backoff and jitter, re-announce the Hello, resend every
// stream's buffered tail as SampleReplay frames and resume the
// stream's chunk numbering. A server bounce or router failover that
// the tail reaches back over costs no continuity reset, a longer one
// a counted reset, never a silent splice; receivers dedup anything the
// old server already delivered. A control reader honors server
// Throttle frames (cluster backpressure) and answers StreamNacks from
// the tail. The initial dial retries under the same policy, so nodes
// may start before their router.
func DialReliable(ctx context.Context, addr string, hello Hello, cfg RedialConfig) (*Node, error) {
	helloBody, err := MarshalHello(hello)
	if err != nil {
		return nil, err
	}
	addrs := []string{addr}
	for _, a := range cfg.Addrs {
		if a != "" && a != addr {
			addrs = append(addrs, a)
		}
	}
	n := &Node{
		hello:     hello,
		cfg:       cfg.withDefaults(),
		helloBody: AskCodes(helloBody),
		rctx:      ctx,
		addrs:     addrs,
		closedCh:  make(chan struct{}),
		resumeCh:  make(chan struct{}),
	}
	n.mu.Lock()
	err = n.reconnectLocked(0)
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return n, nil
}

// StreamChunk ships raw RSS samples for server-side decoding. It does
// not wait for an acknowledgement: chunk streams are high-rate, TCP
// orders them, and the decode engine behind the listener absorbs
// bursts in per-session ring buffers. The node's ID is stamped on the
// chunk; Seq and Start are maintained per stream automatically.
func (n *Node) StreamChunk(streamID uint32, fs float64, samples []float64) error {
	if err := n.pauseGate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.streams == nil {
		n.streams = make(map[uint32]*streamState)
	}
	st := n.streams[streamID]
	if st == nil {
		st = &streamState{}
		n.streams[streamID] = st
	}
	// Oversized slices are split transparently into wire-sized chunks.
	for len(samples) > 0 {
		part := samples
		if len(part) > MaxChunkSamples {
			part = part[:MaxChunkSamples]
		}
		c := SampleChunk{
			NodeID:   n.hello.NodeID,
			StreamID: streamID,
			Seq:      st.seq + 1,
			Fs:       fs,
			Start:    st.start,
			Samples:  part,
		}
		ft, body, err := encodeSampleChunk(c)
		if err != nil {
			return err
		}
		e := ReplayEntry{Seq: c.Seq, Body: body, Codes: ft == FrameCodeChunk}
		if err := n.writeChunkLocked(e); err != nil {
			return err
		}
		st.tail.Append(e, resendBytes)
		st.seq++
		st.start += uint64(len(part))
		samples = samples[len(part):]
	}
	return nil
}

// Close closes the node's connection and stops its redial and control
// machinery.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.closedCh)
		n.mu.Lock()
		if n.conn != nil {
			err = n.conn.Close()
		}
		n.mu.Unlock()
		n.readerWG.Wait()
	})
	return err
}

// Resent reports how many buffered chunks the node has retransmitted
// as SampleReplay frames (on reconnect, or answering a server
// StreamNack).
func (n *Node) Resent() int64 { return n.resent.Load() }

// Redials reports how many times the node has re-established its
// connection (the initial dial not counted).
func (n *Node) Redials() int64 { return n.redials.Load() }

// Paused reports whether the server currently holds the node paused.
func (n *Node) Paused() bool {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	return n.paused
}

// reconnectLocked re-establishes the connection if generation gen is
// still current (a concurrent caller may have beaten us to it),
// retrying with backoff until MaxDowntime, and starts a control reader
// when none is running. Callers hold n.mu.
func (n *Node) reconnectLocked(gen int) error {
	if n.gen != gen {
		return nil // already reconnected by another path
	}
	if n.conn != nil {
		n.conn.Close()
		n.conn = nil
	}
	var deadline time.Time
	if n.cfg.MaxDowntime > 0 {
		deadline = time.Now().Add(n.cfg.MaxDowntime)
	}
	for attempt := 1; ; attempt++ {
		select {
		case <-n.closedCh:
			return ErrNodeClosed
		case <-n.rctx.Done():
			return n.rctx.Err()
		default:
		}
		conn, err := n.dialOnce()
		if err == nil {
			// Retransmit the buffered stream tails on the fresh
			// connection BEFORE any live chunk can follow: a failover
			// target that never saw this stream receives the missing
			// chunks in TCP order ahead of everything else, and a server
			// that already consumed them discards the marked replays
			// against its cursor. A resend failure is a dial failure —
			// the connection is already dead.
			if rerr := n.resendSavedOn(conn); rerr != nil {
				conn.Close()
				err = rerr
			} else {
				n.conn = conn
				n.gen++
				if n.gen > 1 {
					n.redials.Add(1)
					n.cfg.Logf("rxnet: node %d reconnected to %s (attempt %d)", n.hello.NodeID, n.curAddr(), attempt)
				}
				if !n.reading {
					n.reading = true
					n.readerWG.Add(1)
					go n.controlLoop()
				}
				return nil
			}
		}
		// Rotate to the next configured server for the next attempt —
		// transparent failover when the current router is gone.
		if len(n.addrs) > 1 {
			n.addrIdx = (n.addrIdx + 1) % len(n.addrs)
		}
		delay := n.cfg.Backoff.Delay(attempt)
		if !deadline.IsZero() && time.Now().Add(delay).After(deadline) {
			return err
		}
		select {
		case <-time.After(delay):
		case <-n.closedCh:
			return ErrNodeClosed
		case <-n.rctx.Done():
			return n.rctx.Err()
		}
	}
}

// curAddr is the address the rotation currently points at. Callers
// hold n.mu.
func (n *Node) curAddr() string { return n.addrs[n.addrIdx] }

// dialOnce makes one connection attempt and sends the Hello.
func (n *Node) dialOnce() (net.Conn, error) {
	var d net.Dialer
	dctx, cancel := context.WithTimeout(n.rctx, 5*time.Second)
	defer cancel()
	conn, err := d.DialContext(dctx, "tcp", n.curAddr())
	if err != nil {
		return nil, err
	}
	if err := conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := WriteFrame(conn, FrameHello, n.helloBody); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// writeChunkLocked writes one chunk frame, redialing and retrying on
// failure. A code body goes as a code frame only while the current
// connection's server has answered the Hello; otherwise, and on every
// fresh connection, it is expanded to its float64 frame. Callers hold
// n.mu.
func (n *Node) writeChunkLocked(e ReplayEntry) error {
	for {
		gen := n.gen
		t, body := e.Frame(n.codesGen.Load() == int64(gen), false, &n.wbuf)
		// A reconnect episode that gave up leaves no connection.
		if n.conn != nil && n.conn.SetWriteDeadline(time.Now().Add(10*time.Second)) == nil &&
			WriteFrame(n.conn, t, body) == nil {
			return nil
		}
		// The connection died under the write: reconnect and resend.
		// Whether the server consumed the failed chunk is unknowable
		// without acks; a duplicate surfaces as a counted continuity
		// reset on the server, never a silent splice.
		if err := n.reconnectLocked(gen); err != nil {
			return err
		}
	}
}

// resendLocked retransmits entries on conn as float64 SampleReplay
// frames, like every resend: the server of a fresh connection has not
// answered its Hello yet. Callers hold n.mu.
func (n *Node) resendLocked(conn net.Conn, entries []ReplayEntry) error {
	for _, e := range entries {
		if err := conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
			return err
		}
		t, body := e.Frame(false, true, &n.wbuf)
		if err := WriteFrame(conn, t, body); err != nil {
			return err
		}
		n.resent.Add(1)
	}
	return nil
}

// resendSavedOn retransmits every stream's buffered tail on conn.
// Callers hold n.mu; conn is not yet installed as n.conn, so a failure
// leaves the node's state untouched.
func (n *Node) resendSavedOn(conn net.Conn) error {
	for _, st := range n.streams {
		if err := n.resendLocked(conn, st.tail.Entries()); err != nil {
			return err
		}
	}
	return nil
}

// handleStreamNack answers a server StreamNack by retransmitting the
// buffered chunks past the server's cursor — how a failover router
// that never saw the stream rebuilds it without a continuity reset.
func (n *Node) handleStreamNack(nk StreamNack) {
	if SessionNodeID(nk.Session) != n.hello.NodeID {
		return
	}
	streamID := SessionStreamID(nk.Session)
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.streams[streamID]
	if st == nil || n.conn == nil {
		return
	}
	// A write failure means the connection died mid-resend; the next
	// write or the control reader reconnects and replays the full tail.
	later, _ := st.tail.After(nk.LastSeq)
	_ = n.resendLocked(n.conn, later)
}

// pauseGate blocks while the server holds the node paused. Advisory:
// a pause that lands after the gate delays only until the next chunk.
func (n *Node) pauseGate() error {
	for {
		n.pmu.Lock()
		if !n.paused {
			n.pmu.Unlock()
			return nil
		}
		ch := n.resumeCh
		n.pmu.Unlock()
		select {
		case <-ch:
		case <-n.closedCh:
			return ErrNodeClosed
		case <-n.rctx.Done():
			return n.rctx.Err()
		}
	}
}

// controlLoop consumes server-to-node control frames (the Hello's
// FrameCodesOK answer, Throttle pause/resume, drain notices) and
// drives reconnects when the read side sees the connection die first.
// Each connection generation is read through one FrameReader. A
// reconnect episode that gives up ends the loop and releases any
// stalled writer, whose next write redials and restarts it.
func (n *Node) controlLoop() {
	defer n.readerWG.Done()
	var fr *FrameReader
	frGen := -1
	for {
		n.mu.Lock()
		conn, gen := n.conn, n.gen
		n.reading = conn != nil
		n.mu.Unlock()
		if conn == nil {
			return
		}
		if gen != frGen {
			fr, frGen = NewFrameReader(conn), gen
		}
		conn.SetReadDeadline(time.Time{})
		t, body, err := fr.Next()
		if err != nil {
			select {
			case <-n.closedCh:
				return
			case <-n.rctx.Done():
				return
			default:
			}
			n.mu.Lock()
			if err := n.reconnectLocked(gen); err != nil {
				n.cfg.Logf("rxnet: node %d control reader giving up: %v", n.hello.NodeID, err)
			}
			n.mu.Unlock()
			// A reconnect lands on a fresh server conn with no pause
			// state, and a failed one on none; release any stalled writer.
			n.setPaused(false)
			continue
		}
		switch t {
		case FrameCodesOK:
			n.codesGen.Store(int64(gen))
		case FrameThrottle:
			th, err := UnmarshalThrottle(body)
			if err != nil {
				n.cfg.Logf("rxnet: node %d bad throttle: %v", n.hello.NodeID, err)
				continue
			}
			n.setPaused(th.Paused)
		case FrameStreamNack:
			nk, err := UnmarshalStreamNack(body)
			if err != nil {
				n.cfg.Logf("rxnet: node %d bad stream nack: %v", n.hello.NodeID, err)
				continue
			}
			n.handleStreamNack(nk)
		default:
			// Drain notices and future control frames are advisory for
			// a sending node; ignore.
		}
	}
}

// setPaused flips the pause state, waking blocked writers on
// resume.
func (n *Node) setPaused(paused bool) {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if paused == n.paused {
		return
	}
	n.paused = paused
	if paused {
		n.resumeCh = make(chan struct{})
	} else {
		close(n.resumeCh)
	}
}
