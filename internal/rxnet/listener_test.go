package rxnet

import (
	"net"
	"testing"
	"time"

	"passivelight/internal/telemetry"
)

// rawPeer is a naive sender for tests that drive the wire themselves:
// it writes a plain Hello and float64 chunk frames at 1 kHz, reads
// only what a test reads off conn, and never redials.
type rawPeer struct {
	conn net.Conn
	id   uint32
	last map[uint32]SampleChunk // per stream: the last chunk's Seq, Start and length
}

func dialRaw(t *testing.T, addr string, hello Hello) *rawPeer {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	body, err := MarshalHello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(c, FrameHello, body); err != nil {
		t.Fatal(err)
	}
	return &rawPeer{conn: c, id: hello.NodeID, last: make(map[uint32]SampleChunk)}
}

// chunk sends samples as the stream's next live chunk.
func (p *rawPeer) chunk(t *testing.T, stream uint32, samples []float64) {
	t.Helper()
	prev := p.last[stream]
	c := SampleChunk{NodeID: p.id, StreamID: stream, Seq: prev.Seq + 1, Fs: 1000,
		Start: prev.Start + uint64(len(prev.Samples)), Samples: samples}
	if err := WriteFrame(p.conn, FrameSampleChunk, MarshalOrDie(t, c)); err != nil {
		t.Fatal(err)
	}
	p.last[stream] = c
}

// collectChunks drains n chunk events with a deadline.
func collectChunks(t *testing.T, l *ChunkListener, n int) []ChunkEvent {
	t.Helper()
	var out []ChunkEvent
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-l.Chunks():
			if !ok {
				t.Fatalf("chunk channel closed after %d of %d events", len(out), n)
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out after %d of %d events", len(out), n)
		}
	}
	return out
}

func TestChunkListenerDeliversAndResets(t *testing.T) {
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	hello := Hello{NodeID: 7, PosX: 12.5, Height: 0.75, Name: "pole-7"}
	node := dialNode(t, l.Addr(), hello, RedialConfig{})
	samples := make([]float64, 2048)
	for i := range samples {
		samples[i] = float64(i % 100)
	}
	if err := node.StreamChunk(3, 2000, samples[:1024]); err != nil {
		t.Fatal(err)
	}
	if err := node.StreamChunk(3, 2000, samples[1024:]); err != nil {
		t.Fatal(err)
	}
	evs := collectChunks(t, l, 2)
	wantKey := uint64(7)<<32 | 3
	total := 0
	for i, ev := range evs {
		if ev.Session != wantKey || ev.NodeID != 7 || ev.StreamID != 3 {
			t.Fatalf("event %d keyed (%d, %d, %d), want session %d", i, ev.Session, ev.NodeID, ev.StreamID, wantKey)
		}
		if ev.Fs != 2000 {
			t.Fatalf("event %d fs %g", i, ev.Fs)
		}
		if ev.Reset {
			t.Fatalf("contiguous chunk %d flagged as reset", i)
		}
		total += len(ev.Samples)
	}
	if total != len(samples) {
		t.Fatalf("delivered %d samples, want %d", total, len(samples))
	}

	// Hello surfaced on the side channel.
	select {
	case h := <-l.Hellos():
		if h.NodeID != 7 || h.Name != "pole-7" {
			t.Fatalf("hello %+v", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no hello surfaced")
	}
	node.Close()

	// A reconnecting node restarts its per-stream numbering: the
	// first chunk of the new connection must arrive flagged Reset so
	// the decode session cannot splice epochs.
	node2 := dialNode(t, l.Addr(), hello, RedialConfig{})
	if err := node2.StreamChunk(3, 2000, samples[:512]); err != nil {
		t.Fatal(err)
	}
	evs = collectChunks(t, l, 1)
	if !evs[0].Reset {
		t.Fatal("restarted stream not flagged as reset")
	}
}

// TestChunkListenerCloseDrainsQueued locks in lossless ingest and the
// close accounting contract (delivered + dropped == received): a full
// queue blocks the connection reader instead of discarding, closing
// the listener while chunks sit in the queue must not strand them —
// the consumer can still drain the channel — and anything truly
// undeliverable at close is counted, never silently abandoned. The
// ingest series land in the attached registry.
func TestChunkListenerCloseDrainsQueued(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{
		Logf:       t.Logf,
		QueueDepth: 4,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	node := dialNode(t, l.Addr(), Hello{NodeID: 9, Name: "pole-9"}, RedialConfig{})

	const sent = 16
	samples := make([]float64, 128)
	for i := 0; i < sent; i++ {
		if err := node.StreamChunk(1, 2000, samples); err != nil {
			t.Fatal(err)
		}
	}

	// Nobody consumes: the reader fills the queue (4) and blocks with
	// one chunk in hand. Wait for ingestion to stall there.
	deadline := time.Now().Add(5 * time.Second)
	for l.ReceivedChunks() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("received %d chunks, want at least 5", l.ReceivedChunks())
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let ingestion settle
	if got, dropped := l.ReceivedChunks(), l.DroppedChunks(); got != 5 || dropped != 0 {
		t.Fatalf("full queue: received %d, dropped %d; want 5 and 0 (reader blocks, nothing discarded)", got, dropped)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`pl_rxnet_ingest_bytes_total{node="9"}`]; got <= 0 {
		t.Fatalf("pl_rxnet_ingest_bytes_total = %d, want > 0", got)
	}
	if got := snap.Gauges["pl_rxnet_queue_depth"]; got != 4 {
		t.Fatalf("pl_rxnet_queue_depth = %g, want 4 (queue full)", got)
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- l.Close() }()

	var delivered int64
	for range l.Chunks() {
		delivered++
	}
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not finish")
	}

	received, dropped := l.ReceivedChunks(), l.DroppedChunks()
	if delivered+dropped != received {
		t.Fatalf("delivered %d + dropped %d != received %d: chunks abandoned on close",
			delivered, dropped, received)
	}
	if delivered < 4 {
		t.Fatalf("only %d of the 4 queued chunks survived close", delivered)
	}
	if got := reg.Snapshot().Counters["pl_rxnet_dropped_chunks_total"]; got != dropped {
		t.Fatalf("pl_rxnet_dropped_chunks_total = %d, want %d", got, dropped)
	}
}

// TestServeConnAfterCloseReturns covers a connection accepted just
// before Close snapshots the live connections: its handler registers
// too late to be closed by Close, so it must notice the closed
// listener itself instead of reading until its 2-minute deadline.
func TestServeConnAfterCloseReturns(t *testing.T) {
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	node, conn := net.Pipe()
	t.Cleanup(func() { node.Close() })
	l.wg.Add(1) // as acceptLoop does before starting the handler
	go l.serveConn(conn)
	closed := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("serveConn still reading a node connection 1 s after Close")
	}
}

// TestChunkCursorAdvance is the stream-continuity rule, case by case.
func TestChunkCursorAdvance(t *testing.T) {
	chunk := func(seq uint32, start uint64, n int) SampleChunk {
		return SampleChunk{Seq: seq, Start: start, Fs: 1000, Samples: make([]float64, n)}
	}
	cases := []struct {
		name       string
		cur        chunkCursor
		c          SampleChunk
		replay     bool
		dup, reset bool
		wantSeq    uint32
		wantNext   uint64
	}{
		{"contiguous", chunkCursor{3, 300}, chunk(4, 300, 100), false, false, false, 4, 400},
		// A node that redials and resumes exactly where its old
		// connection stopped continues the same decode session.
		{"new conn at cursor", chunkCursor{1, 200}, chunk(2, 200, 100), false, false, false, 2, 300},
		{"live within mid-stream", chunkCursor{5, 500}, chunk(3, 200, 100), false, true, false, 5, 500},
		{"replay within at seq 1 start 0", chunkCursor{5, 500}, chunk(1, 0, 100), true, true, false, 5, 500},
		{"live seq 1 start 0 within", chunkCursor{5, 500}, chunk(1, 0, 100), false, false, true, 1, 100},
		{"gap", chunkCursor{5, 500}, chunk(7, 700, 100), false, false, true, 7, 800},
		{"seq wraps", chunkCursor{0xFFFFFFFF, 1000}, chunk(0, 1000, 100), false, false, false, 0, 1100},
		{"replay within across wrap", chunkCursor{1, 1100}, chunk(0xFFFFFFFF, 900, 100), true, true, false, 1, 1100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := tc.cur
			dup, reset := cur.advance(tc.c, tc.replay)
			if dup != tc.dup || reset != tc.reset {
				t.Fatalf("advance = (dup %v, reset %v), want (%v, %v)", dup, reset, tc.dup, tc.reset)
			}
			if cur.seq != tc.wantSeq || cur.next != tc.wantNext {
				t.Fatalf("cursor (%d, %d), want (%d, %d)", cur.seq, cur.next, tc.wantSeq, tc.wantNext)
			}
		})
	}

	// Through admit, the new connection also keeps the epoch (acks
	// still trim the same incarnation) and becomes the stream's source.
	l := &ChunkListener{cursors: make(map[uint64]*streamCursor), refused: make(map[uint64]bool)}
	a, b := &lconn{}, &lconn{}
	_, _, _, _, e1, _, _ := l.admit(chunk(1, 0, 200), a, false)
	accept, _, reset, dup, e2, _, _ := l.admit(chunk(2, 200, 100), b, false)
	if !accept || reset || dup || e2 != e1 || l.cursors[0].src != b {
		t.Fatalf("resume on a new conn: accept %v reset %v dup %v epoch %d->%d", accept, reset, dup, e1, e2)
	}
}

// TestChunkListenerShedCursorEndsSession fills the cursor table to its
// bound: the stream whose cursor is evicted for a new one must get an
// End event, or its open decode session would later splice in chunks
// with continuity unchecked.
func TestChunkListenerShedCursorEndsSession(t *testing.T) {
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	filled := make(map[uint64]bool, maxStreamCursors)
	for i := 0; i < maxStreamCursors; i++ {
		c := SampleChunk{NodeID: 1 << 20, StreamID: uint32(i), Seq: 1, Fs: 1000, Samples: []float64{0}}
		if _, _, _, _, _, _, shed := l.admit(c, nil, false); shed {
			t.Fatalf("shed a cursor at %d of %d", i, maxStreamCursors)
		}
		filled[c.SessionKey()] = true
	}

	node := dialNode(t, l.Addr(), Hello{NodeID: 2, Name: "pole-2"}, RedialConfig{})
	if err := node.StreamChunk(0, 1000, make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	evs := collectChunks(t, l, 2)
	if !evs[0].End || !filled[evs[0].Session] {
		t.Fatalf("first event %+v, want an End for a shed session", evs[0])
	}
	if evs[1].End || evs[1].NodeID != 2 || len(evs[1].Samples) != 10 {
		t.Fatalf("second event %+v, want node 2's chunk", evs[1])
	}
	if got := len(l.Sessions()); got != maxStreamCursors {
		t.Fatalf("%d cursors after shed, want %d", got, maxStreamCursors)
	}
}

// readFrameWithin reads one frame off a raw connection with a deadline.
func readFrameWithin(t *testing.T, c net.Conn, d time.Duration) (FrameType, []byte) {
	t.Helper()
	if err := c.SetReadDeadline(time.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
	ft, body, err := ReadFrame(c)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return ft, body
}

// TestChunkListenerDrainRefusesNewStreams covers the drain admission
// contract: draining notifies peers, NACKs new streams (replay from
// the beginning), keeps in-flight streams flowing, and announces the
// drain to late-connecting peers.
func TestChunkListenerDrainRefusesNewStreams(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	node := dialRaw(t, l.Addr(), Hello{NodeID: 1, Name: "pole-1"})
	samples := make([]float64, 64)
	node.chunk(t, 1, samples)
	collectChunks(t, l, 1) // stream (1,1) is now in flight

	l.Drain()
	l.Drain() // idempotent
	if !l.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	ft, body := readFrameWithin(t, node.conn, 5*time.Second)
	if ft != FrameDrain {
		t.Fatalf("peer got frame %d after Drain, want FrameDrain", ft)
	}
	if d, err := UnmarshalDrain(body); err != nil || !d.Draining {
		t.Fatalf("drain notice %+v, %v", d, err)
	}

	// A NEW stream is refused with a replay-from-start NACK...
	node.chunk(t, 2, samples)
	ft, body = readFrameWithin(t, node.conn, 5*time.Second)
	if ft != FrameStreamNack {
		t.Fatalf("new stream got frame %d while draining, want FrameStreamNack", ft)
	}
	nack, err := UnmarshalStreamNack(body)
	if err != nil {
		t.Fatal(err)
	}
	if nack.Session != uint64(1)<<32|2 || nack.LastSeq != 0 {
		t.Fatalf("nack %+v, want session (1,2) lastSeq 0", nack)
	}
	// ...and its follow-up chunks are discarded without a second NACK.
	node.chunk(t, 2, samples)

	// The in-flight stream keeps flowing.
	node.chunk(t, 1, samples)
	evs := collectChunks(t, l, 1)
	if evs[0].StreamID != 1 || evs[0].Reset {
		t.Fatalf("in-flight stream event %+v during drain", evs[0])
	}

	deadline := time.Now().Add(5 * time.Second)
	for l.RefusedChunks() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("refused %d chunks, want 2", l.RefusedChunks())
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pl_cluster_stream_nacks_sent_total"]; got != 1 {
		t.Fatalf("pl_cluster_stream_nacks_sent_total = %d, want 1", got)
	}
	if got := snap.Counters["pl_cluster_refused_chunks_total"]; got != 2 {
		t.Fatalf("pl_cluster_refused_chunks_total = %d, want 2", got)
	}

	// A peer connecting mid-drain is told immediately.
	late := dialRaw(t, l.Addr(), Hello{NodeID: 2, Name: "pole-2"})
	if ft, _ := readFrameWithin(t, late.conn, 5*time.Second); ft != FrameDrain {
		t.Fatalf("late peer got frame %d, want FrameDrain", ft)
	}
}

// TestChunkListenerForceRedirectAndStreamEnd covers the two handoff
// primitives: ForceRedirect (engine evicts an in-flight stream — End
// event locally, NACK with the consumed Seq to the peer) and
// FrameStreamEnd (router orders a flush+release — End event locally).
func TestChunkListenerForceRedirectAndStreamEnd(t *testing.T) {
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	node := dialRaw(t, l.Addr(), Hello{NodeID: 8, Name: "pole-8"})
	samples := make([]float64, 64)
	for i := 0; i < 3; i++ {
		node.chunk(t, 1, samples)
	}
	collectChunks(t, l, 3)

	session := uint64(8)<<32 | 1
	if !l.ForceRedirect(session) {
		t.Fatal("ForceRedirect did not know the in-flight stream")
	}
	if l.ForceRedirect(session) {
		t.Fatal("second ForceRedirect claims the stream is still here")
	}
	evs := collectChunks(t, l, 1)
	if !evs[0].End || evs[0].Session != session || len(evs[0].Samples) != 0 {
		t.Fatalf("redirect event %+v, want empty End for session %d", evs[0], session)
	}
	ft, body := readFrameWithin(t, node.conn, 5*time.Second)
	if ft != FrameStreamNack {
		t.Fatalf("redirect sent frame %d, want FrameStreamNack", ft)
	}
	nack, err := UnmarshalStreamNack(body)
	if err != nil {
		t.Fatal(err)
	}
	if nack.Session != session || nack.LastSeq != 3 {
		t.Fatalf("redirect nack %+v, want session %d lastSeq 3 (3 chunks consumed)", nack, session)
	}

	// A router-ordered StreamEnd also surfaces as an End event.
	endSession := uint64(8)<<32 | 9
	if err := WriteFrame(node.conn, FrameStreamEnd, MarshalStreamEnd(StreamEnd{Session: endSession})); err != nil {
		t.Fatal(err)
	}
	evs = collectChunks(t, l, 1)
	if !evs[0].End || evs[0].Session != endSession {
		t.Fatalf("stream-end event %+v, want End for session %d", evs[0], endSession)
	}

	// And a FrameDrainRequest surfaces on the DrainRequests channel.
	if err := WriteFrame(node.conn, FrameDrainRequest, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.DrainRequests():
	case <-time.After(5 * time.Second):
		t.Fatal("drain request not surfaced")
	}
}
