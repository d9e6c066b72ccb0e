package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"passivelight/internal/rxnet"
)

// engineSim is a scripted cluster engine: a real ChunkListener plus a
// collector goroutine standing in for the decode pipeline.
type engineSim struct {
	id string
	l  *rxnet.ChunkListener

	mu     sync.Mutex
	events []rxnet.ChunkEvent
}

func startEngineSim(t *testing.T, id string) *engineSim {
	t.Helper()
	l, err := rxnet.ListenChunksConfig("127.0.0.1:0", rxnet.ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("engine %s listen: %v", id, err)
	}
	e := &engineSim{id: id, l: l}
	go func() {
		for ev := range l.Chunks() {
			e.mu.Lock()
			e.events = append(e.events, ev)
			e.mu.Unlock()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return e
}

func (e *engineSim) snapshot() []rxnet.ChunkEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]rxnet.ChunkEvent(nil), e.events...)
}

// samplesFor sums delivered samples for one session.
func (e *engineSim) samplesFor(session uint64) int {
	n := 0
	for _, ev := range e.snapshot() {
		if ev.Session == session {
			n += len(ev.Samples)
		}
	}
	return n
}

// endedFor reports whether an End event was delivered for the session.
func (e *engineSim) endedFor(session uint64) bool {
	for _, ev := range e.snapshot() {
		if ev.Session == session && ev.End {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// clusterRing builds a ring whose member addresses are the engines'
// real listen addresses.
func clusterRing(t *testing.T, engines ...*engineSim) *Ring {
	t.Helper()
	members := make([]Member, len(engines))
	for i, e := range engines {
		members[i] = Member{ID: e.id, Addr: e.l.Addr()}
	}
	ring, err := NewRing(0, members...)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	return ring
}

// kept is the chunk the router keeps for a float64 body arriving on a
// node connection.
func kept(t *testing.T, body []byte) rxnet.ReplayEntry {
	t.Helper()
	c, err := keepChunk(rxnet.FrameSampleChunk, body)
	if err != nil {
		t.Fatalf("keep chunk: %v", err)
	}
	return c
}

func startRouter(t *testing.T, cfg RouterConfig) (*Router, string) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	if cfg.RingBatchWindow == 0 {
		// Most tests assert one epoch bump per admission; batching
		// tests opt back in explicitly.
		cfg.RingBatchWindow = -1
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	addr, err := r.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r, addr
}

// streamOwnedBy scans stream IDs until one hashes to the wanted
// engine, skipping IDs already claimed by the test.
func streamOwnedBy(t *testing.T, ring *Ring, node uint32, owner string, used map[uint32]bool) uint32 {
	t.Helper()
	for sid := uint32(1); sid < 1<<16; sid++ {
		if used[sid] {
			continue
		}
		key := uint64(node)<<32 | uint64(sid)
		if m, ok := ring.OwnerAvoiding(key, nil); ok && m.ID == owner {
			used[sid] = true
			return sid
		}
	}
	t.Fatalf("no stream id owned by %s", owner)
	return 0
}

func dialNode(t *testing.T, addr string, id uint32) *rxnet.Node {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	n, err := rxnet.DialReliable(ctx, addr, rxnet.Hello{NodeID: id, Name: fmt.Sprintf("node-%d", id)}, rxnet.RedialConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("dial router: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// Every chunk of every stream lands intact on the stream's ring
// owner, with no resets and no leakage onto the other engine.
func TestRouterRoutesByRing(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	ring := clusterRing(t, a, b)
	_, addr := startRouter(t, RouterConfig{Ring: ring})

	node := dialNode(t, addr, 7)
	const streams, chunks, per = 8, 3, 100
	samples := make([]float64, per)
	for i := range samples {
		samples[i] = float64(i)
	}
	for c := 0; c < chunks; c++ {
		for sid := uint32(1); sid <= streams; sid++ {
			if err := node.StreamChunk(sid, 1000, samples); err != nil {
				t.Fatalf("stream chunk: %v", err)
			}
		}
	}

	total := func() int {
		n := 0
		for _, e := range []*engineSim{a, b} {
			for _, ev := range e.snapshot() {
				n += len(ev.Samples)
			}
		}
		return n
	}
	waitFor(t, "all chunks delivered", func() bool { return total() == streams*chunks*per })

	byID := map[string]*engineSim{"engine-a": a, "engine-b": b}
	for sid := uint32(1); sid <= streams; sid++ {
		session := uint64(7)<<32 | uint64(sid)
		m, ok := ring.OwnerAvoiding(session, nil)
		if !ok {
			t.Fatalf("no owner for session %d", session)
		}
		owner := byID[m.ID]
		if got := owner.samplesFor(session); got != chunks*per {
			t.Errorf("session %d: owner %s got %d samples, want %d", session, m.ID, got, chunks*per)
		}
		for id, e := range byID {
			if id == m.ID {
				continue
			}
			if got := e.samplesFor(session); got != 0 {
				t.Errorf("session %d leaked %d samples onto %s", session, got, id)
			}
		}
		for _, ev := range owner.snapshot() {
			if ev.Session == session && ev.Reset {
				t.Errorf("session %d flagged reset on its owner", session)
			}
		}
	}
}

// A draining engine keeps its in-flight streams but new streams are
// routed to the surviving engine — the router learns the drain from
// the FrameDrain notice on its upstream connection.
func TestRouterDrainRoutesNewStreamsAway(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	ring := clusterRing(t, a, b)
	r, addr := startRouter(t, RouterConfig{Ring: ring})

	node := dialNode(t, addr, 1)
	used := map[uint32]bool{}
	inflight := streamOwnedBy(t, ring, 1, "engine-a", used)
	fresh := streamOwnedBy(t, ring, 1, "engine-a", used)
	inKey := uint64(1)<<32 | uint64(inflight)
	freshKey := uint64(1)<<32 | uint64(fresh)
	samples := make([]float64, 50)

	for i := 0; i < 2; i++ {
		if err := node.StreamChunk(inflight, 1000, samples); err != nil {
			t.Fatalf("stream chunk: %v", err)
		}
	}
	waitFor(t, "in-flight stream on engine-a", func() bool { return a.samplesFor(inKey) == 100 })

	a.l.Drain()
	waitFor(t, "router to observe drain", func() bool { return r.Stats().Draining == 1 })

	// New stream: ring says engine-a, drain steers it to engine-b.
	for i := 0; i < 3; i++ {
		if err := node.StreamChunk(fresh, 1000, samples); err != nil {
			t.Fatalf("stream chunk: %v", err)
		}
	}
	waitFor(t, "fresh stream on engine-b", func() bool { return b.samplesFor(freshKey) == 150 })
	if got := a.samplesFor(freshKey); got != 0 {
		t.Errorf("draining engine got %d samples of the fresh stream", got)
	}

	// The in-flight stream keeps flowing to the draining engine.
	if err := node.StreamChunk(inflight, 1000, samples); err != nil {
		t.Fatalf("stream chunk: %v", err)
	}
	waitFor(t, "in-flight stream still on engine-a", func() bool { return a.samplesFor(inKey) == 150 })
	if got := b.samplesFor(inKey); got != 0 {
		t.Errorf("in-flight stream leaked %d samples onto engine-b", got)
	}
}

// ForceRedirect during a drain hands the straggler to the other
// engine with zero loss and zero duplication: the old owner flushes
// (End event), the NACK replays anything it did not consume, and
// every sample is delivered exactly once across the fleet.
func TestRouterForceRedirectHandoffZeroLoss(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	ring := clusterRing(t, a, b)
	r, addr := startRouter(t, RouterConfig{Ring: ring})

	node := dialNode(t, addr, 3)
	used := map[uint32]bool{}
	sid := streamOwnedBy(t, ring, 3, "engine-a", used)
	key := uint64(3)<<32 | uint64(sid)
	samples := make([]float64, 100)

	for i := 0; i < 4; i++ {
		if err := node.StreamChunk(sid, 1000, samples); err != nil {
			t.Fatalf("stream chunk: %v", err)
		}
	}
	waitFor(t, "first window on engine-a", func() bool { return a.samplesFor(key) == 400 })

	a.l.Drain()
	waitFor(t, "router to observe drain", func() bool { return r.Stats().Draining == 1 })
	if !a.l.ForceRedirect(key) {
		t.Fatal("ForceRedirect: stream not known")
	}

	for i := 0; i < 4; i++ {
		if err := node.StreamChunk(sid, 1000, samples); err != nil {
			t.Fatalf("stream chunk: %v", err)
		}
	}
	waitFor(t, "second window on engine-b", func() bool { return b.samplesFor(key) == 400 })
	if got := a.samplesFor(key); got != 400 {
		t.Errorf("old owner delivered %d samples, want exactly 400 (no dup, no loss)", got)
	}
	if !a.endedFor(key) {
		t.Error("old owner never got the End event (decode session would leak)")
	}
	waitFor(t, "handoff counted", func() bool { return r.Stats().Handoffs >= 1 })
	if n := r.nacksRecv.Load(); n < 1 {
		t.Errorf("router counted %d NACKs, want >= 1", n)
	}
}

// White-box: a NACK replays exactly the buffered chunks past LastSeq,
// in order, on the stream's new owner.
func TestRouterNackReplay(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	ring := clusterRing(t, a, b)
	r, _ := startRouter(t, RouterConfig{Ring: ring})

	used := map[uint32]bool{}
	sid := streamOwnedBy(t, ring, 9, "engine-a", used)
	key := uint64(9)<<32 | uint64(sid)
	samples := make([]float64, 25)
	for seq := uint32(1); seq <= 3; seq++ {
		body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
			NodeID: 9, StreamID: sid, Seq: seq,
			Fs: 1000, Start: uint64(seq-1) * 25, Samples: samples,
		})
		if err != nil {
			t.Fatalf("marshal chunk: %v", err)
		}
		r.forward(nil, key, kept(t, body), false)
	}
	waitFor(t, "chunks on engine-a", func() bool { return a.samplesFor(key) == 75 })

	// Engine-a consumed through seq 1; replay 2 and 3 on engine-b.
	r.handleNack(r.ups["engine-a"], rxnet.StreamNack{Session: key, LastSeq: 1})
	waitFor(t, "replayed chunks on engine-b", func() bool { return b.samplesFor(key) == 50 })
	if got := r.replayed.Load(); got != 2 {
		t.Errorf("replayed counter = %d, want 2", got)
	}
	if got := r.replayGaps.Load(); got != 0 {
		t.Errorf("replay gaps = %d, want 0", got)
	}
	evs := b.snapshot()
	if len(evs) != 2 || evs[0].Reset || evs[1].Reset {
		t.Errorf("replay delivered %d events (resets %v) — want 2 contiguous", len(evs), evs)
	}

	// A duplicate (stale) NACK from the old owner must be a no-op.
	r.handleNack(r.ups["engine-a"], rxnet.StreamNack{Session: key, LastSeq: 1})
	time.Sleep(20 * time.Millisecond)
	if got := b.samplesFor(key); got != 50 {
		t.Errorf("stale NACK re-replayed: engine-b now has %d samples", got)
	}
}

// An engine that dies mid-stream (no drain, no NACK) fails the stream
// over: the router moves it to the survivor and keeps forwarding.
func TestRouterFailoverOnEngineCrash(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	ring := clusterRing(t, a, b)
	r, addr := startRouter(t, RouterConfig{Ring: ring})

	node := dialNode(t, addr, 2)
	used := map[uint32]bool{}
	sid := streamOwnedBy(t, ring, 2, "engine-a", used)
	key := uint64(2)<<32 | uint64(sid)
	samples := make([]float64, 10)

	if err := node.StreamChunk(sid, 1000, samples); err != nil {
		t.Fatalf("stream chunk: %v", err)
	}
	waitFor(t, "stream on engine-a", func() bool { return a.samplesFor(key) == 10 })

	a.l.Close()

	// Keep sending until the failover lands. The crash loses nothing
	// the router still holds: the survivor gets the stream's full
	// retained buffer replayed in front of the live chunk (what the
	// dead engine consumed is unknown, so at-least-once, and the blank
	// continuity cursor on the new owner makes that safe).
	sent := 1
	waitFor(t, "failover to engine-b", func() bool {
		if err := node.StreamChunk(sid, 1000, samples); err != nil {
			t.Fatalf("stream chunk: %v", err)
		}
		sent++
		time.Sleep(10 * time.Millisecond)
		return b.samplesFor(key) > 0
	})
	waitFor(t, "full stream replayed on engine-b", func() bool {
		return b.samplesFor(key) == sent*10
	})
	if got := r.failovers.Load(); got < 1 {
		t.Errorf("failovers = %d, want >= 1", got)
	}
	if got := r.replayed.Load(); got < 1 {
		t.Errorf("replayed = %d, want >= 1 (crash failover must replay the buffer)", got)
	}
}

// Evicting a dead engine fails its streams over immediately — a stream
// whose node already finished sending never produces the live chunk
// that would otherwise trigger the failover, so the survivor must get
// the retained buffer now. Acked streams (the old owner confirmed the
// decode) replay nothing: that is what keeps eviction exactly-once on
// the happy path instead of re-decoding the whole fleet.
func TestEvictionFailsOverUnackedStreams(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	ring := clusterRing(t, a, b)
	r, _ := startRouter(t, RouterConfig{
		Ring:              ring,
		RedialBackoff:     10 * time.Millisecond,
		DeadEngineTimeout: 80 * time.Millisecond,
	})

	used := map[uint32]bool{}
	stuck := streamOwnedBy(t, ring, 11, "engine-a", used)
	done := streamOwnedBy(t, ring, 11, "engine-a", used)
	stuckKey := uint64(11)<<32 | uint64(stuck)
	doneKey := uint64(11)<<32 | uint64(done)
	samples := make([]float64, 25)
	for _, sid := range []uint32{stuck, done} {
		for seq := uint32(1); seq <= 3; seq++ {
			body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
				NodeID: 11, StreamID: sid, Seq: seq,
				Fs: 1000, Start: uint64(seq-1) * 25, Samples: samples,
			})
			if err != nil {
				t.Fatalf("marshal chunk: %v", err)
			}
			r.forward(nil, uint64(11)<<32|uint64(sid), kept(t, body), false)
		}
	}
	waitFor(t, "both streams on engine-a", func() bool {
		return a.samplesFor(stuckKey) == 75 && a.samplesFor(doneKey) == 75
	})

	// engine-a decodes the done stream and acks it; the router trims
	// its replay buffer to nothing.
	if !a.l.AckSession(doneKey) {
		t.Fatal("AckSession did not know the stream")
	}
	waitFor(t, "ack to trim the replay buffer", func() bool {
		rt, _ := r.routeFor(doneKey)
		rt.fmu.Lock()
		defer rt.fmu.Unlock()
		return len(rt.replay.Entries()) == 0
	})

	// engine-a dies with the stuck stream undecoded and both nodes
	// done sending — no live chunk will ever trigger a forward.
	a.l.Close()
	waitFor(t, "dead engine evicted", func() bool { return r.Stats().Engines == 1 })

	// Eviction replays the stuck stream's full buffer on the survivor
	// and leaves the acked stream alone.
	waitFor(t, "stuck stream replayed on engine-b", func() bool {
		return b.samplesFor(stuckKey) == 75
	})
	if got := b.samplesFor(doneKey); got != 0 {
		t.Errorf("acked stream re-replayed %d samples on the survivor", got)
	}
	if got := r.failovers.Load(); got != 1 {
		t.Errorf("failovers = %d, want exactly 1 (the unacked stream)", got)
	}
	if got := r.acksRecv.Load(); got != 1 {
		t.Errorf("acks received = %d, want 1", got)
	}
	if got := r.replayGaps.Load(); got != 0 {
		t.Errorf("replay gaps = %d, want 0 (buffer was complete)", got)
	}
}

// Every trim of a replay buffer — the byte bound, a Seq=1 restart and
// an ack — must let go of the dropped chunk bodies: no slot of the
// backing array past len may still reference one, an emptied buffer
// holds no array at all, and the pl_cluster_replay_bytes gauge tracks
// the bytes still held.
func TestReplayTrimReleasesBodies(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	r, _ := startRouter(t, RouterConfig{Ring: clusterRing(t, a), ReplayBytes: 200})
	const key = uint64(5)<<32 | 1
	check := func(stage string) {
		t.Helper()
		rt, _ := r.routeFor(key)
		rt.fmu.Lock()
		defer rt.fmu.Unlock()
		entries := rt.replay.Entries()
		for i, c := range entries[len(entries):cap(entries)] {
			if c.Body != nil {
				t.Errorf("%s: slot len+%d still pins a %d-byte body", stage, i, len(c.Body))
			}
		}
		if got := r.replayHeld.Load(); got != int64(rt.replay.Bytes()) {
			t.Errorf("%s: replay gauge = %d bytes, buffer holds %d", stage, got, rt.replay.Bytes())
		}
	}

	// Six 80-byte code chunks into a 200-byte bound: the oldest are
	// evicted.
	for seq := uint32(1); seq <= 6; seq++ {
		r.forward(nil, key, kept(t, wrapChunk(t, 5, 1, seq, int(seq-1))), false)
	}
	if r.replayEvicted.Load() == 0 {
		t.Fatal("byte bound evicted nothing")
	}
	check("byte-bound trim")

	// A live Seq=1 restart drops the previous incarnation's buffer.
	for seq := uint32(1); seq <= 2; seq++ {
		r.forward(nil, key, kept(t, wrapChunk(t, 5, 1, seq, int(seq-1))), false)
	}
	check("restart reset")

	// The owner acks everything: the buffer empties completely.
	r.mu.Lock()
	upA := r.ups["engine-a"]
	r.mu.Unlock()
	r.handleAck(upA, rxnet.StreamAck{Session: key, LastSeq: 2})
	check("ack")
	rt, _ := r.routeFor(key)
	rt.fmu.Lock()
	n, c := len(rt.replay.Entries()), cap(rt.replay.Entries())
	rt.fmu.Unlock()
	if n != 0 || c != 0 {
		t.Errorf("fully acked buffer has len %d cap %d, want no backing array", n, c)
	}
	if got := r.replayHeld.Load(); got != 0 {
		t.Errorf("replay gauge = %d bytes after the full ack, want 0", got)
	}
}

// An ack still in flight from a stream's previous incarnation must not
// trim the restarted stream: acks carry no epoch, and applying one past
// the newest forwarded Seq would drop the new incarnation's unconsumed
// chunks — which a later failover would then skip without counting a
// gap.
func TestStaleAckIgnoredAfterRestart(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	r, _ := startRouter(t, RouterConfig{Ring: clusterRing(t, a)})
	const key = uint64(5)<<32 | 1
	for seq := uint32(1); seq <= 5; seq++ {
		r.forward(nil, key, kept(t, wrapChunk(t, 5, 1, seq, int(seq-1))), false)
	}
	// The node restarts the stream; the old incarnation's ack through
	// Seq 5 arrives after the restart's first chunk.
	r.forward(nil, key, kept(t, wrapChunk(t, 5, 1, 1, 0)), false)
	r.mu.Lock()
	upA := r.ups["engine-a"]
	r.mu.Unlock()
	r.handleAck(upA, rxnet.StreamAck{Session: key, LastSeq: 5})

	rt, _ := r.routeFor(key)
	rt.fmu.Lock()
	kept, acked := len(rt.replay.Entries()), rt.ackedThrough
	rt.fmu.Unlock()
	if kept != 1 || acked != 0 {
		t.Fatalf("after the stale ack: %d chunks kept, ackedThrough %d; want the restart's 1 chunk and 0", kept, acked)
	}

	// The new incarnation's own ack still trims.
	r.handleAck(upA, rxnet.StreamAck{Session: key, LastSeq: 1})
	rt.fmu.Lock()
	kept, acked = len(rt.replay.Entries()), rt.ackedThrough
	rt.fmu.Unlock()
	if kept != 0 || acked != 1 {
		t.Fatalf("after the live ack: %d chunks kept, ackedThrough %d; want 0 and 1", kept, acked)
	}
}

// A stream that restarts after its owner acked everything must start
// its ack history over too. The ack emptied the replay buffer, so the
// restart's Seq=1 is behind no buffered chunk; if the old incarnation's
// ackedThrough survived, a crash failover would treat the new
// incarnation's unacked chunks as consumed and replay none of them.
func TestRestartAfterFullAckReplaysOnFailover(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	ring := clusterRing(t, a, b)
	r, _ := startRouter(t, RouterConfig{
		Ring:              ring,
		RedialBackoff:     10 * time.Millisecond,
		DeadEngineTimeout: 80 * time.Millisecond,
	})
	sid := streamOwnedBy(t, ring, 5, "engine-a", map[uint32]bool{})
	key := uint64(5)<<32 | uint64(sid)
	for seq := uint32(1); seq <= 3; seq++ {
		r.forward(nil, key, kept(t, wrapChunk(t, 5, sid, seq, int(seq-1))), false)
	}
	r.mu.Lock()
	upA := r.ups["engine-a"]
	r.mu.Unlock()
	r.handleAck(upA, rxnet.StreamAck{Session: key, LastSeq: 3})

	// The node restarts the stream: two live chunks, never acked.
	for seq := uint32(1); seq <= 2; seq++ {
		r.forward(nil, key, kept(t, wrapChunk(t, 5, sid, seq, int(seq-1))), false)
	}
	// engine-a dies and is evicted, which fails its streams over.
	a.l.Close()
	waitFor(t, "the restarted stream replayed on engine-b", func() bool { return b.samplesFor(key) == 50 })
	if got := r.replayGaps.Load(); got != 0 {
		t.Errorf("replay gaps = %d, want 0", got)
	}
}

// A node connection accepted just before Close registers after Close
// snapshotted the connections it closes. Its handler must notice the
// router is closed rather than wait out the two-minute read deadline,
// which held Close in its WaitGroup wait for as long.
func TestServeConnAfterCloseReturns(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	r, _ := startRouter(t, RouterConfig{Ring: clusterRing(t, a)})
	r.Close()
	node, conn := net.Pipe()
	t.Cleanup(func() { node.Close() })
	r.wg.Add(1) // as acceptLoop does before starting the handler
	go r.serveConn(conn)
	closed := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("serveConn still reading a node connection 1 s after Close")
	}
}
