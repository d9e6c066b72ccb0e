package cluster

import (
	"context"
	"testing"
	"time"

	"passivelight/internal/rxnet"
)

// joinEngine runs the Join client for an engine sim against a router
// and tears it down with the test.
func joinEngine(t *testing.T, routerAddr string, e *engineSim) {
	t.Helper()
	stop, err := Join(context.Background(), routerAddr, e.id, e.l.Addr(), JoinConfig{
		KeepAlive: 50 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("join %s: %v", e.id, err)
	}
	t.Cleanup(stop)
}

// An empty-ring router fills its fleet purely from EngineHello
// announcements: engines join, streams route, and a restart on a new
// address follows the engine with no operator action.
func TestEngineAutoJoinLifecycle(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	r, addr := startRouter(t, RouterConfig{AutoAdmit: true})

	if got := r.Stats().Engines; got != 0 {
		t.Fatalf("fresh auto-admit router has %d engines, want 0", got)
	}
	joinEngine(t, addr, a)
	joinEngine(t, addr, b)
	waitFor(t, "both engines admitted", func() bool { return r.Stats().Engines == 2 })
	epochAfterJoin := r.Stats().Epoch
	if epochAfterJoin < 2 {
		t.Fatalf("epoch after two joins = %d, want >= 2", epochAfterJoin)
	}

	r.mu.Lock()
	ring := r.ring
	r.mu.Unlock()
	node := dialNode(t, addr, 7)
	used := map[uint32]bool{}
	sid := streamOwnedBy(t, ring, 7, "engine-a", used)
	session := uint64(7)<<32 | uint64(sid)
	samples := make([]float64, 50)
	if err := node.StreamChunk(sid, 1000, samples); err != nil {
		t.Fatalf("stream chunk: %v", err)
	}
	waitFor(t, "chunk on engine-a", func() bool { return a.samplesFor(session) == 50 })

	// engine-a "restarts" on a new port with the same identity: the
	// next hello refreshes the address in place. Ownership must not
	// move (IDs hash, addresses don't).
	a2 := startEngineSim(t, "engine-a")
	a.l.Close()
	joinEngine(t, addr, a2)
	waitFor(t, "address refresh", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, m := range r.ring.Members() {
			if m.ID == "engine-a" && m.Addr == a2.l.Addr() {
				return true
			}
		}
		return false
	})
	if got := r.Stats().Engines; got != 2 {
		t.Fatalf("engines after restart = %d, want 2", got)
	}
	if err := node.StreamChunk(sid, 1000, samples); err != nil {
		t.Fatalf("stream chunk after restart: %v", err)
	}
	waitFor(t, "chunk on restarted engine-a", func() bool { return a2.samplesFor(session) == 50 })
}

// A NACK that arrives after the membership changed twice must replay
// on a current member, and a stale second NACK from the old owner is
// ignored.
func TestNackAfterRingChangedTwice(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	c := startEngineSim(t, "engine-c")
	ring := clusterRing(t, a)
	r, _ := startRouter(t, RouterConfig{Ring: ring, AutoAdmit: true})

	key := uint64(9)<<32 | uint64(4)
	samples := make([]float64, 25)
	for seq := uint32(1); seq <= 3; seq++ {
		body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
			NodeID: 9, StreamID: 4, Seq: seq,
			Fs: 1000, Start: uint64(seq-1) * 25, Samples: samples,
		})
		if err != nil {
			t.Fatalf("marshal chunk: %v", err)
		}
		r.forward(nil, key, kept(t, body), false)
	}
	waitFor(t, "chunks on engine-a", func() bool { return a.samplesFor(key) == 75 })

	// Two membership changes while the stream is in flight.
	r.AdmitEngine(Member{ID: "engine-b", Addr: b.l.Addr()})
	r.AdmitEngine(Member{ID: "engine-c", Addr: c.l.Addr()})
	if got := r.Stats().Epoch; got != ring.Epoch()+2 {
		t.Fatalf("epoch after two admits = %d, want %d", got, ring.Epoch()+2)
	}

	r.handleNack(r.ups["engine-a"], rxnet.StreamNack{Session: key, LastSeq: 1})
	waitFor(t, "replay on a new member", func() bool {
		return b.samplesFor(key) == 50 || c.samplesFor(key) == 50
	})
	if got := a.samplesFor(key); got != 75 {
		t.Fatalf("engine-a samples = %d, want the pre-NACK 75", got)
	}

	// Stale NACK from the ex-owner: the stream already moved, so the
	// handoff count must not change.
	handoffs := r.handoffs.Load()
	r.handleNack(r.ups["engine-a"], rxnet.StreamNack{Session: key, LastSeq: 2})
	time.Sleep(20 * time.Millisecond)
	if got := r.handoffs.Load(); got != handoffs {
		t.Fatalf("stale NACK moved the stream (handoffs %d -> %d)", handoffs, got)
	}
}

// A flapping engine re-announcing itself must be idempotent: repeated
// identical hellos bump neither the epoch nor the join counter, and
// must never clear a draining flag.
func TestDuplicateEngineHelloIdempotent(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	r, _ := startRouter(t, RouterConfig{AutoAdmit: true})

	m := Member{ID: "engine-a", Addr: a.l.Addr()}
	r.AdmitEngine(m)
	epoch, joins := r.Stats().Epoch, r.joins.Load()
	for i := 0; i < 10; i++ {
		r.AdmitEngine(m)
	}
	if got := r.Stats().Epoch; got != epoch {
		t.Fatalf("duplicate hellos bumped epoch %d -> %d", epoch, got)
	}
	if got := r.joins.Load(); got != joins {
		t.Fatalf("duplicate hellos counted joins %d -> %d", joins, got)
	}
	if got := r.Stats().Engines; got != 1 {
		t.Fatalf("engines = %d, want 1", got)
	}

	// A keepalive hello from a draining engine must not un-drain it.
	r.mu.Lock()
	up := r.ups["engine-a"]
	r.mu.Unlock()
	up.draining.Store(true)
	r.AdmitEngine(m)
	if !up.draining.Load() {
		t.Fatal("keepalive hello cleared the draining flag")
	}
}

// The replay buffer is byte-bounded: overflow evicts oldest frames
// (counted in bytes) and a NACK past the evicted window counts a
// replay gap instead of silently splicing.
func TestReplayBufferByteBound(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	ring := clusterRing(t, a)
	r, _ := startRouter(t, RouterConfig{Ring: ring, ReplayBytes: 200})

	key := uint64(3)<<32 | uint64(1)
	samples := make([]float64, 25) // kept as 80-byte code chunks
	var lastSeq uint32
	for seq := uint32(1); seq <= 6; seq++ {
		body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
			NodeID: 3, StreamID: 1, Seq: seq,
			Fs: 1000, Start: uint64(seq-1) * 25, Samples: samples,
		})
		if err != nil {
			t.Fatalf("marshal chunk: %v", err)
		}
		r.forward(nil, key, kept(t, body), false)
		lastSeq = seq
	}
	waitFor(t, "chunks delivered", func() bool { return a.samplesFor(key) == 150 })

	if got := r.replayEvicted.Load(); got <= 0 {
		t.Fatalf("replay evicted bytes = %d, want > 0", got)
	}
	rt, _ := r.routeFor(key)
	rt.fmu.Lock()
	kept, keptBytes := len(rt.replay.Entries()), rt.replay.Bytes()
	newest := rt.replay.Entries()[len(rt.replay.Entries())-1].Seq
	rt.fmu.Unlock()
	if keptBytes > 200 {
		t.Fatalf("replay holds %d bytes, want <= 200", keptBytes)
	}
	if kept == 0 || newest != lastSeq {
		t.Fatalf("replay kept %d frames ending at seq %d, want newest %d", kept, newest, lastSeq)
	}
}

// An engine that stays unreachable past DeadEngineTimeout is evicted:
// the ring shrinks, the epoch bumps, and a later hello re-admits it.
func TestDeadEngineEviction(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	ring := clusterRing(t, a, b)
	r, _ := startRouter(t, RouterConfig{
		Ring:              ring,
		AutoAdmit:         true,
		RedialBackoff:     10 * time.Millisecond,
		DeadEngineTimeout: 80 * time.Millisecond,
	})

	// Kill engine-b and route a stream it owns; the send failure
	// starts its outage clock and fails the stream over to engine-a.
	b.l.Close()
	used := map[uint32]bool{}
	sid := streamOwnedBy(t, ring, 5, "engine-b", used)
	key := uint64(5)<<32 | uint64(sid)
	body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
		NodeID: 5, StreamID: sid, Seq: 1, Fs: 1000, Samples: make([]float64, 10),
	})
	if err != nil {
		t.Fatalf("marshal chunk: %v", err)
	}
	r.forward(nil, key, kept(t, body), false)
	waitFor(t, "failover to engine-a", func() bool { return a.samplesFor(key) == 10 })

	waitFor(t, "dead engine evicted", func() bool { return r.Stats().Engines == 1 })
	if got := r.evicted.Load(); got != 1 {
		t.Fatalf("evicted counter = %d, want 1", got)
	}

	// The engine comes back and re-announces itself.
	b2 := startEngineSim(t, "engine-b")
	r.AdmitEngine(Member{ID: "engine-b", Addr: b2.l.Addr()})
	waitFor(t, "re-admission", func() bool { return r.Stats().Engines == 2 })
}
