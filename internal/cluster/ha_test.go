package cluster

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"passivelight/internal/rxnet"
)

// wrapChunk builds a valid chunk body for the wraparound tests: 25
// samples per chunk, Start advancing by 25 per index so replayed runs
// stay contiguous for the receiving engine's cursor.
func wrapChunk(t *testing.T, node, stream, seq uint32, idx int) []byte {
	t.Helper()
	samples := make([]float64, 25)
	body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
		NodeID: node, StreamID: stream, Seq: seq,
		Fs: 1000, Start: uint64(idx) * 25, Samples: samples,
	})
	if err != nil {
		t.Fatalf("marshal chunk: %v", err)
	}
	return body
}

// Regression for the uint32 sequence wraparound bug: a long-lived
// stream whose Seq crosses math.MaxUint32 has post-wrap seqs that are
// numerically SMALLER than pre-wrap ones, so the old naked comparisons
// in handleAck ignored post-wrap acks (the replay buffer grew without
// bound and ackedThrough froze) and handleNack mis-sized the replay
// window. Serial-number arithmetic must treat seq 0 as AFTER seq
// MaxUint32.
func TestReplayBufferSeqWraparound(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")
	ring := clusterRing(t, a, b)
	r, _ := startRouter(t, RouterConfig{Ring: ring})

	const key = uint64(3)<<32 | uint64(17)
	// Buffer straddling the wrap: MaxUint32-1, MaxUint32, 0, 1, 2.
	seqs := []uint32{math.MaxUint32 - 1, math.MaxUint32, 0, 1, 2}
	rt, _ := r.routeFor(key)
	rt.fmu.Lock()
	rt.owner = "engine-a"
	rt.ackedThrough = math.MaxUint32 - 2
	for i, seq := range seqs {
		body := wrapChunk(t, 3, 17, seq, i)
		rt.replay.Append(rxnet.ReplayEntry{Seq: seq, Body: body}, r.cfg.ReplayBytes)
	}
	rt.fmu.Unlock()

	r.mu.Lock()
	upA := r.ups["engine-a"]
	r.mu.Unlock()
	if upA == nil {
		t.Fatal("engine-a has no upstream")
	}

	// The owner acks through post-wrap seq 0: everything up to and
	// including the wrap must trim, and ackedThrough must advance —
	// with naked uint32 comparisons (0 < MaxUint32-2) both are no-ops.
	r.handleAck(upA, rxnet.StreamAck{Session: key, LastSeq: 0})
	rt.fmu.Lock()
	acked, kept := rt.ackedThrough, len(rt.replay.Entries())
	var keptSeqs []uint32
	for _, c := range rt.replay.Entries() {
		keptSeqs = append(keptSeqs, c.Seq)
	}
	rt.fmu.Unlock()
	if acked != 0 {
		t.Fatalf("ackedThrough = %d after post-wrap ack, want 0", acked)
	}
	if kept != 2 || keptSeqs[0] != 1 || keptSeqs[1] != 2 {
		t.Fatalf("replay buffer after post-wrap ack = %v, want [1 2]", keptSeqs)
	}

	// The owner then refuses the stream at LastSeq 0: exactly the two
	// unacked post-wrap chunks must replay onto the other engine.
	r.handleNack(upA, rxnet.StreamNack{Session: key, LastSeq: 0})
	rt.fmu.Lock()
	owner := rt.owner
	rt.fmu.Unlock()
	if owner != "engine-b" {
		t.Fatalf("stream owner after NACK = %q, want engine-b", owner)
	}
	waitFor(t, "post-wrap replay on engine-b", func() bool { return b.samplesFor(key) == 50 })
	if got := r.replayGaps.Load(); got != 0 {
		t.Fatalf("replay gaps = %d, want 0 (window was fully buffered)", got)
	}
}

// A join stampede inside RingBatchWindow coalesces into ONE epoch
// bump and one migration pass, however many engines arrive. Run under
// -race: the admissions are concurrent.
func TestAdmitStampedeBatchesToOneEpochBump(t *testing.T) {
	seed := startEngineSim(t, "engine-seed")
	ring := clusterRing(t, seed)
	r, _ := startRouter(t, RouterConfig{Ring: ring, RingBatchWindow: 250 * time.Millisecond})
	epoch0 := r.Stats().Epoch

	joiners := []*engineSim{
		startEngineSim(t, "engine-a"),
		startEngineSim(t, "engine-b"),
		startEngineSim(t, "engine-c"),
	}
	var wg sync.WaitGroup
	for _, e := range joiners {
		wg.Add(1)
		go func(e *engineSim) {
			defer wg.Done()
			r.AdmitEngine(Member{ID: e.id, Addr: e.l.Addr()})
		}(e)
	}
	wg.Wait()

	// Nothing lands before the window fires...
	if got := r.Stats().Engines; got != 1 {
		t.Fatalf("engines visible before batch window = %d, want 1", got)
	}
	// ...then all three land as one membership change.
	waitFor(t, "batched admission flush", func() bool {
		st := r.Stats()
		return st.Engines == 4 && st.Epoch == epoch0+1
	})
	if got := r.ringBatches.Load(); got != 1 {
		t.Fatalf("ring batches = %d, want 1", got)
	}
	// A settled window later the epoch has not moved again.
	time.Sleep(150 * time.Millisecond)
	if got := r.Stats().Epoch; got != epoch0+1 {
		t.Fatalf("epoch settled at %d, want %d (one bump for three joins)", got, epoch0+1)
	}
	if got := r.ringBatches.Load(); got != 1 {
		t.Fatalf("ring batches after settle = %d, want 1", got)
	}
}

// With batching disabled, each admission is its own membership
// change: N concurrent joins give N epoch bumps, never one flush
// absorbing another caller's queued join.
func TestUnbatchedAdmitsBumpEpochPerJoin(t *testing.T) {
	seed := startEngineSim(t, "engine-seed")
	r, _ := startRouter(t, RouterConfig{Ring: clusterRing(t, seed), RingBatchWindow: -1})
	epoch0 := r.Stats().Epoch

	const n = 8
	joiners := make([]*engineSim, n)
	for i := range joiners {
		joiners[i] = startEngineSim(t, fmt.Sprintf("engine-%d", i))
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, e := range joiners {
		wg.Add(1)
		go func(e *engineSim) {
			defer wg.Done()
			<-start
			r.AdmitEngine(Member{ID: e.id, Addr: e.l.Addr()})
		}(e)
	}
	close(start)
	wg.Wait()

	// Unbatched admission is synchronous: everything has landed.
	st := r.Stats()
	if st.Engines != n+1 {
		t.Fatalf("engines = %d, want %d", st.Engines, n+1)
	}
	if st.Epoch != epoch0+n {
		t.Fatalf("epoch = %d after %d joins from %d, want %d (one bump per join)",
			st.Epoch, n, epoch0, epoch0+n)
	}
	if got := r.ringBatches.Load(); got != n {
		t.Fatalf("ring batches = %d, want %d", got, n)
	}
}

// Two peered routers converge on membership with no external
// coordinator: admissions on one appear on the other (highest epoch
// wins), and an eviction propagates the same way.
func TestRouterPeerConvergence(t *testing.T) {
	a := startEngineSim(t, "engine-a")
	b := startEngineSim(t, "engine-b")

	cfg := RouterConfig{
		AutoAdmit:         true,
		RedialBackoff:     20 * time.Millisecond,
		RedialBackoffMax:  200 * time.Millisecond,
		DeadEngineTimeout: 250 * time.Millisecond,
	}
	rA, addrA := startRouter(t, cfg)
	rB, addrB := startRouter(t, cfg)
	rA.AddPeer(addrB)
	rB.AddPeer(addrA)

	waitFor(t, "peer links up", func() bool {
		return rA.Stats().PeersUp == 1 && rB.Stats().PeersUp == 1
	})

	// Admissions land on A only; B must converge to the same ring.
	rA.AdmitEngine(Member{ID: a.id, Addr: a.l.Addr()})
	rA.AdmitEngine(Member{ID: b.id, Addr: b.l.Addr()})
	waitFor(t, "membership to converge onto router B", func() bool {
		stA, stB := rA.Stats(), rB.Stats()
		return stA.Engines == 2 && stB.Engines == 2 && stA.Epoch == stB.Epoch
	})
	if got := rB.peerUpdates.Load(); got == 0 {
		t.Fatal("router B applied no peer updates")
	}

	// Kill engine-b and push traffic it owns through A: the failed
	// sends mark it down, the janitor evicts it, and the eviction's
	// epoch bump must carry to B.
	b.l.Close()
	used := map[uint32]bool{}
	rA.mu.Lock()
	ringA := rA.ring
	rA.mu.Unlock()
	sid := streamOwnedBy(t, ringA, 5, "engine-b", used)
	key := uint64(5)<<32 | uint64(sid)
	waitFor(t, "eviction to converge onto router B", func() bool {
		body := wrapChunk(t, 5, sid, 1, 0)
		rA.forward(nil, key, kept(t, body), false)
		stA, stB := rA.Stats(), rB.Stats()
		return stA.Engines == 1 && stB.Engines == 1 && stA.Epoch == stB.Epoch
	})
}
