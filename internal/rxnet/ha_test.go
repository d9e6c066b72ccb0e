package rxnet

import (
	"context"
	"math"
	"net"
	"testing"
	"time"
)

// Regression for the Backoff.Delay jitter panic: rand.Int63n panics
// on a non-positive argument, so a degenerate config (sub-millisecond
// Base, a doubling that overflows int64, an absurd Max whose jitter
// sum overflows) must clamp rather than crash the redial loop.
func TestBackoffDelayDegenerate(t *testing.T) {
	cases := []struct {
		name string
		b    Backoff
	}{
		{"zero value", Backoff{}},
		{"nanosecond base", Backoff{Base: 1}},
		{"negative base", Backoff{Base: -time.Second}},
		{"base above max", Backoff{Base: time.Second, Max: time.Millisecond}},
		{"nanosecond base and max", Backoff{Base: 1, Max: 1}},
		{"max int64 max", Backoff{Base: time.Second, Max: math.MaxInt64}},
	}
	attempts := []int{0, 1, 2, 63, 64, 100}
	for _, tc := range cases {
		for _, attempt := range attempts {
			d := tc.b.Delay(attempt)
			if d <= 0 {
				t.Errorf("%s: Delay(%d) = %v, want > 0", tc.name, attempt, d)
			}
		}
	}
}

// chunkAt builds a marshaled chunk body for the dedup tests: node 9,
// stream 2, 50 samples per chunk, Start following seq.
func chunkAt(t *testing.T, seq uint32, start uint64) []byte {
	t.Helper()
	body, err := MarshalSampleChunk(SampleChunk{
		NodeID: 9, StreamID: 2, Seq: seq,
		Fs: 1000, Start: start, Samples: make([]float64, 50),
	})
	if err != nil {
		t.Fatalf("marshal chunk: %v", err)
	}
	return body
}

// The listener discards chunks its continuity cursor already covers —
// marked replays unconditionally, live retransmissions unless they
// are a genuine stream restart (Seq 1, Start 0) — without resetting
// the cursor, and counts every discard.
func TestChunkListenerDedupsReplayedChunks(t *testing.T) {
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	node := dialRaw(t, l.Addr(), Hello{NodeID: 9, Name: "pole-9"})

	samples := make([]float64, 50)
	for i := 0; i < 3; i++ {
		node.chunk(t, 2, samples)
	}
	collectChunks(t, l, 3) // cursor now at seq 3, next 150

	waitDup := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for l.DuplicateChunks() < want {
			if time.Now().After(deadline) {
				t.Fatalf("duplicates = %d, want %d", l.DuplicateChunks(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// A marked replay of an already-consumed chunk is discarded.
	if err := WriteFrame(node.conn, FrameSampleReplay, chunkAt(t, 2, 50)); err != nil {
		t.Fatal(err)
	}
	waitDup(1)

	// A LIVE retransmission within the cursor (a router resent a chunk
	// it could not prove delivered) is discarded too.
	if err := WriteFrame(node.conn, FrameSampleChunk, chunkAt(t, 2, 50)); err != nil {
		t.Fatal(err)
	}
	waitDup(2)

	// The live stream continues past the duplicates with no reset: the
	// cursor must not have moved.
	node.chunk(t, 2, samples)
	evs := collectChunks(t, l, 1)
	if evs[0].Reset {
		t.Fatal("live chunk after discarded duplicates flagged reset")
	}

	// A live Seq=1/Start=0 inside the cursor window is NOT a duplicate:
	// it is a genuine stream restart and must reset the session.
	if err := WriteFrame(node.conn, FrameSampleChunk, chunkAt(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
	evs = collectChunks(t, l, 1)
	if !evs[0].Reset {
		t.Fatal("live stream restart treated as duplicate")
	}
	if got := l.DuplicateChunks(); got != 2 {
		t.Fatalf("duplicates = %d, want 2", got)
	}

	// A replay for a stream with no cursor (failover target that never
	// saw it) is accepted, establishing the cursor.
	if err := WriteFrame(node.conn, FrameSampleReplay, MarshalOrDie(t, SampleChunk{
		NodeID: 9, StreamID: 3, Seq: 4, Fs: 1000, Start: 150, Samples: make([]float64, 50),
	})); err != nil {
		t.Fatal(err)
	}
	evs = collectChunks(t, l, 1)
	if evs[0].StreamID != 3 || len(evs[0].Samples) != 50 {
		t.Fatalf("replay onto cold stream delivered %+v", evs[0])
	}
}

// MarshalOrDie marshals a chunk or fails the test.
func MarshalOrDie(t *testing.T, c SampleChunk) []byte {
	t.Helper()
	body, err := MarshalSampleChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// A multi-address node fails over transparently: when its primary
// dies mid-stream, the next chunk rotates the node to the standby
// address and the buffered tail is retransmitted there as marked
// replays, so the standby sees the whole stream exactly once.
func TestNodeMultiAddressFailoverResendsTail(t *testing.T) {
	l1, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	l2, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	node, err := DialReliable(ctx, l1.Addr(), Hello{NodeID: 4, Name: "pole-4"}, RedialConfig{
		Addrs:       []string{l2.Addr()},
		Backoff:     Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxDowntime: 10 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	samples := make([]float64, 50)
	for i := 0; i < 5; i++ {
		if err := node.StreamChunk(8, 1000, samples); err != nil {
			t.Fatal(err)
		}
	}
	evs := collectChunks(t, l1, 5)
	key := uint64(4)<<32 | 8

	// Kill the primary and wait for the node's control reader to see
	// the connection die and fail over: the standby gets the resent
	// tail, and the next chunk must land there after it. Sending the
	// live chunk before the reconnect would race the reader, and that
	// chunk could vanish into the dead socket's send buffer and go out
	// again as a sixth replay.
	l1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for node.Redials() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("node never reconnected after the primary died")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := node.StreamChunk(8, 1000, samples); err != nil {
		t.Fatalf("chunk after primary death: %v", err)
	}
	evs = append(evs, collectChunks(t, l2, 6)...)

	if got := node.Resent(); got != 5 {
		t.Fatalf("node resent %d chunks, want 5", got)
	}
	total := 0
	for _, ev := range evs {
		if ev.Session != key {
			t.Fatalf("event for session %d, want %d", ev.Session, key)
		}
		if ev.Reset {
			t.Fatal("failover produced a continuity reset")
		}
		total += len(ev.Samples)
	}
	// 5 chunks on the primary + (5 replayed + 1 live) on the standby:
	// the stream is complete on the standby, with no gap and no reset.
	if total != 11*50 {
		t.Fatalf("delivered %d samples across failover, want %d", total, 11*50)
	}
	if got := l2.DuplicateChunks(); got != 0 {
		t.Fatalf("standby counted %d duplicates, want 0 (it never saw the stream)", got)
	}
}

// AckThrough acks a delivered chunk only while its stream is still in
// the continuity epoch the chunk was admitted under: after a restart
// the old epoch's Seqs name other chunks, so its ack is dropped instead
// of trimming the new epoch upstream.
func TestChunkListenerAckThroughEpoch(t *testing.T) {
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func(seq uint32, start uint64) {
		t.Helper()
		if err := WriteFrame(c, FrameSampleChunk, chunkAt(t, seq, start)); err != nil {
			t.Fatal(err)
		}
	}
	send(1, 0)
	send(2, 50)
	send(3, 100)
	old := collectChunks(t, l, 3)
	if old[0].Epoch == 0 || old[2].Epoch != old[0].Epoch || old[2].Seq != 3 {
		t.Fatalf("contiguous chunks admitted as epochs %d..%d seq %d", old[0].Epoch, old[2].Epoch, old[2].Seq)
	}
	// The stream restarts and runs past the old epoch's last Seq.
	for i := uint32(0); i < 4; i++ {
		send(1+i, uint64(i)*50)
	}
	cur := collectChunks(t, l, 4)
	if !cur[0].Reset || cur[0].Epoch == old[2].Epoch {
		t.Fatalf("restart admitted in epoch %d (reset=%v), old epoch %d", cur[0].Epoch, cur[0].Reset, old[2].Epoch)
	}

	session := cur[0].Session
	if l.AckThrough(session, old[2].Epoch, old[2].Seq) {
		t.Fatal("acked Seq 3 of the stream's previous epoch")
	}
	if !l.AckThrough(session, cur[1].Epoch, cur[1].Seq) {
		t.Fatal("ack of the current epoch was not sent")
	}
	ft, body := readFrameWithin(t, c, 5*time.Second)
	if ft != FrameStreamAck {
		t.Fatalf("got frame type %d, want a StreamAck", ft)
	}
	a, err := UnmarshalStreamAck(body)
	if err != nil {
		t.Fatal(err)
	}
	if a.Session != session || a.LastSeq != 2 {
		t.Fatalf("ack %+v, want session %d through Seq 2", a, session)
	}
}

// A node whose server stays away past MaxDowntime ends its reconnect
// episode with no connection. Its next write must redial rather than
// write on the missing connection, and the fresh connection gets a
// control reader again: the server's code-frame answer is read.
func TestNodeRedialsAfterReaderGivesUp(t *testing.T) {
	l1, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr()
	node := dialNode(t, addr, pole4, RedialConfig{
		Backoff:     Backoff{Base: 10 * time.Millisecond, Max: 20 * time.Millisecond},
		MaxDowntime: 100 * time.Millisecond,
	})
	waitCodesAnswered(t, node)

	l1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		node.mu.Lock()
		gaveUp := node.conn == nil && !node.reading
		node.mu.Unlock()
		if gaveUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("control reader never gave up on the dead server")
		}
		time.Sleep(5 * time.Millisecond)
	}

	l2, err := ListenChunksConfig(addr, ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	samples := codeSamples(64, false)
	if err := node.StreamChunk(1, 1000, samples); err != nil {
		t.Fatalf("write after the reader gave up: %v", err)
	}
	if ev := collectChunks(t, l2, 1)[0]; len(ev.Samples) != len(samples) {
		t.Fatalf("delivered %d samples, want %d", len(ev.Samples), len(samples))
	}
	waitCodesAnswered(t, node)
}
