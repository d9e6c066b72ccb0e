package passivelight

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"passivelight/internal/cluster"
	"passivelight/internal/rxnet"
)

// gatedSource passes a NetSource through to the pipeline, as an
// instrumenting wrapper would, and parks Next once pass chunks have gone
// through until open is closed: the chunks behind them stay queued in
// the listener. A negative pass never parks.
type gatedSource struct {
	*NetSource
	pass int
	open chan struct{}
	n    int
}

func (s *gatedSource) Next(ctx context.Context) (SourceChunk, error) {
	if s.n == s.pass {
		select {
		case <-s.open:
		case <-ctx.Done():
			return SourceChunk{}, ctx.Err()
		}
	}
	s.n++
	return s.NetSource.Next(ctx)
}

// ackEngine is one engine of the ack tests: a gated NetSource and a
// pipeline that counts the "1001" passes it decodes. It has no sink
// ack; every ack it sends is the pipeline's own.
type ackEngine struct {
	reg     *Telemetry
	src     *NetSource
	cancel  context.CancelFunc
	drained chan struct{}

	decoded, failed, idleReleases atomic.Int64
}

// startAckEngine starts an engine whose pipeline releases a session
// once it has been idle for idle. Its cleanup only cancels the
// pipeline; checkGoroutines waits for the teardown.
func startAckEngine(t *testing.T, gate *gatedSource, idle time.Duration) *ackEngine {
	t.Helper()
	e := &ackEngine{reg: NewTelemetry(), drained: make(chan struct{})}
	src, err := ListenSourceConfig("127.0.0.1:0", NetSourceConfig{Telemetry: e.reg})
	if err != nil {
		t.Fatal(err)
	}
	gate.NetSource = src
	e.src = src
	pipe, err := NewPipeline(gate, Threshold(),
		WithExpectedSymbols(12),
		WithIdleTimeout(idle),
		WithSessionEnd(func(_ uint64, _ SessionStats, reason string) {
			if reason == "idle" {
				e.idleReleases.Add(1)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	t.Cleanup(cancel)
	events, err := pipe.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(e.drained)
		for ev := range events {
			if ev.Err != nil || ev.BitString() != "1001" {
				e.failed.Add(1)
				continue
			}
			e.decoded.Add(1)
		}
	}()
	return e
}

// stop cancels the engine's pipeline and waits until the forwarder has
// delivered, and acked, every detection batch.
func (e *ackEngine) stop(t *testing.T) {
	t.Helper()
	e.cancel()
	select {
	case <-e.drained:
	case <-time.After(10 * time.Second):
		t.Fatal("the pipeline never closed its event stream")
	}
}

// acksSent is how many acks the engine's listener has written.
func (e *ackEngine) acksSent() int64 {
	return e.reg.Snapshot().Counters["pl_cluster_stream_acks_sent_total"]
}

// ackNode is the node id every ack test streams from.
const ackNode = 7

// ackRig is one or more engines (400 ms idle timeout) behind a cluster
// router that evicts an engine dead for 250 ms, fed by one node whose
// stream the first engine owns.
type ackRig struct {
	reg     *Telemetry
	router  *cluster.Router
	node    *rxnet.Node
	stream  uint32
	engines []*ackEngine
}

// startAckRig starts one engine per gate, and checks that Close leaves
// no goroutine of the pipelines, NetSources, router or node behind.
func startAckRig(t *testing.T, gates ...*gatedSource) *ackRig {
	t.Helper()
	checkGoroutines(t)
	rig := &ackRig{reg: NewTelemetry()}
	var members []cluster.Member
	for i, gate := range gates {
		e := startAckEngine(t, gate, 400*time.Millisecond)
		rig.engines = append(rig.engines, e)
		members = append(members, cluster.Member{ID: fmt.Sprintf("engine-%d", i), Addr: e.src.Addr()})
	}
	ring, err := cluster.NewRing(0, members...)
	if err != nil {
		t.Fatal(err)
	}
	for {
		owner, _ := ring.OwnerAvoiding(uint64(ackNode)<<32|uint64(rig.stream), nil)
		if owner.ID == members[0].ID {
			break
		}
		rig.stream++
	}
	rig.router, err = cluster.NewRouter(cluster.RouterConfig{
		Ring:              ring,
		RedialBackoff:     20 * time.Millisecond,
		RedialBackoffMax:  100 * time.Millisecond,
		DeadEngineTimeout: 250 * time.Millisecond,
		Metrics:           rig.reg,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.router.Close() })
	addr, err := rig.router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rig.node, err = rxnet.DialReliable(ctx, addr, rxnet.Hello{NodeID: ackNode, Name: "pole-7"}, rxnet.RedialConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.node.Close() })
	return rig
}

// chunked cuts a sample stream into 512-sample chunks.
func chunked(stream []float64) [][]float64 {
	var chunks [][]float64
	for lo := 0; lo < len(stream); lo += 512 {
		chunks = append(chunks, stream[lo:min(lo+512, len(stream))])
	}
	return chunks
}

// passChunks is one synthetic "1001" pass cut into 512-sample chunks.
// Its 2 s of trailing quiet outlast the decoder's quiet hold, so a
// worker's decode step publishes the detection.
func passChunks() [][]float64 { return chunked(synthPacketStream("1001", 1000, 3)) }

// openPassChunks is a "1001" pass whose trailing quiet stops 1 s after
// the packet, inside the quiet hold: its detection comes only from the
// session's final flush.
func openPassChunks(seed int64) [][]float64 {
	stream := synthPacketStream("1001", 1000, seed)
	return chunked(stream[:len(stream)-1000])
}

// send streams the chunks from the rig's node.
func (rig *ackRig) send(t *testing.T, chunks [][]float64) {
	t.Helper()
	for _, c := range chunks {
		if err := rig.node.StreamChunk(rig.stream, 1000, c); err != nil {
			t.Fatal(err)
		}
	}
}

// keptBytes is what the router's replay buffer holds for chunks
// (float64 frames), the first of them sent as Seq firstSeq.
func (rig *ackRig) keptBytes(t *testing.T, chunks [][]float64, firstSeq int) float64 {
	t.Helper()
	var n int
	for i, c := range chunks {
		body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
			NodeID: ackNode, StreamID: rig.stream, Seq: uint32(firstSeq + i),
			Fs: 1000, Samples: c,
		})
		if err != nil {
			t.Fatal(err)
		}
		n += len(body)
	}
	return float64(n)
}

func (rig *ackRig) replayBytes() float64 {
	return rig.reg.Snapshot().Gauges["pl_cluster_replay_bytes"]
}

func (rig *ackRig) acks() int64 {
	return rig.reg.Snapshot().Counters["pl_cluster_stream_acks_total"]
}

// TestIdleReleaseAcksRouteReplay: the detection's decode step acks the
// stream through the chunk it consumed last, and the engine's idle
// release of the decoded session acks it through its last chunk, so
// the router's replay buffer for the finished stream drains to zero
// bytes long before the route itself times out.
func TestIdleReleaseAcksRouteReplay(t *testing.T) {
	rig := startAckRig(t, &gatedSource{pass: -1})
	e := rig.engines[0]
	rig.send(t, passChunks())

	waitChurn(t, "the decoded session's idle release", func() bool { return e.idleReleases.Load() == 1 })
	waitChurn(t, "the replay buffer to drain", func() bool { return rig.replayBytes() == 0 })
	if got := rig.acks(); got != 2 {
		t.Errorf("router received %d acks, want 2 (the detection, then the idle release)", got)
	}
	if got := rig.router.Stats().Routes; got != 1 {
		t.Errorf("router holds %d routes, want the stream's 1: the ack, not route expiry, emptied it", got)
	}
	if d, f := e.decoded.Load(), e.failed.Load(); d != 1 || f != 0 {
		t.Errorf("decoded %d times with %d bad events, want exactly once", d, f)
	}
}

// TestIdleReleaseLeavesQueuedChunkUnacked: a chunk the listener already
// admitted but the pipeline has not fed yet is covered neither by the
// detection's ack nor by the idle release's; it is acked only by the
// release of the session that consumed it.
func TestIdleReleaseLeavesQueuedChunkUnacked(t *testing.T) {
	chunks := passChunks()
	last := len(chunks)
	gate := &gatedSource{pass: last - 1, open: make(chan struct{})}
	rig := startAckRig(t, gate)
	e := rig.engines[0]
	rig.send(t, chunks)

	queued := rig.keptBytes(t, chunks[last-1:], last)
	// Both acks name chunks the pipeline fed, so the buffer keeps
	// exactly the queued chunk (an ack through the listener's cursor
	// would empty it instead).
	waitChurn(t, "the first session's idle release", func() bool { return e.idleReleases.Load() == 1 })
	waitChurn(t, "the acks to trim all but the queued chunk", func() bool {
		return rig.replayBytes() == queued
	})
	if got := rig.acks(); got != 2 {
		t.Fatalf("router received %d acks before the gate opened, want 2 (the detection, then the idle release)", got)
	}

	close(gate.open)
	waitChurn(t, "the tail session's idle release", func() bool { return e.idleReleases.Load() == 2 })
	waitChurn(t, "the replay buffer to drain", func() bool { return rig.replayBytes() == 0 })
	if d, f := e.decoded.Load(), e.failed.Load(); d != 1 || f != 0 {
		t.Errorf("decoded %d times with %d bad events, want exactly once", d, f)
	}
}

// TestDetectionAckLeavesQueuedPassForFailover: an engine that dies after
// its first detection, with the stream's second pass still queued in
// its listener, loses nothing. The detection's ack reaches only through
// the first pass's last chunk, so the router still holds the queued
// pass when it evicts the engine, and the surviving engine decodes it
// exactly once. An ack through the listener's cursor would have
// trimmed the queued pass, and no engine would ever decode it.
func TestDetectionAckLeavesQueuedPassForFailover(t *testing.T) {
	first, second := openPassChunks(3), passChunks()
	gate := &gatedSource{pass: len(first), open: make(chan struct{})}
	rig := startAckRig(t, gate, &gatedSource{pass: -1})
	a, b := rig.engines[0], rig.engines[1]
	rig.send(t, append(first, second...))

	// The first pass decodes at A's idle flush, 400 ms after its last
	// chunk was fed, when the second pass is long queued.
	waitChurn(t, "engine A's first detection", func() bool { return a.decoded.Load() == 1 })
	waitChurn(t, "the detection's and the idle release's acks", func() bool { return rig.acks() == 2 })
	kept := rig.keptBytes(t, second, len(first)+1)
	if got := rig.replayBytes(); got != kept {
		t.Errorf("router holds %v replay bytes after the acks, want the queued pass's %v", got, kept)
	}

	a.stop(t)
	waitChurn(t, "engine A's eviction", func() bool { return rig.router.Stats().Engines == 1 })
	waitChurn(t, "engine B to decode the queued pass", func() bool { return b.decoded.Load() == 1 })
	waitChurn(t, "engine B's idle release", func() bool { return b.idleReleases.Load() == 1 })
	if da, db := a.decoded.Load(), b.decoded.Load(); da != 1 || db != 1 {
		t.Errorf("engine A decoded %d and engine B %d passes, want 1 each", da, db)
	}
	if fa, fb := a.failed.Load(), b.failed.Load(); fa != 0 || fb != 0 {
		t.Errorf("bad events: engine A %d, engine B %d", fa, fb)
	}
}

// rawStream writes chunks straight to an engine over a connection it
// never reads, as a flood generator does: acks sent to it pile up
// unread in its receive buffer.
type rawStream struct {
	c     net.Conn
	seq   uint32
	start uint64
}

func dialRawStream(t *testing.T, addr string) *rawStream {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	hello, err := rxnet.MarshalHello(rxnet.Hello{NodeID: ackNode, Name: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rxnet.WriteFrame(c, rxnet.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	return &rawStream{c: c}
}

// send writes the chunks as stream 0, continuing from the last one.
func (r *rawStream) send(t *testing.T, chunks [][]float64) {
	t.Helper()
	for _, c := range chunks {
		r.seq++
		body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
			NodeID: ackNode, Seq: r.seq, Fs: 1000, Start: r.start, Samples: c,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rxnet.WriteFrame(r.c, rxnet.FrameSampleChunk, body); err != nil {
			t.Fatal(err)
		}
		r.start += uint64(len(c))
	}
}

// TestUndecodableSegmentAckedOnce: a segment that holds no packet is
// still consumed, so its decode step acks it, once; otherwise a
// failover engine would count the same undecodable segment again.
func TestUndecodableSegmentAckedOnce(t *testing.T) {
	checkGoroutines(t)
	e := startAckEngine(t, &gatedSource{pass: -1}, time.Minute)
	burst := synthPacketStream("1001", 1000, 5)
	for i := 2000; i < 3000; i++ {
		burst[i] = 90 // one long high level: no preamble to anchor on
	}
	raw := dialRawStream(t, e.src.Addr())
	raw.send(t, chunked(burst))

	waitChurn(t, "the undecodable segment", func() bool { return e.failed.Load() == 1 })
	e.stop(t)
	if got := e.acksSent(); got != 1 {
		t.Errorf("sent %d acks for the undecodable segment, want 1", got)
	}
	if d, f := e.decoded.Load(), e.failed.Load(); d != 0 || f != 1 {
		t.Errorf("decoded %d passes and %d bad segments, want 0 and 1", d, f)
	}
}

// TestStreamEndBeforeFlushSendsNoAck: a stream the node ends with
// StreamEnd before its final flush has no cursor left to ack through,
// so its flushed detection sends nothing back — the flood generator
// that ends its streams this way never reads its connection.
func TestStreamEndBeforeFlushSendsNoAck(t *testing.T) {
	checkGoroutines(t)
	e := startAckEngine(t, &gatedSource{pass: -1}, time.Minute)
	raw := dialRawStream(t, e.src.Addr())
	raw.send(t, openPassChunks(3))
	if err := rxnet.WriteFrame(raw.c, rxnet.FrameStreamEnd, rxnet.MarshalStreamEnd(rxnet.StreamEnd{Session: ackNode << 32})); err != nil {
		t.Fatal(err)
	}

	waitChurn(t, "the flushed detection", func() bool { return e.decoded.Load() == 1 })
	e.stop(t)
	if got := e.acksSent(); got != 0 {
		t.Errorf("sent %d acks for a stream ended before its flush, want 0", got)
	}
}

// TestResetEpochDetectionSendsNoAck: a detection flushed from an epoch
// that a Reset closed names chunks of that epoch, so its ack is
// dropped rather than trimming the restarted stream.
func TestResetEpochDetectionSendsNoAck(t *testing.T) {
	checkGoroutines(t)
	e := startAckEngine(t, &gatedSource{pass: -1}, time.Minute)
	raw := dialRawStream(t, e.src.Addr())
	raw.send(t, openPassChunks(3))
	// Skip a chunk: the gap resets the stream into a new epoch, and the
	// pipeline flushes the old one before feeding the quiet chunk.
	raw.seq++
	raw.start += 512
	raw.send(t, chunked(make([]float64, 512)))

	waitChurn(t, "the old epoch's flushed detection", func() bool { return e.decoded.Load() == 1 })
	e.stop(t)
	if got := e.acksSent(); got != 0 {
		t.Errorf("sent %d acks for a closed epoch's detection, want 0", got)
	}
}
