package passivelight

import (
	"context"
	"sync"
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

// ackRig is one engine (gated NetSource + pipeline with a short idle
// timeout, no detection acks) behind a cluster router, fed by one node.
type ackRig struct {
	reg    *Telemetry
	router *cluster.Router
	node   *rxnet.Node

	decoded, failed atomic.Int64
	mu              sync.Mutex
	releases        []string
}

func startAckRig(t *testing.T, gate *gatedSource) *ackRig {
	t.Helper()
	src, err := ListenSourceConfig("127.0.0.1:0", NetSourceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gate.NetSource = src
	rig := &ackRig{reg: NewTelemetry()}
	pipe, err := NewPipeline(gate, Threshold(),
		WithExpectedSymbols(12),
		WithIdleTimeout(400*time.Millisecond),
		WithSessionEnd(func(_ uint64, _ SessionStats, reason string) {
			rig.mu.Lock()
			rig.releases = append(rig.releases, reason)
			rig.mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	events, err := pipe.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			if ev.Err != nil || ev.BitString() != "1001" {
				rig.failed.Add(1)
				continue
			}
			rig.decoded.Add(1)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	ring, err := cluster.NewRing(0, cluster.Member{ID: "engine", Addr: src.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	rig.router, err = cluster.NewRouter(cluster.RouterConfig{Ring: ring, Metrics: rig.reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rig.router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.router.Close() })
	rig.node, err = rxnet.DialReliable(ctx, addr, rxnet.Hello{NodeID: 7, Name: "pole-7"}, rxnet.RedialConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.node.Close() })
	return rig
}

// passChunks is one synthetic "1001" pass cut into 512-sample chunks.
func passChunks() [][]float64 {
	stream := synthPacketStream("1001", 1000, 3)
	var chunks [][]float64
	for lo := 0; lo < len(stream); lo += 512 {
		chunks = append(chunks, stream[lo:min(lo+512, len(stream))])
	}
	return chunks
}

// send streams the chunks from the rig's node.
func (rig *ackRig) send(t *testing.T, chunks [][]float64) {
	t.Helper()
	for _, c := range chunks {
		if err := rig.node.StreamChunk(0, 1000, c); err != nil {
			t.Fatal(err)
		}
	}
}

func (rig *ackRig) replayBytes() float64 {
	return rig.reg.Snapshot().Gauges["pl_cluster_replay_bytes"]
}

func (rig *ackRig) idleReleases() int {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	n := 0
	for _, r := range rig.releases {
		if r == "idle" {
			n++
		}
	}
	return n
}

// TestIdleReleaseAcksRouteReplay: with no detection acks at all, the
// engine's idle release of a decoded session acks the stream through
// its last chunk, so the router's replay buffer for the finished
// stream drains to zero bytes long before the route itself times out.
func TestIdleReleaseAcksRouteReplay(t *testing.T) {
	rig := startAckRig(t, &gatedSource{pass: -1})
	rig.send(t, passChunks())

	waitChurn(t, "the decoded session's idle release", func() bool { return rig.idleReleases() == 1 })
	waitChurn(t, "the replay buffer to drain", func() bool { return rig.replayBytes() == 0 })
	if got := rig.reg.Snapshot().Counters["pl_cluster_stream_acks_total"]; got != 1 {
		t.Errorf("router received %d acks, want 1 (the idle release)", got)
	}
	if got := rig.router.Stats().Routes; got != 1 {
		t.Errorf("router holds %d routes, want the stream's 1: the ack, not route expiry, emptied it", got)
	}
	if d, f := rig.decoded.Load(), rig.failed.Load(); d != 1 || f != 0 {
		t.Errorf("decoded %d times with %d bad events, want exactly once", d, f)
	}
}

// TestIdleReleaseLeavesQueuedChunkUnacked: a chunk the listener already
// admitted but the pipeline has not fed yet is not covered by the idle
// release's ack; it is acked only by the release of the session that
// consumed it.
func TestIdleReleaseLeavesQueuedChunkUnacked(t *testing.T) {
	chunks := passChunks()
	last := len(chunks)
	gate := &gatedSource{pass: last - 1, open: make(chan struct{})}
	rig := startAckRig(t, gate)
	rig.send(t, chunks)

	queued, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
		NodeID: 7, Seq: uint32(last), Fs: 1000,
		Start: uint64(last-1) * 512, Samples: chunks[last-1],
	})
	if err != nil {
		t.Fatal(err)
	}
	// One ack lands in one step: the buffer goes from the whole pass
	// straight to exactly the queued chunk (an ack through the
	// listener's cursor would empty it instead).
	waitChurn(t, "the first session's idle release", func() bool { return rig.idleReleases() == 1 })
	waitChurn(t, "the release ack to trim all but the queued chunk", func() bool {
		return rig.replayBytes() == float64(len(queued))
	})
	if got := rig.reg.Snapshot().Counters["pl_cluster_stream_acks_total"]; got != 1 {
		t.Fatalf("router received %d acks before the gate opened, want 1", got)
	}

	close(gate.open)
	waitChurn(t, "the tail session's idle release", func() bool { return rig.idleReleases() == 2 })
	waitChurn(t, "the replay buffer to drain", func() bool { return rig.replayBytes() == 0 })
	if d, f := rig.decoded.Load(), rig.failed.Load(); d != 1 || f != 0 {
		t.Errorf("decoded %d times with %d bad events, want exactly once", d, f)
	}
}
