package passivelight

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"passivelight/internal/cluster"
	"passivelight/internal/rxnet"
)

// TestBackpressureReachesEdgeNode drives cluster backpressure through
// the whole chain: the engine's AutoThrottle engages the listener's
// Throttle, the router relays the pause to the node feeding that
// engine, and the node's StreamChunk blocks until occupancy falls
// below low. The node is dialled as plnet's load mode dials one: a
// single target and no setting beyond the logger. The engine's own
// occupancy stays near 0 on a test-sized load, so the test scripts the
// measure AutoThrottle samples.
func TestBackpressureReachesEdgeNode(t *testing.T) {
	src, err := ListenSourceConfig("127.0.0.1:0", NetSourceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(src, Threshold(), WithExpectedSymbols(12))
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
		for range events {
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	var occupancy atomic.Uint64 // float64 bits
	setOccupancy := func(v float64) { occupancy.Store(math.Float64bits(v)) }
	const high, low = 0.8, 0.4
	stop := src.AutoThrottle(func() float64 { return math.Float64frombits(occupancy.Load()) }, high, low, 10*time.Millisecond)
	t.Cleanup(stop)

	ring, err := cluster.NewRing(0, cluster.Member{ID: "engine", Addr: src.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTelemetry()
	router, err := cluster.NewRouter(cluster.RouterConfig{Ring: ring, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	node, err := rxnet.DialReliable(ctx, addr, rxnet.Hello{NodeID: 1, Name: "pole-1"}, rxnet.RedialConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })

	const chunks = 8
	if err := streamZeros(node, 0, chunks/2); err != nil { // give the router a route to the engine
		t.Fatal(err)
	}
	waitChurn(t, "the first chunks to reach the engine", func() bool { return pipe.Stats().SamplesIn == chunks/2*2048 })

	setOccupancy(high + 0.1)
	waitChurn(t, "the router to relay the pause", func() bool {
		return reg.Snapshot().Counters["pl_cluster_throttle_pauses_total"] > 0
	})
	stalled := make(chan error, 1)
	go func() { stalled <- streamZeros(node, 0, chunks/2) }()
	select {
	case err := <-stalled:
		t.Fatalf("StreamChunk returned while the engine was throttled (err %v)", err)
	case <-time.After(300 * time.Millisecond):
	}

	setOccupancy(low - 0.1)
	select {
	case err := <-stalled:
		if err != nil {
			t.Fatalf("StreamChunk after the release: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("StreamChunk did not complete after occupancy fell below low")
	}
	waitChurn(t, "every chunk to reach the engine", func() bool { return pipe.Stats().SamplesIn == chunks*2048 })
	if n := src.StreamResets(); n != 0 {
		t.Errorf("engine counted %d stream resets across the pause, want 0", n)
	}
	if n := src.DuplicateChunks(); n != 0 {
		t.Errorf("engine discarded %d duplicate chunks across the pause, want 0", n)
	}
}
