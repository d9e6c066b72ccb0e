package passivelight

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"passivelight/internal/cluster"
	"passivelight/internal/rxnet"
	"passivelight/internal/scenario"
)

// clusterEngine is one in-process decode engine of the cluster tier:
// a NetSource on a real socket plus a pipeline counting what it
// decodes — the test-sized equivalent of `plnet -mode engine`.
type clusterEngine struct {
	id     string
	src    *NetSource
	pipe   *Pipeline
	cancel context.CancelFunc
	done   chan struct{}

	decoded atomic.Int64
	errs    atomic.Int64
}

func startClusterEngine(t *testing.T, id string) *clusterEngine {
	t.Helper()
	src, err := ListenSourceConfig("127.0.0.1:0", NetSourceConfig{})
	if err != nil {
		t.Fatalf("engine %s listen: %v", id, err)
	}
	e := &clusterEngine{id: id, src: src, done: make(chan struct{})}
	// The idle timeout must sit far above any scheduling stall between
	// a session's chunks: under the race detector a loaded runtime can
	// starve a sender for hundreds of milliseconds, and a reap
	// mid-packet splits the session (a decode error on the residue, or
	// a lost packet). 2 s keeps the reaper real without racing the
	// fleet load.
	pipe, err := NewPipeline(src, Threshold(),
		WithExpectedSymbols(8),
		WithIdleTimeout(2*time.Second),
	)
	if err != nil {
		t.Fatalf("engine %s pipeline: %v", id, err)
	}
	e.pipe = pipe
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	events, err := pipe.Stream(ctx)
	if err != nil {
		t.Fatalf("engine %s stream: %v", id, err)
	}
	go func() {
		defer close(e.done)
		for ev := range events {
			if ev.Err != nil {
				e.errs.Add(1)
				continue
			}
			e.decoded.Add(1)
		}
	}()
	t.Cleanup(func() { e.stop() })
	return e
}

// stop tears the engine down (idempotent): cancel the pipeline, wait
// for its event forwarder to exit.
func (e *clusterEngine) stop() {
	e.cancel()
	<-e.done
}

// replayClusterSession streams one expanded session's links to the
// router over its own node connection, exactly as `plnet -mode load
// -router` does.
func replayClusterSession(ctx context.Context, target string, k int, spec scenario.Spec) error {
	world, err := spec.CompileMulti()
	if err != nil {
		return err
	}
	node, err := rxnet.DialReliable(ctx, target, rxnet.Hello{NodeID: uint32(k + 1), Name: spec.Name}, rxnet.RedialConfig{})
	if err != nil {
		return err
	}
	defer node.Close()
	for _, l := range world.Links {
		tr, err := l.Link.Simulate()
		if err != nil {
			return fmt.Errorf("link %s: %w", l.Name, err)
		}
		for chunk := range tr.Chunks(2048) {
			if err := node.StreamChunk(uint32(l.Index), tr.Fs, chunk); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayClusterPhase fans a slice of sessions through the router
// concurrently and waits for every send to complete.
func replayClusterPhase(t *testing.T, target string, specs []scenario.Spec, offset int) {
	t.Helper()
	sem := make(chan struct{}, 16)
	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(k int, spec scenario.Spec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := replayClusterSession(context.Background(), target, k, spec); err != nil {
				errs <- fmt.Errorf("session %d: %w", k, err)
			}
		}(offset+i, spec)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func waitDecoded(t *testing.T, what string, want int64, engines ...*clusterEngine) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	total := func() int64 {
		var n int64
		for _, e := range engines {
			n += e.decoded.Load()
		}
		return n
	}
	for time.Now().Before(deadline) {
		if total() >= want {
			if got := total(); got > want {
				t.Fatalf("%s: decoded %d packets, want exactly %d (duplicate decode)", what, got, want)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	var parts []string
	for _, e := range engines {
		parts = append(parts, fmt.Sprintf("%s=%d", e.id, e.decoded.Load()))
	}
	t.Fatalf("%s: decoded %d of %d packets (%v)", what, total(), want, parts)
}

// TestClusterRollingRestartZeroLoss is the acceptance lock for the
// cluster tier: the 128-session fleet load replayed over real sockets
// against a 2-engine cluster loses no packets through a full rolling
// restart — drain engine A mid-phase, hand a pinned straggler off
// explicitly, take A down, run against B alone, and let A restart on a
// fresh address and rejoin under its ID through cluster.Join — with
// the handoffs visible in the router's pl_cluster_* metrics.
func TestClusterRollingRestartZeroLoss(t *testing.T) {
	checkGoroutines(t)
	load, err := scenario.GetLoad("fleet-load")
	if err != nil {
		t.Fatal(err)
	}
	load.Sessions = 128
	specs, err := load.Expand()
	if err != nil {
		t.Fatal(err)
	}

	a := startClusterEngine(t, "engine-a")
	b := startClusterEngine(t, "engine-b")
	reg := NewTelemetry()
	ring, err := cluster.NewRing(0,
		cluster.Member{ID: "engine-a", Addr: a.src.Addr()},
		cluster.Member{ID: "engine-b", Addr: b.src.Addr()},
	)
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Ring: ring, AutoAdmit: true, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Phase 1a: 32 sessions against the healthy pair — the ring splits
	// them across both engines, so A ends up owning live streams.
	phase1a := specs[:32]
	replayClusterPhase(t, addr, phase1a, 0)
	waitDecoded(t, "phase 1a (healthy pair)", int64(len(phase1a)), a, b)
	if a.decoded.Load() == 0 || b.decoded.Load() == 0 {
		t.Fatalf("ring sent all of phase 1a to one engine (a=%d b=%d)",
			a.decoded.Load(), b.decoded.Load())
	}

	// Phase 1b: A starts draining; new sessions route away to B while
	// anything in flight on A would keep flowing.
	a.src.Drain()
	phase1b := specs[32:64]
	replayClusterPhase(t, addr, phase1b, 32)
	waitDecoded(t, "phase 1b (A draining)", int64(len(phase1a)+len(phase1b)), a, b)

	// Drain runbook straggler step: A's fully-delivered streams still
	// hold continuity cursors (node connections outlive the packets).
	// ForceRedirect flushes each and NACKs the router, which moves the
	// route to B — the session handoff, counted in pl_cluster_*. Every
	// packet already decoded, so the handoffs are provably lossless.
	var redirected bool
	for _, s := range a.src.Sessions() {
		if a.src.ForceRedirect(s) {
			redirected = true
		}
	}
	if !redirected {
		t.Fatal("no stream to force-redirect off the draining engine")
	}
	// Settle before shutdown (as the engine's drain loop does): closing
	// A's listener too fast can discard the NACKs still in flight to
	// the router.
	settle := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["pl_cluster_handoffs_total"] == 0 {
		if time.Now().After(settle) {
			t.Fatal("router never registered the redirect handoffs")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: engine A goes down entirely (pipeline cancel closes its
	// listener). Every new session must land on B, error-free.
	if !a.src.Draining() {
		t.Fatal("engine A should be draining before shutdown")
	}
	a.stop()
	phase2 := specs[64:96]
	replayClusterPhase(t, addr, phase2, 64)
	// a's counter is frozen by stop(); the cumulative total isolates
	// phase 2's packets without caring how phase 1 split across a/b.
	waitDecoded(t, "phase 2 (A down)", int64(64+len(phase2)), a, b)

	// Phase 3: A restarts under the same ID on a fresh address and
	// rejoins as the runbook does it: its join hello refreshes the
	// ring address in place, and new sessions spread across both
	// engines again.
	a2 := startClusterEngine(t, "engine-a")
	epoch := router.Stats().Epoch
	stopJoin, err := cluster.Join(context.Background(), addr, "engine-a", a2.src.Addr(), cluster.JoinConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer stopJoin()
	rejoin := time.Now().Add(10 * time.Second)
	for router.Stats().Epoch == epoch {
		if time.Now().After(rejoin) {
			t.Fatal("router never admitted the restarted engine's new address")
		}
		time.Sleep(10 * time.Millisecond)
	}
	phase3 := specs[96:]
	replayClusterPhase(t, addr, phase3, 96)
	waitDecoded(t, "phase 3 (A rejoined)", int64(load.Sessions), a, b, a2)

	// Zero loss, fleet-wide: every session's packet decoded exactly
	// once, nothing dropped, no decode errors, and the restarted
	// engine actually took new streams.
	total := a.decoded.Load() + b.decoded.Load() + a2.decoded.Load()
	if total != int64(load.Sessions) {
		t.Fatalf("decoded %d packets for %d sessions", total, load.Sessions)
	}
	for _, e := range []*clusterEngine{a, b, a2} {
		if n := e.errs.Load(); n != 0 {
			t.Errorf("engine %s: %d decode errors", e.id, n)
		}
	}
	if n := b.src.DroppedChunks() + a2.src.DroppedChunks(); n != 0 {
		t.Errorf("listeners dropped %d chunks", n)
	}
	if a2.decoded.Load() == 0 {
		t.Error("restarted engine decoded nothing after rejoining the ring")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pl_cluster_handoffs_total"]; got < 1 {
		t.Errorf("pl_cluster_handoffs_total = %d, want >= 1", got)
	}
	if got := snap.Counters["pl_cluster_chunks_forwarded_total"]; got == 0 {
		t.Error("pl_cluster_chunks_forwarded_total = 0; router forwarded nothing?")
	}
	if got := snap.Counters["pl_cluster_streams_routed_total"]; got < int64(load.Sessions) {
		t.Errorf("pl_cluster_streams_routed_total = %d, want >= %d", got, load.Sessions)
	}
	t.Logf("fleet: a=%d a2=%d b=%d decoded; handoffs=%d nacks=%d replayed=%d failovers=%d",
		a.decoded.Load(), a2.decoded.Load(), b.decoded.Load(),
		snap.Counters["pl_cluster_handoffs_total"],
		snap.Counters["pl_cluster_nacks_received_total"],
		snap.Counters["pl_cluster_replayed_chunks_total"],
		snap.Counters["pl_cluster_failovers_total"])
}
