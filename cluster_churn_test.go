package passivelight

import (
	"context"
	"fmt"
	"testing"
	"time"

	"passivelight/internal/cluster"
	"passivelight/internal/cluster/chaos"
	"passivelight/internal/rxnet"
	"passivelight/internal/scenario"
)

// waitChurn polls cond for up to 15 s — membership convergence,
// eviction and throttle propagation are all asynchronous.
func waitChurn(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// joinChurnEngine announces an engine to the router with a fast
// keepalive and returns the stop function — the caller stops it
// BEFORE crashing the engine so stale keepalives cannot clear the
// router's outage clock.
func joinChurnEngine(t *testing.T, routerAddr string, e *clusterEngine) (stop func()) {
	t.Helper()
	stop, err := cluster.Join(context.Background(), routerAddr, e.id, e.src.Addr(), cluster.JoinConfig{
		KeepAlive: 50 * time.Millisecond,
		Backoff:   rxnet.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("join %s: %v", e.id, err)
	}
	t.Cleanup(stop)
	return stop
}

// replayPacedChurnSession streams one session's links with accelerated
// wall-clock pacing (a bounded sleep per chunk), as the churn tier's
// stand-in for `plnet -mode load -pace` at test speed.
func replayPacedChurnSession(ctx context.Context, target string, k int, spec scenario.Spec) error {
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
			// 200x accelerated pacing, capped well below the engines'
			// 250 ms idle timeout: with 16 concurrent sessions under
			// the race detector, a fatter gap plus scheduler delay can
			// starve a stream long enough to finalize it early.
			gap := time.Duration(float64(len(chunk)) / tr.Fs * float64(time.Second) / 200)
			if gap > 2*time.Millisecond {
				gap = 2 * time.Millisecond
			}
			select {
			case <-time.After(gap):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// replayChurnWave fans one wave of paced sessions through the router.
func replayChurnWave(t *testing.T, target string, specs []scenario.Spec, offset int) {
	t.Helper()
	sem := make(chan struct{}, 16)
	errs := make(chan error, len(specs))
	for i, spec := range specs {
		go func(k int, spec scenario.Spec) {
			sem <- struct{}{}
			defer func() { <-sem }()
			errs <- replayPacedChurnSession(context.Background(), target, k, spec)
		}(offset+i, spec)
	}
	for range specs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// streamZeros ships n flat chunks on one stream — traffic that never
// crosses the activity threshold, so it exercises transport paths
// without perturbing the decode ledger.
func streamZeros(node *rxnet.Node, stream uint32, n int) error {
	chunk := make([]float64, 2048)
	for i := 0; i < n; i++ {
		if err := node.StreamChunk(stream, 1000, chunk); err != nil {
			return err
		}
	}
	return nil
}

// TestClusterChurnSelfHealing is the robustness lock for the
// self-healing tier: a router that starts on an EMPTY ring builds its
// fleet purely from EngineHello auto-joins, survives three
// kill/rejoin cycles (one graceful drain, two hard crashes with
// dead-engine eviction) under a 128-session paced load with zero
// packet loss and no operator action, propagates engine
// backpressure out to an edge node, rides out injected
// connection faults, and keeps every loss counted and every
// membership change visible in pl_cluster_* telemetry.
func TestClusterChurnSelfHealing(t *testing.T) {
	load, err := scenario.GetLoad("fleet-load")
	if err != nil {
		t.Fatal(err)
	}
	load.Sessions = 128
	specs, err := load.Expand()
	if err != nil {
		t.Fatal(err)
	}

	reg := NewTelemetry()
	router, err := cluster.NewRouter(cluster.RouterConfig{
		AutoAdmit:         true,
		RingBatchWindow:   -1,      // this test asserts one epoch bump per join
		ReplayBytes:       5 << 10, // force byte-bound evictions (a chunk of 2048 codes is kept in ~4 KiB)
		RedialBackoff:     20 * time.Millisecond,
		RedialBackoffMax:  200 * time.Millisecond,
		DeadEngineTimeout: 250 * time.Millisecond,
		Metrics:           reg,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if got := router.Stats().Engines; got != 0 {
		t.Fatalf("router starts with %d engines, want an empty ring", got)
	}

	// The fleet assembles itself: three engines announce and join.
	a := startClusterEngine(t, "churn-a")
	b := startClusterEngine(t, "churn-b")
	c := startClusterEngine(t, "churn-c")
	stopJoinA := joinChurnEngine(t, addr, a)
	stopJoinB := joinChurnEngine(t, addr, b)
	stopJoinC := joinChurnEngine(t, addr, c)
	waitChurn(t, "three auto-joins", func() bool { return router.Stats().Engines == 3 })
	epoch := router.Stats().Epoch
	if epoch < 3 {
		t.Fatalf("epoch after three joins = %d, want >= 3", epoch)
	}
	bumped := func(what string) uint64 {
		t.Helper()
		now := router.Stats().Epoch
		if now <= epoch {
			t.Fatalf("%s did not bump the epoch (%d -> %d)", what, epoch, now)
		}
		return now
	}

	// Wave 1: healthy trio.
	replayChurnWave(t, addr, specs[:32], 0)
	waitDecoded(t, "wave 1 (healthy trio)", 32, a, b, c)

	// Cycle 1 — graceful: churn-a drains, hands its streams off, dies,
	// restarts on a fresh port and rejoins under the same identity.
	// Its ring slice must follow the ID to the new address.
	stopJoinA()
	a.src.Drain()
	for _, s := range a.src.Sessions() {
		a.src.ForceRedirect(s)
	}
	time.Sleep(100 * time.Millisecond) // let NACKs reach the router
	a.stop()
	a2 := startClusterEngine(t, "churn-a")
	joinChurnEngine(t, addr, a2)
	waitChurn(t, "churn-a address refresh", func() bool {
		st := router.Stats()
		return st.Engines == 3 && st.Epoch > epoch
	})
	epoch = bumped("graceful rejoin")

	// Wave 2: restarted churn-a takes traffic again.
	replayChurnWave(t, addr, specs[32:64], 32)
	waitDecoded(t, "wave 2 (after graceful cycle)", 64, a, b, c, a2)

	// Cycle 2 — hard crash: churn-b dies with no drain. The router's
	// outage clock starts when its connection drops, the janitor
	// evicts it from the ring, and a restarted churn-b re-admits
	// itself. Crash happens between waves so the counted ledger stays
	// exact: nothing was in flight on the dead socket.
	stopJoinB() // a live keepalive would reset the outage clock
	// Crash with nothing resident: wave 2 is fully decoded, so once the
	// idle reaper flushes b's sessions the kill is provably mid-gap.
	waitChurn(t, "churn-b sessions to flush", func() bool { return b.pipe.Stats().Sessions == 0 })
	b.stop()
	waitChurn(t, "churn-b eviction", func() bool { return router.Stats().Engines == 2 })
	epoch = bumped("dead-engine eviction")
	b2 := startClusterEngine(t, "churn-b")
	joinChurnEngine(t, addr, b2)
	waitChurn(t, "churn-b re-admission", func() bool { return router.Stats().Engines == 3 })
	epoch = bumped("crash rejoin")

	// Wave 3.
	replayChurnWave(t, addr, specs[64:96], 64)
	waitDecoded(t, "wave 3 (after crash cycle)", 96, a, b, c, a2, b2)

	// Cycle 3 — second hard crash, this time churn-c.
	stopJoinC()
	waitChurn(t, "churn-c sessions to flush", func() bool { return c.pipe.Stats().Sessions == 0 })
	c.stop()
	waitChurn(t, "churn-c eviction", func() bool { return router.Stats().Engines == 2 })
	c2 := startClusterEngine(t, "churn-c")
	joinChurnEngine(t, addr, c2)
	waitChurn(t, "churn-c re-admission", func() bool { return router.Stats().Engines == 3 })
	epoch = bumped("second crash rejoin")

	// Wave 4: full fleet again; the cumulative ledger must be exact.
	replayChurnWave(t, addr, specs[96:], 96)
	engines := []*clusterEngine{a, b, c, a2, b2, c2}
	waitDecoded(t, "wave 4 (final)", 128, engines...)

	// Fault injection: a reliable edge node streams through a faulty
	// proxy (drops, duplicates, delays, mid-frame severs) and survives
	// a full partition — every failure lands as a redial or a counted
	// reset, never a hang or a silent splice.
	inj := chaos.NewInjector(chaos.Faults{
		Seed:      42,
		DropProb:  0.15,
		DupProb:   0.10,
		DelayProb: 0.05,
		Delay:     2 * time.Millisecond,
		SeverProb: 0.05,
	})
	proxy, err := chaos.NewProxy(addr, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	fctx, fcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer fcancel()
	faultNode, err := rxnet.DialReliable(fctx, proxy.Addr(), rxnet.Hello{NodeID: 900, Name: "fault-probe"},
		rxnet.RedialConfig{
			Backoff: rxnet.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
			Logf:    t.Logf,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer faultNode.Close()
	// Stream until the dice land at least one fault. The roll count
	// depends on how the proxy's relay loop slices the byte stream, so
	// a fixed chunk budget is not deterministic — the loop is. The
	// fault can land on the Hello itself, so stream at least one chunk:
	// the resend buffer must hold a tail when the partition hits.
	for i := 0; i < 400 && (i == 0 || inj.Injected() == 0); i++ {
		if err := streamZeros(faultNode, 1, 1); err != nil {
			t.Fatalf("fault probe (chunk %d): %v", i, err)
		}
	}
	if inj.Injected() == 0 {
		t.Error("chaos proxy injected no faults")
	}
	// An injected fault can already have forced a redial, even one on
	// the first chunk, before anything was buffered to resend: wait for
	// a redial past the partition itself.
	redials := faultNode.Redials()
	proxy.Sever() // full partition; the probe must redial through it
	for i := 0; i < 400 && faultNode.Redials() == redials; i++ {
		// A severed socket can swallow writes into the kernel buffer
		// before the reset surfaces; keep pushing until it does.
		if err := streamZeros(faultNode, 1, 1); err != nil {
			t.Fatalf("fault probe (post-partition): %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if faultNode.Redials() < 1 {
		t.Errorf("fault probe redials = %d, want >= 1 after the partition", faultNode.Redials())
	}
	if got := faultNode.Resent(); got < 1 {
		t.Errorf("fault probe resent %d tail chunks across its redials, want >= 1", got)
	}

	// Backpressure: every engine signals hot, the router relays the
	// pause to the nodes feeding them, and an edge node stalls: a
	// StreamChunk issued while paused does not return until the
	// release, then completes.
	pctx, pcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer pcancel()
	pauseNode, err := rxnet.DialReliable(pctx, addr, rxnet.Hello{NodeID: 901, Name: "pause-probe"},
		rxnet.RedialConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer pauseNode.Close()
	if err := streamZeros(pauseNode, 1, 1); err != nil { // register an owner
		t.Fatalf("pause probe: %v", err)
	}
	live := []*clusterEngine{a2, b2, c2}
	for _, e := range live {
		e.src.Throttle(true)
	}
	waitChurn(t, "throttle pause to reach the pause probe", pauseNode.Paused)
	stalled := make(chan error, 1)
	go func() { stalled <- streamZeros(pauseNode, 1, 4) }()
	select {
	case err := <-stalled:
		t.Fatalf("pause probe: StreamChunk returned while paused (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	for _, e := range live {
		e.src.Throttle(false)
	}
	select {
	case err := <-stalled:
		if err != nil {
			t.Fatalf("pause probe (resumed): %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("pause probe: StreamChunk did not complete after the release")
	}

	// The ledger: exactly one decode per session, no decode errors, no
	// dropped chunks, and bounded memory once the sessions flush.
	var total int64
	for _, e := range engines {
		total += e.decoded.Load()
		if n := e.errs.Load(); n != 0 {
			t.Errorf("engine %s: %d decode errors", e.id, n)
		}
	}
	if total != 128 {
		t.Fatalf("decoded %d packets for 128 sessions", total)
	}
	// Duplicate-delivery audit: the fault probe resent its tail to the
	// SAME router after each redial, and the chaos proxy duplicated raw
	// writes outright. Behind a single router every in-order
	// retransmission must be absorbed at the router (its replay buffer
	// skips seqs it already forwarded), so no duplicate ever reaches an
	// engine — cross-router failover, where engines DO see and discard
	// replayed chunks, is audited in TestClusterDualRouterFailoverZeroLoss.
	var dups int64
	for _, e := range engines {
		dups += e.src.DuplicateChunks()
	}
	if dups != 0 {
		t.Errorf("engines discarded %d duplicate chunks behind a single router, want 0 (router absorbs in-order resends)", dups)
	}
	for _, e := range live {
		if n := e.src.DroppedChunks(); n != 0 {
			t.Errorf("engine %s dropped %d chunks", e.id, n)
		}
	}
	waitChurn(t, "engine buffers to drain", func() bool {
		var buffered int64
		for _, e := range live {
			buffered += e.pipe.Stats().BufferedSamples
		}
		return buffered < 64<<10
	})

	snap := reg.Snapshot()
	counters := snap.Counters
	if got := counters["pl_cluster_engine_joins_total"]; got < 5 {
		t.Errorf("pl_cluster_engine_joins_total = %d, want >= 5 (3 joins + rejoins)", got)
	}
	if got := counters["pl_cluster_engines_evicted_total"]; got != 2 {
		t.Errorf("pl_cluster_engines_evicted_total = %d, want 2", got)
	}
	if got := counters["pl_cluster_replay_evicted_bytes_total"]; got == 0 {
		t.Error("pl_cluster_replay_evicted_bytes_total = 0; byte bound never trimmed")
	}
	if got := counters["pl_cluster_throttle_signals_total"]; got < 2 {
		t.Errorf("pl_cluster_throttle_signals_total = %d, want >= 2 (engage + release)", got)
	}
	if got := counters["pl_cluster_throttle_pauses_total"]; got < 1 {
		t.Errorf("pl_cluster_throttle_pauses_total = %d, want >= 1", got)
	}
	if got := counters["pl_cluster_handoffs_total"]; got < 1 {
		t.Errorf("pl_cluster_handoffs_total = %d, want >= 1", got)
	}
	t.Logf("churn: decoded=%d epoch=%d joins=%d evictions=%d handoffs=%d failovers=%d replay_evicted=%dB injected=%d",
		total, router.Stats().Epoch,
		counters["pl_cluster_engine_joins_total"],
		counters["pl_cluster_engines_evicted_total"],
		counters["pl_cluster_handoffs_total"],
		counters["pl_cluster_failovers_total"],
		counters["pl_cluster_replay_evicted_bytes_total"],
		inj.Injected())
}
