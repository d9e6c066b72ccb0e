package passivelight

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"passivelight/internal/cluster"
	"passivelight/internal/rxnet"
	"passivelight/internal/scenario"
)

// replayHASession streams one expanded session against the dual-router
// tier: a reliable node dialing the primary router with the standby in
// its rotation, pacing chunks so a router kill lands mid-stream, as
// `plnet -mode load -routers a,b` does. The node is returned OPEN —
// a node that closed the moment its last write succeeded could strand
// that write in a freshly-killed router's socket buffer with nothing
// left to notice; holding the connection lets the control reader see
// the dead router and resend the buffered tail to the survivor.
func replayHASession(ctx context.Context, primary, standby string, k int, spec scenario.Spec) (*rxnet.Node, error) {
	world, err := spec.CompileMulti()
	if err != nil {
		return nil, err
	}
	node, err := rxnet.DialReliable(ctx, primary, rxnet.Hello{NodeID: uint32(k + 1), Name: spec.Name}, rxnet.RedialConfig{
		Addrs:       []string{standby},
		Backoff:     rxnet.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
		MaxDowntime: 15 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	for _, l := range world.Links {
		tr, err := l.Link.Simulate()
		if err != nil {
			node.Close()
			return nil, fmt.Errorf("link %s: %w", l.Name, err)
		}
		for chunk := range tr.Chunks(1024) {
			if err := node.StreamChunk(uint32(l.Index), tr.Fs, chunk); err != nil {
				node.Close()
				return nil, err
			}
			time.Sleep(2 * time.Millisecond) // paced: keep sessions in flight across the kill
		}
	}
	return node, nil
}

// TestClusterDualRouterFailoverZeroLoss is the acceptance lock for the
// replicated routing tier: two peered routers converge on a batched
// 3-engine join stampede with exactly one epoch bump each, then the
// router carrying all 128 paced sessions is killed mid-replay — every
// node fails over to the survivor, replayed duplicates are discarded
// engine-side, and the fleet still decodes 128/128 exactly once.
func TestClusterDualRouterFailoverZeroLoss(t *testing.T) {
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

	engines := []*clusterEngine{
		startClusterEngine(t, "engine-a"),
		startClusterEngine(t, "engine-b"),
		startClusterEngine(t, "engine-c"),
	}
	regA, regB := NewTelemetry(), NewTelemetry()
	logfFor := func(name string) func(string, ...any) {
		return func(format string, args ...any) { t.Logf("["+name+"] "+format, args...) }
	}
	routerA, err := cluster.NewRouter(cluster.RouterConfig{AutoAdmit: true, Metrics: regA, Logf: logfFor("router-a")})
	if err != nil {
		t.Fatal(err)
	}
	defer routerA.Close()
	routerB, err := cluster.NewRouter(cluster.RouterConfig{AutoAdmit: true, Metrics: regB, Logf: logfFor("router-b")})
	if err != nil {
		t.Fatal(err)
	}
	defer routerB.Close()
	addrA, err := routerA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := routerB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	routerA.AddPeer(addrB)
	routerB.AddPeer(addrA)

	// Join stampede: all three engines hello BOTH routers at once. The
	// default RingBatchWindow must coalesce each router's admissions —
	// and the peer merge must not add bumps — so both rings settle at
	// epoch 1: exactly one membership change for three joins.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, e := range engines {
		for _, raddr := range []string{addrA, addrB} {
			stop, err := cluster.Join(ctx, raddr, e.id, e.src.Addr(), cluster.JoinConfig{
				KeepAlive: 250 * time.Millisecond,
				Backoff:   rxnet.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
				Logf:      t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
		}
	}
	joinDeadline := time.Now().Add(15 * time.Second)
	for {
		stA, stB := routerA.Stats(), routerB.Stats()
		if stA.Engines == 3 && stB.Engines == 3 && stA.PeersUp == 1 && stB.PeersUp == 1 {
			break
		}
		if time.Now().After(joinDeadline) {
			t.Fatalf("join stampede never converged: A=%+v B=%+v", stA, stB)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if eA, eB := routerA.Stats().Epoch, routerB.Stats().Epoch; eA != 1 || eB != 1 {
		t.Fatalf("epochs after batched stampede = A:%d B:%d, want exactly 1 each", eA, eB)
	}
	batches := regA.Snapshot().Counters["pl_cluster_ring_batches_total"] +
		regB.Snapshot().Counters["pl_cluster_ring_batches_total"]
	if batches < 1 || batches > 2 {
		t.Fatalf("ring batches across both routers = %d, want 1 or 2 (one flush each at most)", batches)
	}

	// Stream all 128 sessions at router A, then kill it mid-replay.
	// Nodes stay connected until every decode is confirmed (see
	// replayHASession), so the kill can never strand a session's tail.
	var nmu sync.Mutex
	var nodes []*rxnet.Node
	defer func() {
		nmu.Lock()
		defer nmu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
	}()
	sem := make(chan struct{}, 16)
	errCh := make(chan error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(k int, spec scenario.Spec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			node, err := replayHASession(context.Background(), addrA, addrB, k, spec)
			if err != nil {
				errCh <- fmt.Errorf("session %d: %w", k, err)
				return
			}
			nmu.Lock()
			nodes = append(nodes, node)
			nmu.Unlock()
		}(i, spec)
	}

	killDeadline := time.Now().Add(60 * time.Second)
	for regA.Snapshot().Counters["pl_cluster_chunks_forwarded_total"] < 48 {
		if time.Now().After(killDeadline) {
			t.Fatal("router A never forwarded enough traffic to kill it mid-replay")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("killing router A after %d forwarded chunks",
		regA.Snapshot().Counters["pl_cluster_chunks_forwarded_total"])
	routerA.Close()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	waitDecoded(t, "dual-router failover", int64(load.Sessions), engines...)

	// Zero loss AND zero duplication: every session decoded exactly
	// once (waitDecoded fatals on over-count), the nodes provably
	// resent their tails, and the engines discarded what the dead
	// router had already delivered.
	for _, e := range engines {
		if n := e.errs.Load(); n != 0 {
			t.Errorf("engine %s: %d decode errors", e.id, n)
		}
	}
	var resent int64
	nmu.Lock()
	for _, n := range nodes {
		resent += n.Resent()
	}
	nmu.Unlock()
	if resent == 0 {
		t.Error("no node resent its buffered tail; the kill missed the replay window")
	}
	var dups int64
	for _, e := range engines {
		dups += e.src.DuplicateChunks()
	}
	if dups == 0 {
		t.Error("engines discarded no duplicates; failover never replayed consumed chunks")
	}

	// The surviving router owns all the traffic that completed the run.
	stB := routerB.Stats()
	if stB.Routes == 0 {
		t.Error("surviving router holds no routes")
	}
	snapB := regB.Snapshot()
	if got := snapB.Counters["pl_cluster_chunks_forwarded_total"]; got == 0 {
		t.Error("surviving router forwarded nothing after the kill")
	}
	if got := snapB.Counters["pl_cluster_streams_routed_total"]; got == 0 {
		t.Error("surviving router routed no streams after the kill")
	}
	if got := snapB.Counters["pl_cluster_peer_updates_total"]; got == 0 {
		t.Error("surviving router applied no peer updates")
	}
	t.Logf("failover: resent=%d dups=%d survivorForwarded=%d survivorRoutes=%d peerUpdates=%d",
		resent, dups,
		snapB.Counters["pl_cluster_chunks_forwarded_total"],
		stB.Routes, snapB.Counters["pl_cluster_peer_updates_total"])
}
