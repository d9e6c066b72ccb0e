// Cluster modes: the distributed receiver-network tier. An engine is
// one decode process (NetSource + Pipeline) that can drain and hand
// its streams off; a router consistent-hashes sessions over a fleet
// of engines; the remote load replayer drives either over real
// sockets with optional wall-clock pacing.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"passivelight"
	"passivelight/internal/cluster"
	"passivelight/internal/rxnet"
	"passivelight/internal/scenario"
)

// paceTo sleeps until sample pos of a stream replaying at fs Hz is
// due on the wall clock anchored at start.
func paceTo(ctx context.Context, start time.Time, pos int, fs float64) error {
	due := start.Add(time.Duration(float64(pos) / fs * float64(time.Second)))
	wait := time.Until(due)
	if wait <= 0 {
		return nil
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseEngines parses "id=host:port,id=host:port" into ring members.
func parseEngines(s string) ([]cluster.Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("no engines given (want -engines id=host:port,...)")
	}
	var members []cluster.Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad engine %q (want id=host:port)", part)
		}
		members = append(members, cluster.Member{ID: id, Addr: addr})
	}
	return members, nil
}

// buildRing assembles the routing ring from a JSON file (-ring) or
// the -engines flag.
func buildRing(enginesFlag, ringPath string, vnodes int) (*cluster.Ring, error) {
	if ringPath != "" {
		blob, err := os.ReadFile(ringPath)
		if err != nil {
			return nil, err
		}
		ring := new(cluster.Ring)
		if err := json.Unmarshal(blob, ring); err != nil {
			return nil, fmt.Errorf("ring file %s: %w", ringPath, err)
		}
		return ring, nil
	}
	members, err := parseEngines(enginesFlag)
	if err != nil {
		return nil, err
	}
	return cluster.NewRing(vnodes, members...)
}

// runDumpRing prints the ring as JSON — the file -ring consumes, and
// the canonical way to diff layouts before a rebalance.
func runDumpRing(enginesFlag string, vnodes int) error {
	ring, err := buildRing(enginesFlag, "", vnodes)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(ring, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// runRoute fronts the engine fleet: receiver nodes connect here and
// every (node, stream) session is forwarded to its ring owner, with
// drain handoffs and crash failover handled by the cluster router.
// With autoAdmit (and no -engines/-ring) it starts on an empty ring
// and builds its fleet from EngineHello announcements alone. peers
// names replica routers to share ring state with — the HA pair.
func runRoute(ctx context.Context, mon *obs, listen, enginesFlag, ringPath string, vnodes int, autoAdmit bool, deadTimeout time.Duration, peers []string, ringBatch time.Duration) error {
	var ring *cluster.Ring
	if enginesFlag != "" || ringPath != "" || !autoAdmit {
		var err error
		ring, err = buildRing(enginesFlag, ringPath, vnodes)
		if err != nil {
			return err
		}
	}
	r, err := cluster.NewRouter(cluster.RouterConfig{
		Ring:              ring,
		Logf:              rxnet.StdLogf,
		Metrics:           mon.registry(),
		AutoAdmit:         autoAdmit,
		DeadEngineTimeout: deadTimeout,
		Peers:             peers,
		RingBatchWindow:   ringBatch,
	})
	if err != nil {
		return err
	}
	defer r.Close()
	addr, err := r.Listen(listen)
	if err != nil {
		return err
	}
	st := r.Stats()
	fmt.Printf("cluster router on %s fronting %d engines (ring epoch %d, auto-admit %v, %d peers)\n",
		addr, st.Engines, st.Epoch, autoAdmit, len(peers))
	if err := mon.serveBare(func(h *passivelight.TelemetryHealth) {
		h.AddCheck("engines", func() (bool, string) {
			st := r.Stats()
			if st.Down > 0 {
				return false, fmt.Sprintf("%d of %d engines down (%d draining, %d routes)",
					st.Down, st.Engines, st.Draining, st.Routes)
			}
			return true, ""
		})
	}); err != nil {
		return err
	}
	defer mon.close()
	<-ctx.Done()
	st = r.Stats()
	fmt.Printf("router shutting down: %d routes, %d handoffs, %d undeliverable chunks\n",
		st.Routes, st.Handoffs, st.Undeliverable)
	return nil
}

// runEngine is one cluster decode engine: a NetSource fed by the
// router, a pipeline decoding every routed stream, and a graceful
// drain path — SIGTERM (or a wire FrameDrainRequest) stops new
// streams, lets in-flight ones finish, force-redirects stragglers
// after drainWait, then exits clean with a summary.
func runEngine(ctx context.Context, mon *obs, listen, engineID, strategyName string, symbols, workers, shards int, idle, drainWait time.Duration, joinAddr, advertiseAddr string, throttleHigh float64) error {
	strat, err := passivelight.StrategyForScenario(passivelight.ScenarioDecode{Strategy: strategyName})
	if err != nil {
		return err
	}
	rootCtx := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	src, err := passivelight.ListenSourceConfig(listen, passivelight.NetSourceConfig{
		Telemetry: mon.registry(),
		Logf:      rxnet.StdLogf,
		// Paced chunks spanning at least the idle timeout would let
		// the janitor flush sessions between chunks; warn and gauge it.
		PaceGuardIdle: idle,
	})
	if err != nil {
		return err
	}
	var decoded, undecodable, released atomic.Int64
	pipe, err := passivelight.NewPipeline(src, strat,
		passivelight.WithExpectedSymbols(symbols),
		passivelight.WithWorkers(workers),
		passivelight.WithShards(shards),
		passivelight.WithIdleTimeout(idle),
		passivelight.WithTelemetry(mon.registry()),
		passivelight.WithSessionEnd(func(session uint64, stats passivelight.SessionStats, reason string) {
			released.Add(1)
			fmt.Printf("engine %s: session %d released (%s): %d samples, %d detections\n",
				engineID, session, reason, stats.Samples, stats.Detections)
		}),
		passivelight.WithSink(func(ev passivelight.Event) {
			if ev.Err != nil {
				undecodable.Add(1)
				return
			}
			decoded.Add(1)
			// Confirm consumption upstream so the router trims the
			// session's replay buffer: if this engine dies later, only
			// unacked streams replay to a failover owner.
			src.AckSession(ev.Session)
			fmt.Printf("engine %s: session %d decoded %s\n", engineID, ev.Session, ev.BitString())
		}),
	)
	if err != nil {
		return err
	}
	events, err := pipe.Stream(ctx)
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		for range events { // the sink already counted
		}
		close(drained)
	}()
	if err := mon.serve(pipe, src, func(h *passivelight.TelemetryHealth) {
		h.AddCheck("draining", func() (bool, string) {
			if src.Draining() {
				return false, fmt.Sprintf("draining: %d sessions in flight", pipe.Stats().Sessions)
			}
			return true, ""
		})
	}); err != nil {
		return err
	}
	defer mon.close()
	if throttleHigh > 0 {
		// Close the backpressure loop: occupancy past the watermark
		// throttles the router, which pauses the nodes feeding us.
		stopThrottle := src.AutoThrottle(pipe.Occupancy, throttleHigh, 0, 0)
		defer stopThrottle()
	}
	if routers := splitAddrs(joinAddr); len(routers) > 0 {
		adv := advertiseAddr
		if adv == "" {
			adv = src.Addr()
		}
		// -join accepts a comma list: an HA pair of routers each gets
		// its own hello/keepalive loop, so the engine stays admitted on
		// whichever replicas survive.
		for _, raddr := range routers {
			stopJoin, err := cluster.Join(ctx, raddr, engineID, adv, cluster.JoinConfig{Logf: rxnet.StdLogf})
			if err != nil {
				return err
			}
			defer stopJoin()
		}
		fmt.Printf("engine %s joining router(s) %s (advertising %s)\n", engineID, strings.Join(routers, ","), adv)
	}
	fmt.Printf("cluster engine %s (%s, %d symbols) decoding on %s\n", engineID, strategyName, symbols, src.Addr())

	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	defer signal.Stop(term)
	select {
	case <-ctx.Done():
		// Hard stop (SIGINT): no handoff, just a clean teardown.
		<-drained
		return pipelineErr(pipe.Err())
	case <-term:
		fmt.Printf("engine %s: SIGTERM, draining\n", engineID)
	case <-src.DrainRequests():
		fmt.Printf("engine %s: drain requested over the wire\n", engineID)
	}

	// Graceful drain: refuse new streams (the router re-routes them),
	// let in-flight sessions finish and flush naturally...
	src.Drain()
	deadline := time.Now().Add(drainWait)
	for time.Now().Before(deadline) && pipe.Stats().Sessions > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(25 * time.Millisecond)
	}
	// ...then evict the stragglers: each gets an End (flush + release)
	// here and a NACK replay on its new owner, so nothing is lost.
	for _, session := range src.Sessions() {
		if src.ForceRedirect(session) {
			fmt.Printf("engine %s: redirected straggler stream %d\n", engineID, session)
		}
	}
	settle := time.Now().Add(5 * time.Second)
	for time.Now().Before(settle) && pipe.Stats().Sessions > 0 {
		time.Sleep(25 * time.Millisecond)
	}
	pipe.Flush()
	cancel()
	<-drained
	fmt.Printf("engine %s drained: %d decoded, %d undecodable, %d sessions released\n",
		engineID, decoded.Load(), undecodable.Load(), released.Load())
	mon.wait(rootCtx)
	return pipelineErr(pipe.Err())
}

// runDrainRequest asks a running engine to drain over the wire — the
// remote equivalent of sending it SIGTERM.
func runDrainRequest(target string) error {
	conn, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetWriteDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	if err := rxnet.WriteFrame(conn, rxnet.FrameDrainRequest, nil); err != nil {
		return err
	}
	fmt.Println("drain requested from", target)
	return nil
}

// runLoadRemote replays an expanded load against an external router
// (or single engine) over real sockets: sessions stream concurrently
// (bounded by fanout), each as its own receiver node, optionally
// paced to the stream clocks — the workload a rolling-restart
// rehearsal is run against. targets[0] is dialed; any further
// addresses are standby routers the nodes fail over to transparently
// (redial plus buffered-tail resend) when the primary dies.
func runLoadRemote(ctx context.Context, loadName string, sessions, chunkSize int, pace bool, targets []string, fanout int, engineIdle time.Duration) error {
	if len(targets) == 0 {
		return errors.New("load replay needs at least one target address")
	}
	load, err := scenario.GetLoad(loadName)
	if err != nil {
		return err
	}
	if sessions > 0 {
		load.Sessions = sessions
	}
	pace = pace || load.Pace
	specs, err := load.Expand()
	if err != nil {
		return err
	}
	if fanout < 1 {
		fanout = 1
	}
	fmt.Printf("load replay %s: %d sessions -> %s (fanout %d, paced %v)\n",
		load.Name, len(specs), strings.Join(targets, ","), fanout, pace)

	// A paced chunk that spans at least the engine's idle timeout
	// means the engine flushes every session between chunks — the
	// replay "works" but decodes nothing whole. Warn once, up front.
	var paceWarn sync.Once
	warnGap := func(fs float64) {
		if !pace || engineIdle <= 0 || fs <= 0 {
			return
		}
		gap := time.Duration(float64(chunkSize) / fs * float64(time.Second))
		if gap >= engineIdle {
			paceWarn.Do(func() {
				fmt.Printf("warning: paced chunks span %s of signal at %.0f S/s — at least the engine idle timeout (%s); sessions will be flushed between chunks. Lower -chunk or raise the engine's -idle.\n",
					gap.Round(time.Millisecond), fs, engineIdle)
			})
		}
	}

	var (
		wg    sync.WaitGroup
		sent  atomic.Int64
		links atomic.Int64
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil && !errors.Is(err, context.Canceled) {
			first = err
		}
		mu.Unlock()
	}
	sem := make(chan struct{}, fanout)
	start := time.Now()
	for k, spec := range specs {
		wg.Add(1)
		go func(k int, spec scenario.Spec) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			n, l, err := replaySession(ctx, targets, k, spec, chunkSize, pace, warnGap)
			sent.Add(n)
			links.Add(l)
			if err != nil {
				fail(fmt.Errorf("session %d: %w", k, err))
			}
		}(k, spec)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if first != nil {
		return first
	}
	elapsed := time.Since(start)
	fmt.Printf("replayed %d sessions (%d links, %d samples) in %s (%.1f MB/s over sockets)\n",
		len(specs), links.Load(), sent.Load(), elapsed.Round(time.Millisecond),
		float64(8*sent.Load())/1e6/elapsed.Seconds())
	return nil
}

// replaySession renders one expanded session and ships every link's
// trace to the first target, returning samples and links sent.
// Additional targets become the node's failover rotation: a dead
// primary costs a reconnect plus a buffered-tail resend, not the
// session. warnGap, if non-nil, is told each link's sample rate for
// the pacing-gap guard.
func replaySession(ctx context.Context, targets []string, k int, spec scenario.Spec, chunkSize int, pace bool, warnGap func(fs float64)) (int64, int64, error) {
	world, err := spec.CompileMulti()
	if err != nil {
		return 0, 0, err
	}
	hello := rxnet.Hello{
		NodeID: uint32(k + 1),
		Height: world.Links[0].Receiver.HeightM,
		Name:   spec.Name,
	}
	node, err := rxnet.DialReliable(ctx, targets[0], hello, rxnet.RedialConfig{
		Addrs: targets[1:],
		Logf:  rxnet.StdLogf,
	})
	if err != nil {
		return 0, 0, err
	}
	defer node.Close()
	var sent, links int64
	for _, l := range world.Links {
		tr, err := l.Link.Simulate()
		if err != nil {
			return sent, links, fmt.Errorf("link %s: %w", l.Name, err)
		}
		if warnGap != nil {
			warnGap(tr.Fs)
		}
		pos, linkStart := 0, time.Now()
		for chunk := range tr.Chunks(chunkSize) {
			if err := ctx.Err(); err != nil {
				return sent, links, err
			}
			if pace {
				if err := paceTo(ctx, linkStart, pos, tr.Fs); err != nil {
					return sent, links, err
				}
			}
			if err := node.StreamChunk(uint32(l.Index), tr.Fs, chunk); err != nil {
				return sent, links, err
			}
			pos += len(chunk)
		}
		sent += int64(tr.Len())
		links++
	}
	return sent, links, nil
}
