// Command plnet runs the networked-receivers extension (paper
// Sec. 6, future work (5)): an aggregator fusing detections from
// receiver nodes into object tracks.
//
// Usage:
//
//	plnet -mode aggregator -listen :7410
//	plnet -mode node -connect host:7410 -id 2 -x 25 -payload 1001
//	plnet -mode demo            # in-process aggregator + 3 simulated nodes
//	plnet -mode stream -nodes 3 # nodes stream raw samples into a
//	                            # server-side decode Pipeline
//	plnet -mode load -load fleet-load -sessions 16
//	                            # replay a scenario load spec as
//	                            # synthetic node traffic: each session
//	                            # is one node, each receiver one stream
//	plnet -mode load -sessions 16 -metrics-addr :9090 -linger 5m
//	                            # same, with live /metrics,
//	                            # /metrics.json and /healthz; -linger
//	                            # keeps the endpoint up after the run
//
// Cluster modes (internal/cluster): a router front-end consistent-
// hashes each (node, stream) session onto a fleet of engine
// processes, hands streams off losslessly when an engine drains, and
// fails them over when one dies:
//
//	plnet -mode engine -listen :7501 -engine-id a -metrics-addr :9501
//	plnet -mode engine -listen :7502 -engine-id b -metrics-addr :9502
//	plnet -mode route  -listen :7500 -engines a=127.0.0.1:7501,b=127.0.0.1:7502
//	plnet -mode load   -router 127.0.0.1:7500 -sessions 128 -pace
//	                            # concurrent paced fleet replay against
//	                            # the router instead of an in-process
//	                            # pipeline
//	plnet -mode drain  -connect 127.0.0.1:7501
//	                            # ask an engine to drain over the wire
//	                            # (SIGTERM to the engine does the same)
//
// A draining engine refuses new streams (the router re-routes them),
// finishes its in-flight sessions, force-redirects stragglers after
// -drain-wait, reports "draining" on /healthz, and exits clean.
//
// Stream mode is built on the unified Pipeline API: a NetSource
// accepts the nodes' raw chunk streams, a TwoPhase pipeline decodes
// them on the worker pool, and a sink feeds the detections into the
// aggregator's track fusion. Ctrl-C cancels the shared context, which
// shuts down sources, sessions and run loops cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"passivelight"
	"passivelight/internal/rxnet"
	"passivelight/internal/scenario"
	"passivelight/internal/telemetry"
)

func main() {
	var (
		mode     = flag.String("mode", "demo", "aggregator | node | demo | stream")
		listen   = flag.String("listen", ":7410", "aggregator listen address")
		connect  = flag.String("connect", "127.0.0.1:7410", "aggregator address for nodes")
		discover = flag.String("discover", "", "UDP discovery address (nodes: probe it instead of -connect; aggregator: answer probes on it)")
		nodeID   = flag.Uint("id", 1, "node id")
		posX     = flag.Float64("x", 0, "node position along the lane (m)")
		payload  = flag.String("payload", "1001", "payload the simulated node observes")
		nodes    = flag.Int("nodes", 3, "simulated node count (stream mode)")
		chunk    = flag.Int("chunk", 1024, "samples per streamed chunk (stream and load modes)")
		workers  = flag.Int("workers", 0, "decode worker pool size (stream and load modes; 0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 0, "engine shard count (stream and load modes; 0 = min(workers, GOMAXPROCS))")
		loadName = flag.String("load", "fleet-load", "load-registry preset to replay (load mode)")
		sessions = flag.Int("sessions", 16, "session count to expand the load to (load mode; 0 keeps the preset's)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz and /debug/pprof/ on this address (stream, load, engine and route modes)")
		linger   = flag.Duration("linger", 0, "keep the metrics endpoint alive this long after a stream/load run completes")

		pace      = flag.Bool("pace", false, "pace load replay to the stream clocks (wall time) instead of as fast as possible")
		router    = flag.String("router", "", "replay the load against this router/engine address instead of an in-process pipeline (load mode)")
		fanout    = flag.Int("fanout", 16, "concurrent sessions replaying at once (load mode with -router)")
		engineID  = flag.String("engine-id", "engine", "this engine's ring member id (engine mode)")
		engines   = flag.String("engines", "", "comma-separated id=host:port ring members (route mode, -dump-ring)")
		ringPath  = flag.String("ring", "", "ring JSON file to route by, as printed by -dump-ring (route mode; overrides -engines)")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per ring member (0 = default 128)")
		dumpRing  = flag.Bool("dump-ring", false, "print the ring built from -engines/-vnodes as JSON and exit")
		strategy  = flag.String("strategy", "threshold", "decode strategy for engine mode (threshold | two-phase)")
		symbols   = flag.Int("symbols", 8, "expected symbols per packet (engine mode)")
		idle      = flag.Duration("idle", 3*time.Second, "engine-mode session idle eviction (quiet streams flush and release after this long)")
		drainWait = flag.Duration("drain-wait", 30*time.Second, "how long a draining engine waits for in-flight streams before force-redirecting them")

		join         = flag.String("join", "", "comma-separated router addresses to announce this engine to — engine-initiated membership, no operator rebalance; list both routers of an HA pair (engine mode)")
		advertise    = flag.String("advertise", "", "chunk-ingest address to advertise when joining (engine mode; default: the bound -listen address)")
		throttleHigh = flag.Float64("throttle-high", 0.75, "engine occupancy that engages cluster backpressure, released at half that (engine mode; 0 disables)")
		autoAdmit    = flag.Bool("auto-admit", true, "accept EngineHello announcements onto the ring; allows starting with no -engines (route mode)")
		deadTimeout  = flag.Duration("dead-timeout", 60*time.Second, "evict engines unreachable this long from the ring (route mode; negative disables)")
		peers        = flag.String("peers", "", "comma-separated peer router addresses to replicate ring and membership with — run two routers pointing at each other for an HA pair (route mode)")
		ringBatch    = flag.Duration("ring-batch", 0, "coalesce engine admissions landing within this window into one epoch bump (route mode; 0 = default 250ms, negative = apply each immediately)")
		routers      = flag.String("routers", "", "comma-separated router addresses for load replay with transparent failover — the first is dialed, the rest are standbys (load mode; overrides -router)")
	)
	flag.Parse()
	// One signal-handling context for every mode: Ctrl-C propagates
	// into node run loops, stream sessions and the aggregator.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch *mode {
	case "aggregator":
		err = runAggregator(ctx, *listen, *discover)
	case "node":
		target := *connect
		if *discover != "" {
			target, err = rxnet.Discover(*discover, 5*time.Second)
		}
		if err == nil {
			if *discover != "" {
				fmt.Println("discovered aggregator at", target)
			}
			err = runNode(ctx, target, uint32(*nodeID), *posX, *payload)
		}
	case "demo":
		err = runDemo(ctx)
	case "stream":
		err = runStream(ctx, newObs(*metrics, *linger), *nodes, *chunk, *payload, *workers, *shards)
	case "load":
		if targets := splitAddrs(*routers); len(targets) > 0 {
			err = runLoadRemote(ctx, *loadName, *sessions, *chunk, *pace, targets, *fanout, *idle)
		} else if *router != "" {
			err = runLoadRemote(ctx, *loadName, *sessions, *chunk, *pace, []string{*router}, *fanout, *idle)
		} else {
			err = runLoad(ctx, newObs(*metrics, *linger), *loadName, *sessions, *chunk, *workers, *shards, *pace)
		}
	case "engine":
		err = runEngine(ctx, newObs(*metrics, *linger), *listen, *engineID, *strategy, *symbols, *workers, *shards, *idle, *drainWait, *join, *advertise, *throttleHigh)
	case "route":
		if *dumpRing {
			err = runDumpRing(*engines, *vnodes)
		} else {
			err = runRoute(ctx, newObs(*metrics, *linger), *listen, *engines, *ringPath, *vnodes, *autoAdmit, *deadTimeout, splitAddrs(*peers), *ringBatch)
		}
	case "drain":
		err = runDrainRequest(*connect)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "plnet:", err)
		os.Exit(1)
	}
}

func runAggregator(ctx context.Context, listen, discoverAddr string) error {
	agg := rxnet.NewAggregator(rxnet.AggregatorOptions{Logf: rxnet.StdLogf})
	addr, err := agg.Listen(listen)
	if err != nil {
		return err
	}
	defer agg.Close()
	fmt.Println("aggregator listening on", addr)
	if discoverAddr != "" {
		resp, udpAddr, err := rxnet.NewResponder(discoverAddr, addr)
		if err != nil {
			return err
		}
		defer resp.Close()
		fmt.Println("answering discovery probes on", udpAddr)
	}
	tracks := agg.Subscribe()
	for {
		select {
		case t, ok := <-tracks:
			if !ok {
				return nil
			}
			fmt.Printf("track: object=%s speed=%.2f m/s nodes %d->%d confirmations=%d\n",
				rxnet.BitsString(t.ObjectBits), t.SpeedMS, t.FirstNode, t.LastNode, t.Confirmations)
		case <-ctx.Done():
			return nil
		}
	}
}

// runNode simulates one receiver node: it decodes a car pass locally
// through a TwoPhase pipeline and publishes the detection.
func runNode(ctx context.Context, connect string, id uint32, posX float64, payload string) error {
	dialCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	node, err := rxnet.Dial(dialCtx, connect, rxnet.Hello{
		NodeID: id,
		PosX:   posX,
		Height: 0.75,
		Name:   fmt.Sprintf("pole-%d", id),
	})
	if err != nil {
		return err
	}
	defer node.Close()
	det, err := observe(ctx, payload, int64(id))
	if err != nil {
		return err
	}
	if err := node.Publish(det); err != nil {
		return err
	}
	fmt.Printf("node %d published detection %s\n", id, rxnet.BitsString(det.Bits))
	return nil
}

// observe simulates a local car pass and decodes it into a Detection
// through the Pipeline API (CarPassSource -> TwoPhase).
func observe(ctx context.Context, payload string, seed int64) (rxnet.Detection, error) {
	src := passivelight.NewCarPassSource(passivelight.OutdoorCarPass{
		Payload:        payload,
		NoiseFloorLux:  6200,
		ReceiverHeight: 0.75,
		Seed:           seed,
	})
	pipe, err := passivelight.NewPipeline(src, passivelight.TwoPhase(),
		passivelight.WithExpectedSymbols(4+2*len(payload)),
		passivelight.WithPreRoll(-1), // offline replay: decode on end of stream
	)
	if err != nil {
		return rxnet.Detection{}, err
	}
	events, err := pipe.Run(ctx)
	if err != nil {
		return rxnet.Detection{}, err
	}
	for _, ev := range events {
		if ev.Err != nil {
			continue
		}
		st := src.Trace().Stats()
		return rxnet.Detection{
			Time:       time.Now(),
			Bits:       ev.Bits,
			RSSPeak:    st.Max,
			NoiseFloor: 6200,
			SymbolRate: ev.SymbolRate,
		}, nil
	}
	return rxnet.Detection{}, fmt.Errorf("local decode: no packet found in pass")
}

// runStream is the streaming variant of the demo, fully on the new
// Pipeline API: N simulated nodes ship their raw RSS traces live in
// chunks to a NetSource; one TwoPhase pipeline decodes every stream
// server-side and its sink feeds the aggregator's track fusion — the
// paper's testbed inverted, with all DSP at the pipeline.
func runStream(ctx context.Context, mon *obs, nodeCount, chunkSize int, payload string, workers, shards int) error {
	if nodeCount < 2 {
		return fmt.Errorf("stream mode needs at least 2 nodes to fuse a track, got %d", nodeCount)
	}
	rootCtx := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The aggregator only fuses; decode lives in the pipeline.
	agg := rxnet.NewAggregator(rxnet.AggregatorOptions{Logf: rxnet.StdLogf, TrackGap: time.Minute})
	defer agg.Close()

	src, err := passivelight.ListenSourceConfig("127.0.0.1:0", passivelight.NetSourceConfig{Telemetry: mon.registry()})
	if err != nil {
		return err
	}
	src.OnHello(func(h passivelight.NodeHello) { agg.RegisterNode(h) })
	pipe, err := passivelight.NewPipeline(src, passivelight.TwoPhase(),
		passivelight.WithExpectedSymbols(4+2*len(payload)),
		passivelight.WithWorkers(workers),
		passivelight.WithShards(shards),
		passivelight.WithTelemetry(mon.registry()),
		passivelight.WithSink(func(ev passivelight.Event) {
			if ev.Err != nil {
				fmt.Printf("stream session %d segment [%d,%d): %v\n", ev.Session, ev.Start, ev.End, ev.Err)
				return
			}
			agg.Ingest(rxnet.Detection{
				NodeID:     rxnet.SessionNodeID(ev.Session),
				Time:       ev.Wall,
				Bits:       ev.Bits,
				RSSPeak:    ev.RSSPeak,
				NoiseFloor: ev.NoiseFloor,
				SymbolRate: ev.SymbolRate,
			})
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
		for range events { // sinks already did the work
		}
		close(drained)
	}()
	if err := mon.serve(pipe, src); err != nil {
		return err
	}
	defer mon.close()
	fmt.Println("streaming decode pipeline on", src.Addr())

	var sent int64
	for i := 0; i < nodeCount; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		node, err := rxnet.DialReliable(ctx, src.Addr(), rxnet.Hello{
			NodeID: uint32(i + 1),
			PosX:   float64(i) * 25,
			Height: 0.75,
			Name:   fmt.Sprintf("pole-%d", i+1),
		}, rxnet.RedialConfig{Logf: rxnet.StdLogf})
		if err != nil {
			return err
		}
		// Render this node's car pass and ship the raw trace.
		link, _, err := (passivelight.OutdoorCarPass{
			Payload:        payload,
			NoiseFloorLux:  6200,
			ReceiverHeight: 0.75,
			Seed:           int64(i + 1),
		}).Build()
		if err != nil {
			node.Close()
			return err
		}
		tr, err := link.Simulate()
		if err != nil {
			node.Close()
			return err
		}
		for chunk := range tr.Chunks(chunkSize) {
			if err := ctx.Err(); err != nil {
				node.Close()
				return err
			}
			if err := node.StreamChunk(0, tr.Fs, chunk); err != nil {
				node.Close()
				return err
			}
		}
		node.Close()
		fmt.Printf("pole-%d streamed %d samples (%.1f s at %.0f S/s)\n", i+1, tr.Len(), tr.Duration(), tr.Fs)
		// Wait for the pipeline to ingest everything sent so far, then
		// flush so the open segment decodes now instead of waiting out
		// the quiet hold (dial-order spacing also keeps detection
		// timestamps ordered for fusion).
		sent += int64(tr.Len())
		ingestDeadline := time.Now().Add(30 * time.Second)
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			st := pipe.Stats()
			if st.SamplesIn >= sent {
				break
			}
			if time.Now().After(ingestDeadline) {
				return fmt.Errorf("pipeline ingested %d of %d streamed samples (dropped %d)",
					st.SamplesIn, sent, st.DroppedSamples)
			}
			time.Sleep(5 * time.Millisecond)
		}
		pipe.Flush()
		time.Sleep(20 * time.Millisecond)
	}

	st := pipe.Stats()
	fmt.Printf("pipeline: %d sessions, %d samples in, %d detections, %d decode errors, %d buffered\n",
		st.Sessions, st.SamplesIn, st.Detections, st.DecodeErrors, st.BufferedSamples)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if tracks := agg.Tracks(); len(tracks) > 0 {
			t := tracks[len(tracks)-1]
			fmt.Printf("fused track: object=%s across %d receivers (%d -> %d)\n",
				rxnet.BitsString(t.ObjectBits), t.Confirmations, t.FirstNode, t.LastNode)
			cancel()
			<-drained
			mon.wait(rootCtx)
			return pipelineErr(pipe.Err())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no track fused from streamed samples")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// runLoad replays a declarative load spec as synthetic node traffic:
// every expanded session dials in as its own receiver node and ships
// each of its compiled links' rendered traces chunk by chunk, so the
// server-side pipeline sees exactly the fleet the spec describes —
// spec-driven scale testing of the networked decode path.
func runLoad(ctx context.Context, mon *obs, loadName string, sessions, chunkSize, workers, shards int, pace bool) error {
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
	strat, err := passivelight.StrategyForScenario(specs[0].Decode)
	if err != nil {
		return err
	}

	rootCtx := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	src, err := passivelight.ListenSourceConfig("127.0.0.1:0", passivelight.NetSourceConfig{Telemetry: mon.registry()})
	if err != nil {
		return err
	}
	var decoded, undecodable atomic.Int64
	pipe, err := passivelight.NewPipeline(src, strat,
		passivelight.WithExpectedSymbols(specs[0].Decode.ExpectedSymbols),
		passivelight.WithWorkers(workers),
		passivelight.WithShards(shards),
		passivelight.WithTelemetry(mon.registry()),
		passivelight.WithSink(func(ev passivelight.Event) {
			if ev.Err != nil {
				undecodable.Add(1)
				return
			}
			decoded.Add(1)
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
	if err := mon.serve(pipe, src); err != nil {
		return err
	}
	defer mon.close()
	fmt.Printf("load replay %s: %d sessions into pipeline on %s\n", load.Name, len(specs), src.Addr())

	start := time.Now()
	var sent, links int64
	for k, spec := range specs {
		if err := ctx.Err(); err != nil {
			return err
		}
		world, err := spec.CompileMulti()
		if err != nil {
			return fmt.Errorf("session %d: %w", k, err)
		}
		node, err := rxnet.DialReliable(ctx, src.Addr(), rxnet.Hello{
			NodeID: uint32(k + 1),
			Height: world.Links[0].Receiver.HeightM,
			Name:   spec.Name,
		}, rxnet.RedialConfig{Logf: rxnet.StdLogf})
		if err != nil {
			return err
		}
		for _, l := range world.Links {
			tr, err := l.Link.Simulate()
			if err != nil {
				node.Close()
				return fmt.Errorf("session %d link %s: %w", k, l.Name, err)
			}
			pos, linkStart := 0, time.Now()
			for chunk := range tr.Chunks(chunkSize) {
				if err := ctx.Err(); err != nil {
					node.Close()
					return err
				}
				if pace {
					if err := paceTo(ctx, linkStart, pos, tr.Fs); err != nil {
						node.Close()
						return err
					}
				}
				if err := node.StreamChunk(uint32(l.Index), tr.Fs, chunk); err != nil {
					node.Close()
					return err
				}
				pos += len(chunk)
			}
			sent += int64(tr.Len())
			links++
		}
		node.Close()
	}

	// Wait for full ingest, then flush the open segments so trailing
	// packets decode without waiting out the quiet hold.
	ingestDeadline := time.Now().Add(60 * time.Second)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		st := pipe.Stats()
		if st.SamplesIn >= sent {
			break
		}
		if time.Now().After(ingestDeadline) {
			return fmt.Errorf("pipeline ingested %d of %d streamed samples (dropped %d)",
				st.SamplesIn, sent, st.DroppedSamples)
		}
		time.Sleep(5 * time.Millisecond)
	}
	pipe.Flush()
	// Flush decodes synchronously but publishes through the batched
	// detection channel; wait until the event totals settle before
	// tearing the pipeline down, so the summary counts are not a race
	// against the forwarder.
	settleDeadline := time.Now().Add(5 * time.Second)
	prev := int64(-1)
	for {
		cur := decoded.Load() + undecodable.Load()
		if cur == prev || time.Now().After(settleDeadline) {
			break
		}
		prev = cur
		time.Sleep(25 * time.Millisecond)
	}
	elapsed := time.Since(start)
	cancel()
	<-drained

	st := pipe.Stats()
	fmt.Printf("replayed %d sessions (%d links, %d samples) in %s (%.1f MB/s over loopback)\n",
		len(specs), links, sent, elapsed.Round(time.Millisecond),
		float64(8*sent)/1e6/elapsed.Seconds())
	fmt.Printf("pipeline: %d shards, %d decoded, %d undecodable, %d dropped samples\n",
		st.Shards, decoded.Load(), undecodable.Load(), st.DroppedSamples)
	if decoded.Load() == 0 {
		return fmt.Errorf("load replay decoded nothing")
	}
	mon.wait(rootCtx)
	return pipelineErr(pipe.Err())
}

// obs is the optional observability surface of the stream and load
// modes: one registry shared by the chunk listener, the pipeline and
// a live HTTP endpoint, plus the /healthz degradation checks.
type obs struct {
	addr   string
	linger time.Duration
	tel    *passivelight.Telemetry
	srv    *telemetry.Server
}

// newObs builds the surface when -metrics-addr is set; nil otherwise
// (every method no-ops on a nil receiver).
func newObs(addr string, linger time.Duration) *obs {
	if addr == "" {
		return nil
	}
	return &obs{addr: addr, linger: linger, tel: passivelight.NewTelemetry()}
}

// registry returns the shared registry (nil when metrics are off —
// the pipeline and source treat nil as "no telemetry").
func (o *obs) registry() *passivelight.Telemetry {
	if o == nil {
		return nil
	}
	return o.tel
}

// serve starts the metrics endpoint once the pipeline and source
// exist, wiring two /healthz checks: "drops" degrades when any drop
// counter (engine samples/detections, listener chunks) grew
// since the previous probe, and "sessions" degrades when the session
// table is full. hooks add mode-specific checks (e.g. the engine
// mode's "draining" state).
func (o *obs) serve(pipe *passivelight.Pipeline, src *passivelight.NetSource, hooks ...func(*passivelight.TelemetryHealth)) error {
	if o == nil {
		return nil
	}
	health := passivelight.NewTelemetryHealth()
	for _, hook := range hooks {
		hook(health)
	}
	var lastDrops atomic.Int64
	health.AddCheck("drops", func() (bool, string) {
		st := pipe.Stats()
		total := st.DroppedSamples + st.DroppedDetections + src.DroppedChunks()
		prev := lastDrops.Swap(total)
		if total > prev {
			return false, fmt.Sprintf("%d dropped (+%d since last probe)", total, total-prev)
		}
		return true, ""
	})
	health.AddCheck("sessions", func() (bool, string) {
		// plnet never overrides WithMaxSessions, so the engine's
		// default table bound applies.
		const sessionLimit = 65536
		if st := pipe.Stats(); st.Sessions >= sessionLimit {
			return false, fmt.Sprintf("session table full (%d/%d)", st.Sessions, sessionLimit)
		}
		return true, ""
	})
	srv, err := telemetry.StartServer(o.addr, o.tel, health)
	if err != nil {
		return err
	}
	o.srv = srv
	fmt.Println("metrics on http://" + srv.Addr())
	return nil
}

// serveBare starts the metrics endpoint with only hook-provided
// health checks — for modes without a pipeline (the cluster router).
func (o *obs) serveBare(hooks ...func(*passivelight.TelemetryHealth)) error {
	if o == nil {
		return nil
	}
	health := passivelight.NewTelemetryHealth()
	for _, hook := range hooks {
		hook(health)
	}
	srv, err := telemetry.StartServer(o.addr, o.tel, health)
	if err != nil {
		return err
	}
	o.srv = srv
	fmt.Println("metrics on http://" + srv.Addr())
	return nil
}

// wait keeps the metrics endpoint up for the linger window after a
// completed run, so scrapes and health probes can read the final
// counters before the process exits.
func (o *obs) wait(ctx context.Context) {
	if o == nil || o.srv == nil || o.linger <= 0 {
		return
	}
	fmt.Printf("metrics endpoint lingering for %s\n", o.linger)
	select {
	case <-time.After(o.linger):
	case <-ctx.Done():
	}
}

// close stops the metrics endpoint.
func (o *obs) close() {
	if o != nil && o.srv != nil {
		o.srv.Close()
	}
}

// pipelineErr strips the expected cancellation from a pipeline
// shutdown (stream mode cancels the context to end the NetSource).
func pipelineErr(err error) error {
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// runDemo spins up an in-process aggregator and three nodes along a
// lane; a simulated car carrying payload 1001 passes each node in
// turn, and the aggregator fuses the detections into a track.
func runDemo(ctx context.Context) error {
	agg := rxnet.NewAggregator(rxnet.AggregatorOptions{Logf: rxnet.StdLogf, TrackGap: time.Minute})
	addr, err := agg.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer agg.Close()
	fmt.Println("demo aggregator on", addr)

	const payload = "1001"
	positions := []float64{0, 25, 50} // poles every 25 m
	passTimes := []time.Duration{0, 5 * time.Second, 10 * time.Second}
	base := time.Now()
	for i, x := range positions {
		if err := ctx.Err(); err != nil {
			return err
		}
		node, err := rxnet.Dial(ctx, addr, rxnet.Hello{
			NodeID: uint32(i + 1),
			PosX:   x,
			Height: 0.75,
			Name:   fmt.Sprintf("pole-%d", i+1),
		})
		if err != nil {
			return err
		}
		det, err := observe(ctx, payload, int64(i+1))
		if err != nil {
			node.Close()
			return err
		}
		// Stamp the detection with the (simulated) time the car
		// passed this pole: 25 m apart at 5 m/s.
		det.Time = base.Add(passTimes[i])
		if err := node.Publish(det); err != nil {
			node.Close()
			return err
		}
		fmt.Printf("pole-%d at x=%.0f m saw %s\n", i+1, x, rxnet.BitsString(det.Bits))
		node.Close()
	}
	tracks := agg.Tracks()
	if len(tracks) == 0 {
		return fmt.Errorf("no track fused")
	}
	t := tracks[len(tracks)-1]
	fmt.Printf("fused track: object=%s speed=%.2f m/s (expected 5.00) across %d receivers\n",
		rxnet.BitsString(t.ObjectBits), t.SpeedMS, t.Confirmations)
	return nil
}
