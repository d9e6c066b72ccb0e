package cluster

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"passivelight/internal/rxnet"
)

// silentEngine is a raw-TCP engine that records every frame it reads
// and never writes.
type silentEngine struct {
	id string
	ln net.Listener

	mu     sync.Mutex
	frames []engineFrame
	conns  []net.Conn
}

type engineFrame struct {
	t    rxnet.FrameType
	body []byte
}

func startSilentEngine(t *testing.T, id string) *silentEngine {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := &silentEngine{id: id, ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns = append(e.conns, c)
			e.mu.Unlock()
			go e.serve(c)
		}
	}()
	t.Cleanup(e.crash)
	return e
}

func (e *silentEngine) serve(c net.Conn) {
	defer c.Close()
	for {
		ft, body, err := rxnet.ReadFrame(c)
		if err != nil {
			return
		}
		e.mu.Lock()
		e.frames = append(e.frames, engineFrame{ft, body})
		e.mu.Unlock()
	}
}

// drop closes every connection the engine has accepted but keeps
// listening, as a restarted engine on the same address would.
func (e *silentEngine) drop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.conns {
		c.Close()
	}
}

// crash kills the engine: its listener and every connection.
func (e *silentEngine) crash() {
	e.ln.Close()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.conns {
		c.Close()
	}
}

// received returns the frames of the given types the engine has read.
func (e *silentEngine) received(types ...rxnet.FrameType) []engineFrame {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []engineFrame
	for _, f := range e.frames {
		if slices.Contains(types, f.t) {
			out = append(out, f)
		}
	}
	return out
}

// codeChunk is a float64 chunk body of 512 integer ADC codes.
func codeChunk(t *testing.T, node, stream, seq uint32) []byte {
	t.Helper()
	samples := make([]float64, 512)
	for i := range samples {
		samples[i] = float64((i*7 + int(seq)) % 1024)
	}
	body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
		NodeID: node, StreamID: stream, Seq: seq,
		Fs: 1000, Start: uint64(seq-1) * 512, Samples: samples,
	})
	if err != nil {
		t.Fatalf("marshal chunk: %v", err)
	}
	return body
}

// The router answers no Hello, passes each one on unchanged (a flags
// byte earlier senders appended included), and sends a freshly dialed
// engine that never writes code frames from the first chunk: live
// chunks as FrameCodeChunk and, after that engine crashes, the
// failover replay as FrameCodeReplay, each the code body of the float64
// chunk the node sent.
func TestRouterSendsCodeFramesWithoutAnswer(t *testing.T) {
	a := startSilentEngine(t, "engine-a")
	b := startSilentEngine(t, "engine-b")
	ring, err := NewRing(0, Member{ID: a.id, Addr: a.ln.Addr().String()}, Member{ID: b.id, Addr: b.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	r, addr := startRouter(t, RouterConfig{Ring: ring})

	node, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	hello, err := rxnet.MarshalHello(rxnet.Hello{NodeID: 5, Name: "pole-5"})
	if err != nil {
		t.Fatal(err)
	}
	flagged := append(bytes.Clone(hello), 1)
	for _, body := range [][]byte{hello, flagged} {
		if err := rxnet.WriteFrame(node, rxnet.FrameHello, body); err != nil {
			t.Fatal(err)
		}
	}
	sid := streamOwnedBy(t, ring, 5, a.id, map[uint32]bool{})
	key := uint64(5)<<32 | uint64(sid)
	var sent [][]byte
	send := func(seq uint32) {
		t.Helper()
		body := codeChunk(t, 5, sid, seq)
		sent = append(sent, rxnet.CodeBody(body))
		if err := rxnet.WriteFrame(node, rxnet.FrameSampleChunk, body); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint32(1); seq <= 3; seq++ {
		send(seq)
	}
	chunkTypes := []rxnet.FrameType{rxnet.FrameSampleChunk, rxnet.FrameSampleReplay, rxnet.FrameCodeChunk, rxnet.FrameCodeReplay}
	waitFor(t, "three chunks on engine-a", func() bool { return len(a.received(chunkTypes...)) == 3 })
	// The first Hello dials engine-a, whose dial replays it; the second
	// goes out on the live connection.
	hellos := a.received(rxnet.FrameHello)
	if len(hellos) != 2 || !bytes.Equal(hellos[0].body, hello) || !bytes.Equal(hellos[1].body, flagged) {
		t.Errorf("engine-a read %d hellos, want the node's two bodies unchanged, once each", len(hellos))
	}

	rt, _ := r.routeFor(key)
	rt.fmu.Lock()
	for _, c := range rt.replay.Entries() {
		if !c.Codes || len(c.Body) != 1054 {
			t.Errorf("replay entry %d kept as %d bytes (codes %v), want a 1054-byte code body", c.Seq, len(c.Body), c.Codes)
		}
	}
	rt.fmu.Unlock()

	// engine-a crashes; once the router has seen its connection die,
	// the next chunk fails the stream over to engine-b, replaying the
	// unacked buffer in front of it.
	a.crash()
	waitFor(t, "the router to see engine-a down", func() bool { return r.Stats().Down == 1 })
	send(4)
	waitFor(t, "the failover replay on engine-b", func() bool { return len(b.received(chunkTypes...)) == 4 })

	wantTypes := []rxnet.FrameType{rxnet.FrameCodeReplay, rxnet.FrameCodeReplay, rxnet.FrameCodeReplay, rxnet.FrameCodeChunk}
	for i, f := range b.received(chunkTypes...) {
		if f.t != wantTypes[i] || !bytes.Equal(f.body, sent[i]) {
			t.Errorf("engine-b frame %d: type %d, %d bytes; want type %d with the %d-byte code body", i, f.t, len(f.body), wantTypes[i], len(sent[i]))
		}
	}
	for i, f := range a.received(chunkTypes...) {
		if f.t != rxnet.FrameCodeChunk || !bytes.Equal(f.body, sent[i]) {
			t.Errorf("engine-a frame %d: type %d, %d bytes; want the code chunk", i, f.t, len(f.body))
		}
	}
	node.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := node.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Errorf("router wrote to the node (%d bytes, %v)", n, err)
	}
}

// A node's Hello reaches each engine once: the Hello that makes the
// router dial an engine is not written again after the dial's replay
// of the stored Hellos, a Hello on a live connection is written once,
// and a redial replays each stored Hello once.
func TestRouterSendsEachHelloOnce(t *testing.T) {
	e := startSilentEngine(t, "engine")
	ring, err := NewRing(0, Member{ID: e.id, Addr: e.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	r, addr := startRouter(t, RouterConfig{Ring: ring, RedialBackoff: time.Millisecond})
	hellos := map[uint32][]byte{}
	nodes := map[uint32]net.Conn{}
	seq := uint32(0)
	// hello sends node's Hello, then a chunk; frames on one engine
	// connection arrive in order, so once the chunk is in, every Hello
	// sent before it is too.
	hello := func(node uint32) {
		t.Helper()
		if nodes[node] == nil {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			nodes[node] = c
		}
		body, err := rxnet.MarshalHello(rxnet.Hello{NodeID: node, Name: fmt.Sprint("pole-", node)})
		if err != nil {
			t.Fatal(err)
		}
		hellos[node] = body
		if err := rxnet.WriteFrame(nodes[node], rxnet.FrameHello, body); err != nil {
			t.Fatal(err)
		}
		seq++
		if err := rxnet.WriteFrame(nodes[node], rxnet.FrameSampleChunk, codeChunk(t, node, 1, seq)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, fmt.Sprint("chunk ", seq), func() bool { return len(e.received(rxnet.FrameCodeChunk, rxnet.FrameCodeReplay)) >= int(seq) })
	}
	nodeOf := func(body []byte) uint32 {
		h, err := rxnet.UnmarshalHello(body)
		if err != nil {
			t.Fatal(err)
		}
		return h.NodeID
	}
	expect := func(what string, from int, want ...uint32) {
		t.Helper()
		var got []uint32
		for _, f := range e.received(rxnet.FrameHello)[from:] {
			got = append(got, nodeOf(f.body))
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: engine read hellos from nodes %v, want %v", what, got, want)
		}
	}

	hello(5) // dials the engine
	expect("first hello", 0, 5)
	hello(6) // on the live connection
	expect("second node's hello", 0, 5, 6)

	e.drop()
	waitFor(t, "the router to see the engine down, past its redial backoff", func() bool {
		r.mu.Lock()
		up := r.upstreamsLocked()[0]
		r.mu.Unlock()
		return !up.connected.Load() && time.Now().UnixNano() >= up.nextDial.Load()
	})
	hello(5) // redials: the dial replays both stored Hellos
	expect("after the redial", 2, 5, 6)
	for _, f := range e.received(rxnet.FrameHello) {
		if !bytes.Equal(f.body, hellos[nodeOf(f.body)]) {
			t.Fatalf("engine read hello %x, want the node's body unchanged", f.body)
		}
	}
}

// Each replay entry costs the bytes it stores, and both the byte bound
// and the pl_cluster_replay_bytes gauge count them: a 512-sample chunk
// of codes keeps 1054 bytes, any other chunk its 4126-byte float64
// body. At 1 kHz the default 1 MiB bound therefore holds 509 s of a
// code stream and 130 s of a float64 one.
func TestReplayEntriesCountStoredBytes(t *testing.T) {
	e := startSilentEngine(t, "engine")
	ring, err := NewRing(0, Member{ID: e.id, Addr: e.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	frac := func(body []byte) []byte {
		c, err := rxnet.UnmarshalSampleChunk(body)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Samples {
			c.Samples[i] += 0.5
		}
		out, err := rxnet.MarshalSampleChunk(c)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	check := func(r *Router, key uint64, entry, kept int) {
		t.Helper()
		rt, _ := r.routeFor(key)
		rt.fmu.Lock()
		defer rt.fmu.Unlock()
		for _, c := range rt.replay.Entries() {
			if len(c.Body) != entry {
				t.Fatalf("entry %d keeps %d bytes, want %d", c.Seq, len(c.Body), entry)
			}
		}
		if len(rt.replay.Entries()) != kept || rt.replay.Bytes() != kept*entry {
			t.Fatalf("buffer keeps %d entries in %d bytes, want %d in %d", len(rt.replay.Entries()), rt.replay.Bytes(), kept, kept*entry)
		}
	}

	// A bound of three code entries evicts by stored bytes.
	r, _ := startRouter(t, RouterConfig{Ring: ring, ReplayBytes: 3 * 1054})
	const key = uint64(5)<<32 | 1
	for seq := uint32(1); seq <= 5; seq++ {
		r.forward(nil, key, kept(t, codeChunk(t, 5, 1, seq)), false)
	}
	check(r, key, 1054, 3)
	if got := r.replayEvicted.Load(); got != 2*1054 {
		t.Fatalf("evicted %d bytes, want %d", got, 2*1054)
	}
	if got := r.replayHeld.Load(); got != 3*1054 {
		t.Fatalf("replay gauge %d bytes, want %d", got, 3*1054)
	}

	// The default bound, for a code stream and for a float64 one.
	r, _ = startRouter(t, RouterConfig{Ring: ring})
	for _, tc := range []struct {
		stream             uint32
		frac               bool
		chunks, entry, max int
		seconds            float64
	}{
		{stream: 1, chunks: 1000, entry: 1054, max: 994, seconds: 509},
		{stream: 2, frac: true, chunks: 300, entry: 4126, max: 254, seconds: 130},
	} {
		key := uint64(5)<<32 | uint64(tc.stream)
		for seq := uint32(1); seq <= uint32(tc.chunks); seq++ {
			body := codeChunk(t, 5, tc.stream, seq)
			if tc.frac {
				body = frac(body)
			}
			r.forward(nil, key, kept(t, body), false)
		}
		check(r, key, tc.entry, tc.max)
		if s := float64(tc.max*512) / 1000; math.Round(s) != tc.seconds {
			t.Fatalf("the default bound holds %.1f s of stream, want %.0f s", s, tc.seconds)
		}
	}
}
