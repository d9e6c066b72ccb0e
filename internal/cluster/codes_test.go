package cluster

import (
	"bytes"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"passivelight/internal/rxnet"
)

// oldEngine is a raw-TCP engine that predates code frames: it records
// every frame it reads, never writes (so it never answers a Hello),
// and closes the connection on a frame type it does not know.
type oldEngine struct {
	id string
	ln net.Listener

	mu      sync.Mutex
	frames  []oldFrame
	unknown int
	conns   []net.Conn
}

type oldFrame struct {
	t    rxnet.FrameType
	body []byte
}

func startOldEngine(t *testing.T, id string) *oldEngine {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := &oldEngine{id: id, ln: ln}
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

func (e *oldEngine) serve(c net.Conn) {
	defer c.Close()
	for {
		ft, body, err := rxnet.ReadFrame(c)
		if err != nil {
			return
		}
		e.mu.Lock()
		if ft > rxnet.FrameSampleReplay {
			e.unknown++
			e.mu.Unlock()
			return
		}
		e.frames = append(e.frames, oldFrame{ft, body})
		e.mu.Unlock()
	}
}

// crash kills the engine: its listener and every connection.
func (e *oldEngine) crash() {
	e.ln.Close()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.conns {
		c.Close()
	}
}

// chunks returns the sample-chunk frames the engine has read.
func (e *oldEngine) chunks() []oldFrame {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []oldFrame
	for _, f := range e.frames {
		if f.t == rxnet.FrameSampleChunk || f.t == rxnet.FrameSampleReplay {
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

// Behind a new router, an engine that never answers a Hello receives
// only float64 frames — live chunks and, after its peer crashes, the
// failover replay — even though the node sent code frames and the
// router keeps them as codes. Each one is byte for byte the float64
// frame of the chunk the node sent.
func TestRouterSendsOldEngineOnlyFloatFrames(t *testing.T) {
	a := startOldEngine(t, "engine-a")
	b := startOldEngine(t, "engine-b")
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
	if err := rxnet.WriteFrame(node, rxnet.FrameHello, rxnet.AskCodes(hello)); err != nil {
		t.Fatal(err)
	}
	node.SetReadDeadline(time.Now().Add(5 * time.Second))
	if ft, _, err := rxnet.ReadFrame(node); err != nil || ft != rxnet.FrameCodesOK {
		t.Fatalf("router answered the hello with frame type %d (%v), want FrameCodesOK", ft, err)
	}
	sid := streamOwnedBy(t, ring, 5, a.id, map[uint32]bool{})
	key := uint64(5)<<32 | uint64(sid)
	var sent [][]byte
	send := func(seq uint32) {
		t.Helper()
		body := codeChunk(t, 5, sid, seq)
		sent = append(sent, body)
		if err := rxnet.WriteFrame(node, rxnet.FrameCodeChunk, rxnet.CodeBody(body)); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint32(1); seq <= 3; seq++ {
		send(seq)
	}
	waitFor(t, "three chunks on engine-a", func() bool { return len(a.chunks()) == 3 })

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
	waitFor(t, "the failover replay on engine-b", func() bool { return len(b.chunks()) == 4 })

	wantTypes := []rxnet.FrameType{rxnet.FrameSampleReplay, rxnet.FrameSampleReplay, rxnet.FrameSampleReplay, rxnet.FrameSampleChunk}
	for i, f := range b.chunks() {
		if f.t != wantTypes[i] || !bytes.Equal(f.body, sent[i]) {
			t.Errorf("engine-b frame %d: type %d, %d bytes; want type %d with the %d-byte float64 body", i, f.t, len(f.body), wantTypes[i], len(sent[i]))
		}
	}
	for i, f := range a.chunks() {
		if f.t != rxnet.FrameSampleChunk || !bytes.Equal(f.body, sent[i]) {
			t.Errorf("engine-a frame %d: type %d, %d bytes; want the float64 chunk", i, f.t, len(f.body))
		}
	}
	for _, e := range []*oldEngine{a, b} {
		e.mu.Lock()
		unknown := e.unknown
		e.mu.Unlock()
		if unknown != 0 {
			t.Errorf("%s read %d frames of a type it does not know", e.id, unknown)
		}
	}
}

// Each replay entry costs the bytes it stores, and both the byte bound
// and the pl_cluster_replay_bytes gauge count them: a 512-sample chunk
// of codes keeps 1054 bytes, any other chunk its 4126-byte float64
// body. At 1 kHz the default 1 MiB bound therefore holds 509 s of a
// code stream and 130 s of a float64 one.
func TestReplayEntriesCountStoredBytes(t *testing.T) {
	e := startOldEngine(t, "engine")
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
