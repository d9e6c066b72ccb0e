package rxnet

import (
	"bytes"
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"passivelight/internal/telemetry"
)

// frameStub is a raw-TCP receiver that records every frame it reads
// and writes nothing unless a test writes on one of its conns.
type frameStub struct {
	ln net.Listener

	mu     sync.Mutex
	frames []stubFrame
	conns  []net.Conn
}

type stubFrame struct {
	t    FrameType
	body []byte
}

func startFrameStub(t *testing.T) *frameStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &frameStub{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			go s.serve(c)
		}
	}()
	t.Cleanup(s.close)
	return s
}

func (s *frameStub) serve(c net.Conn) {
	for {
		ft, body, err := ReadFrame(c)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.frames = append(s.frames, stubFrame{ft, body})
		s.mu.Unlock()
	}
}

func (s *frameStub) addr() string { return s.ln.Addr().String() }

// close kills the receiver: its listener and every connection.
func (s *frameStub) close() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

// waitFrames waits until the stub has read n frames and returns them.
func (s *frameStub) waitFrames(t *testing.T, n int) []stubFrame {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		got := append([]stubFrame(nil), s.frames...)
		s.mu.Unlock()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("stub read %d of %d frames", len(got), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// codeSamples is n integer ADC codes; with frac every sample is off
// the integer grid instead, so the chunk must travel as float64.
func codeSamples(n int, frac bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*37 + 11) % 1024)
		if frac {
			out[i] += 0.5
		}
	}
	return out
}

// waitTailLen waits until the node's resend tail of stream holds n
// entries and returns their Seqs.
func waitTailLen(t *testing.T, n *Node, stream uint32, want int) []uint32 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var seqs []uint32
		n.mu.Lock()
		if st := n.streams[stream]; st != nil {
			for _, e := range st.tail.Entries() {
				seqs = append(seqs, e.Seq)
			}
		}
		n.mu.Unlock()
		if len(seqs) == want {
			return seqs
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream %d tail holds Seqs %v, want %d entries", stream, seqs, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pole4 is the hello of the node the code-frame and failover tests dial.
var pole4 = Hello{NodeID: 4, Name: "pole-4"}

// dialNode dials a streaming node that logs to the test and closes
// with it.
func dialNode(t *testing.T, addr string, hello Hello, cfg RedialConfig) *Node {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	cfg.Logf = t.Logf
	n, err := DialReliable(ctx, addr, hello, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// A listener never answers a Hello, with or without the flags byte
// earlier senders appended to it: a sender that never reads its
// connection must not be left holding unread bytes when it closes,
// since that resets the connection and drops its unsent tail.
func TestListenerSendsNoHelloAnswer(t *testing.T) {
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello, err := MarshalHello(Hello{NodeID: 9, Name: "pole-9"})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{hello, append(bytes.Clone(hello), 1), hello} {
		if err := WriteFrame(c, FrameHello, body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if h := <-l.Hellos(); h.NodeID != 9 || h.Name != "pole-9" {
			t.Fatalf("hello %d registered as %+v", i, h)
		}
	}
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("listener answered the hellos (%d bytes, %v)", n, err)
	}
}

// A node picks each chunk's frame from its samples alone, from the
// first chunk on a connection and with no answer awaited: a chunk of
// codes goes as a code frame and any other as MarshalSampleChunk's
// float64 frame, byte for byte, to a server that never writes. Its
// Hello is MarshalHello's body, with nothing appended.
func TestNodeSendsCodesToSilentServer(t *testing.T) {
	stub := startFrameStub(t)
	node := dialNode(t, stub.addr(), pole4, RedialConfig{})
	var want []stubFrame
	for i, frac := range []bool{false, false, true, false} {
		c := SampleChunk{NodeID: 4, StreamID: 1, Seq: uint32(i + 1), Fs: 1000, Start: uint64(i * 512), Samples: codeSamples(512, frac)}
		ft, body, err := encodeSampleChunk(c)
		if err != nil {
			t.Fatal(err)
		}
		if frac != (ft == FrameSampleChunk) || (frac && !bytes.Equal(body, MarshalOrDie(t, c))) {
			t.Fatalf("chunk %d (frac %v) encodes as frame type %d", i+1, frac, ft)
		}
		want = append(want, stubFrame{ft, body})
		if err := node.StreamChunk(1, 1000, c.Samples); err != nil {
			t.Fatal(err)
		}
	}
	frames := stub.waitFrames(t, 5)
	if hello, _ := MarshalHello(pole4); frames[0].t != FrameHello || !bytes.Equal(frames[0].body, hello) {
		t.Fatalf("first frame type %d body %x, want the plain Hello %x", frames[0].t, frames[0].body, hello)
	}
	for i, f := range frames[1:] {
		if f.t != want[i].t || !bytes.Equal(f.body, want[i].body) {
			t.Fatalf("chunk %d went as frame type %d (%d bytes), want type %d (%d bytes)", i+1, f.t, len(f.body), want[i].t, len(want[i].body))
		}
	}
}

// A listener decodes a node's code frames and float64 frames to the
// samples sent, and its ingest counter sees the bytes on the wire:
// 1054 for a 512-sample chunk of codes, 4126 for any other.
func TestNodeSendsCodesToListener(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	node := dialNode(t, l.Addr(), pole4, RedialConfig{})

	ingest := func() int64 { return reg.Snapshot().Counters[`pl_rxnet_ingest_bytes_total{node="4"}`] }
	for _, frac := range []bool{false, true} {
		samples := codeSamples(512, frac)
		before := ingest()
		if err := node.StreamChunk(1, 1000, samples); err != nil {
			t.Fatal(err)
		}
		ev := collectChunks(t, l, 1)[0]
		if len(ev.Samples) != len(samples) {
			t.Fatalf("frac=%v: delivered %d samples, want %d", frac, len(ev.Samples), len(samples))
		}
		for i, v := range ev.Samples {
			if v != samples[i] {
				t.Fatalf("frac=%v: sample %d = %v, sent %v", frac, i, v, samples[i])
			}
		}
		ev.Buf.Release()
		want := int64(1054)
		if frac {
			want = 4126
		}
		if got := ingest() - before; got != want {
			t.Fatalf("frac=%v: chunk cost %d ingest bytes, want %d", frac, got, want)
		}
	}
}

// A node resends a tail of codes as code replay frames, the stored
// bodies byte for byte: past the Seq a server's StreamNack names, and
// after a redial, ahead of any live chunk on the fresh connection.
func TestNodeResendsCodeTailAsCodes(t *testing.T) {
	primary := startFrameStub(t)
	standby := startFrameStub(t)
	node := dialNode(t, primary.addr(), pole4, RedialConfig{
		Addrs:       []string{standby.addr()},
		Backoff:     Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxDowntime: 10 * time.Second,
	})
	samples := codeSamples(512, false)
	for i := 0; i < 3; i++ {
		if err := node.StreamChunk(1, 1000, samples); err != nil {
			t.Fatal(err)
		}
	}
	live := primary.waitFrames(t, 4)[1:]
	for i, f := range live {
		if f.t != FrameCodeChunk {
			t.Fatalf("live chunk %d went as frame type %d, want FrameCodeChunk", i+1, f.t)
		}
	}
	primary.mu.Lock()
	c := primary.conns[0]
	primary.mu.Unlock()
	if err := WriteFrame(c, FrameStreamNack, MarshalStreamNack(StreamNack{Session: uint64(4)<<32 | 1, LastSeq: 1})); err != nil {
		t.Fatal(err)
	}
	for i, f := range primary.waitFrames(t, 6)[4:] {
		if f.t != FrameCodeReplay || !bytes.Equal(f.body, live[i+1].body) {
			t.Fatalf("NACK resend %d went as frame type %d (%d bytes), want the %d-byte code replay", i+2, f.t, len(f.body), len(live[i+1].body))
		}
	}

	primary.close()
	frames := standby.waitFrames(t, 4)
	if frames[0].t != FrameHello {
		t.Fatalf("standby's first frame type %d, want FrameHello", frames[0].t)
	}
	for i, f := range frames[1:] {
		if f.t != FrameCodeReplay || !bytes.Equal(f.body, live[i].body) {
			t.Fatalf("resent chunk %d went as frame type %d (%d bytes), want the %d-byte code replay", i+1, f.t, len(f.body), len(live[i].body))
		}
	}
	if got := node.Resent(); got != 5 {
		t.Fatalf("node resent %d chunks, want 5", got)
	}
}

// A StreamAck trims the node's resend tail through the acked Seq, so a
// later reconnect resends only what the server has not consumed. The
// listener acks each delivered chunk through its Epoch and Seq; an ack
// that names another node's stream trims nothing.
func TestNodeTrimsTailOnStreamAck(t *testing.T) {
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	node := dialNode(t, l.Addr(), pole4, RedialConfig{})
	// Acks land while the node is still streaming: the control reader
	// trims the tail the writer appends to.
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		for i := 0; i < 10; i++ {
			if err := node.StreamChunk(1, 1000, codeSamples(512, false)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	key := uint64(pole4.NodeID)<<32 | 1
	var last ChunkEvent
	for _, ev := range collectChunks(t, l, 10) {
		l.AckThrough(key, ev.Epoch, ev.Seq)
		ev.Buf.Release()
		last = ev
	}
	<-streamed
	if !l.AckThrough(key, last.Epoch, last.Seq) {
		t.Fatal("listener did not ack the session")
	}
	waitTailLen(t, node, 1, 0)

	stub := startFrameStub(t)
	other := dialNode(t, stub.addr(), pole4, RedialConfig{})
	for i := 0; i < 3; i++ {
		if err := other.StreamChunk(1, 1000, codeSamples(64, false)); err != nil {
			t.Fatal(err)
		}
	}
	stub.waitFrames(t, 4)
	stub.mu.Lock()
	c := stub.conns[0]
	stub.mu.Unlock()
	for _, a := range []StreamAck{{Session: uint64(5)<<32 | 1, LastSeq: 3}, {Session: uint64(4)<<32 | 1, LastSeq: 2}} {
		if err := WriteFrame(c, FrameStreamAck, MarshalStreamAck(a)); err != nil {
			t.Fatal(err)
		}
	}
	if seqs := waitTailLen(t, other, 1, 1); seqs[0] != 3 {
		t.Fatalf("tail keeps Seq %d after the ack through 2, want 3", seqs[0])
	}
}

// resendBytes bounds the bytes a stream's tail stores: a 512-sample
// chunk of codes costs 1054 bytes, any other 4126. At 1 kHz its
// 256 KiB therefore hold 127 s of a code stream and 32 s of a float64
// one. A single-address node keeps the tail too.
func TestResendTailCountsStoredBytes(t *testing.T) {
	stub := startFrameStub(t)
	node := dialNode(t, stub.addr(), pole4, RedialConfig{})
	for stream, tc := range []struct {
		frac         bool
		entry, kept  int
		heldSeconds  float64
		streamChunks int
	}{
		{frac: false, entry: 1054, kept: 248, heldSeconds: 127, streamChunks: 300},
		{frac: true, entry: 4126, kept: 63, heldSeconds: 32, streamChunks: 100},
	} {
		samples := codeSamples(512, tc.frac)
		for i := 0; i < tc.streamChunks; i++ {
			if err := node.StreamChunk(uint32(stream), 1000, samples); err != nil {
				t.Fatal(err)
			}
		}
		node.mu.Lock()
		st := node.streams[uint32(stream)]
		saved, held := append([]ReplayEntry(nil), st.tail.Entries()...), st.tail.Bytes()
		node.mu.Unlock()
		for _, sb := range saved {
			if len(sb.Body) != tc.entry || sb.Codes == tc.frac {
				t.Fatalf("frac=%v: entry of %d bytes (codes %v), want %d", tc.frac, len(sb.Body), sb.Codes, tc.entry)
			}
		}
		if len(saved) != tc.kept || held != tc.kept*tc.entry || held > resendBytes {
			t.Fatalf("frac=%v: tail keeps %d chunks in %d bytes, want %d in %d", tc.frac, len(saved), held, tc.kept, tc.kept*tc.entry)
		}
		if s := float64(len(saved)*512) / 1000; math.Round(s) != tc.heldSeconds {
			t.Fatalf("frac=%v: tail holds %.1f s of stream, want %.0f s", tc.frac, s, tc.heldSeconds)
		}
	}
}
