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

// frameStub is a raw-TCP receiver that records every frame it reads.
// With answer set it answers each Hello that asks with FrameCodesOK,
// as a ChunkListener does; otherwise it never writes, like a receiver
// that predates code frames.
type frameStub struct {
	ln     net.Listener
	answer bool

	mu     sync.Mutex
	frames []stubFrame
	conns  []net.Conn
}

type stubFrame struct {
	t    FrameType
	body []byte
}

func startFrameStub(t *testing.T, answer bool) *frameStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &frameStub{ln: ln, answer: answer}
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
		if ft == FrameHello && s.answer && AsksCodes(body) {
			if err := WriteFrame(c, FrameCodesOK, nil); err != nil {
				return
			}
		}
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

// waitCodesAnswered waits until the node has read its current
// server's FrameCodesOK.
func waitCodesAnswered(t *testing.T, n *Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n.mu.Lock()
		ok := n.codesGen.Load() == int64(n.gen)
		n.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("node never read the server's FrameCodesOK")
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

// A listener answers only a Hello that asks: a sender that never reads
// its connection must not be left holding an unread answer when it
// closes, since that resets the connection and drops its unsent tail.
func TestListenerAnswersOnlyHellosThatAsk(t *testing.T) {
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
	if AsksCodes(hello) || !AsksCodes(AskCodes(hello)) {
		t.Fatal("MarshalHello asks for codes, or AskCodes does not")
	}
	for _, body := range [][]byte{hello, AskCodes(hello), hello} {
		if err := WriteFrame(c, FrameHello, body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		<-l.Hellos()
	}
	if ft, _, err := ReadFrame(c); err != nil || ft != FrameCodesOK {
		t.Fatalf("read frame type %d (%v), want FrameCodesOK", ft, err)
	}
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if ft, _, err := ReadFrame(c); err == nil {
		t.Fatalf("listener sent frame type %d after the one answer", ft)
	}
}

// A reliable node facing a server that never answers its Hello — an
// old router or listener — sends every chunk as a float64 frame, byte
// for byte what MarshalSampleChunk makes, even when its samples are
// all codes.
func TestNodeSendsFloatToSilentServer(t *testing.T) {
	stub := startFrameStub(t, false)
	node := dialNode(t, stub.addr(), pole4, RedialConfig{})
	samples := codeSamples(512, false)
	for i := 0; i < 3; i++ {
		if err := node.StreamChunk(1, 1000, samples); err != nil {
			t.Fatal(err)
		}
	}
	frames := stub.waitFrames(t, 4)
	if frames[0].t != FrameHello {
		t.Fatalf("first frame type %d, want FrameHello", frames[0].t)
	}
	for i, f := range frames[1:] {
		want := MarshalOrDie(t, SampleChunk{NodeID: 4, StreamID: 1, Seq: uint32(i + 1), Fs: 1000, Start: uint64(i * 512), Samples: samples})
		if f.t != FrameSampleChunk || !bytes.Equal(f.body, want) {
			t.Fatalf("chunk %d went as frame type %d (%d bytes), want the %d-byte float64 frame", i+1, f.t, len(f.body), len(want))
		}
	}
}

// Once its server has answered the Hello, a node sends chunks of codes
// as 2-byte code frames and any other chunk as float64; the listener
// decodes both to the samples sent, and its ingest counter sees the
// bytes on the wire.
func TestNodeSendsCodesAfterAnswer(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	node := dialNode(t, l.Addr(), pole4, RedialConfig{})
	waitCodesAnswered(t, node)

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

// A node that redials with a tail of codes stored resends it as
// float64 SampleReplay frames: the fresh connection's server has not
// answered the Hello yet, and may never.
func TestNodeResendsCodeTailAsFloat(t *testing.T) {
	primary := startFrameStub(t, true)
	standby := startFrameStub(t, false)
	node := dialNode(t, primary.addr(), pole4, RedialConfig{
		Addrs:       []string{standby.addr()},
		Backoff:     Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxDowntime: 10 * time.Second,
	})
	waitCodesAnswered(t, node)
	samples := codeSamples(512, false)
	for i := 0; i < 3; i++ {
		if err := node.StreamChunk(1, 1000, samples); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range primary.waitFrames(t, 4)[1:] {
		if f.t != FrameCodeChunk {
			t.Fatalf("live chunk %d went as frame type %d after the answer, want FrameCodeChunk", i+1, f.t)
		}
	}

	primary.close()
	frames := standby.waitFrames(t, 4)
	if frames[0].t != FrameHello {
		t.Fatalf("standby's first frame type %d, want FrameHello", frames[0].t)
	}
	for i, f := range frames[1:] {
		want := MarshalOrDie(t, SampleChunk{NodeID: 4, StreamID: 1, Seq: uint32(i + 1), Fs: 1000, Start: uint64(i * 512), Samples: samples})
		if f.t != FrameSampleReplay || !bytes.Equal(f.body, want) {
			t.Fatalf("resent chunk %d went as frame type %d (%d bytes), want the %d-byte float64 replay", i+1, f.t, len(f.body), len(want))
		}
	}
	if got := node.Resent(); got != 3 {
		t.Fatalf("node resent %d chunks, want 3", got)
	}
}

// resendBytes bounds the bytes a stream's tail stores: a 512-sample
// chunk of codes costs 1054 bytes, any other 4126. At 1 kHz its
// 256 KiB therefore hold 127 s of a code stream and 32 s of a float64
// one. A single-address node keeps the tail too.
func TestResendTailCountsStoredBytes(t *testing.T) {
	stub := startFrameStub(t, false)
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
