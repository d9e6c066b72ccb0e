package passivelight

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"passivelight/internal/cluster"
	"passivelight/internal/rxnet"
	"passivelight/internal/scenario"
)

// frameProxy relays one cluster router's engine connection to an
// engine, counting the frames the router sends by type. With old set
// it swallows the engine's FrameCodesOK answers, so the router sees an
// engine that predates code frames.
type frameProxy struct {
	ln  net.Listener
	old bool

	mu      sync.Mutex
	types   map[rxnet.FrameType]int
	answers int // FrameCodesOK frames the engine sent
}

func startFrameProxy(t *testing.T, engine string, old bool) *frameProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameProxy{ln: ln, old: old, types: map[rxnet.FrameType]int{}}
	go func() {
		for {
			up, err := ln.Accept()
			if err != nil {
				return
			}
			down, err := net.Dial("tcp", engine)
			if err != nil {
				up.Close()
				continue
			}
			go p.relay(up, down, true)
			go p.relay(down, up, false)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return p
}

// relay copies frames from src to dst until either side fails;
// toEngine marks the router-to-engine direction.
func (p *frameProxy) relay(src, dst net.Conn, toEngine bool) {
	defer src.Close()
	defer dst.Close()
	for {
		ft, body, err := rxnet.ReadFrame(src)
		if err != nil {
			return
		}
		p.mu.Lock()
		if toEngine {
			p.types[ft]++
		} else if ft == rxnet.FrameCodesOK {
			p.answers++
		}
		p.mu.Unlock()
		if !toEngine && p.old && ft == rxnet.FrameCodesOK {
			continue
		}
		if err := rxnet.WriteFrame(dst, ft, body); err != nil {
			return
		}
	}
}

// count reports the frames of type ft the router sent.
func (p *frameProxy) count(ft rxnet.FrameType) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.types[ft]
}

// answered reports the engine's FrameCodesOK answers.
func (p *frameProxy) answered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.answers
}

// routedEvent is the part of a decode event both frame widths must
// reproduce exactly.
type routedEvent struct {
	session    uint64
	start, end int64
	bits, err  string
}

// decodeRouted streams fleet-load sessions from an old sender — raw
// float64 frames, never reading its connection, as perfbench's
// generators do, and closing it as soon as it is done — through a cluster router and a frame proxy into a
// NetSource pipeline, and returns the decode events once every stream
// has been released.
func decodeRouted(t *testing.T, specs []scenario.Spec, old bool) ([]routedEvent, *frameProxy) {
	t.Helper()
	src, err := ListenSourceConfig("127.0.0.1:0", NetSourceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var ended atomic.Int64
	pipe, err := NewPipeline(src, Threshold(),
		WithExpectedSymbols(8),
		WithIdleTimeout(time.Second),
		WithSessionEnd(func(uint64, SessionStats, string) { ended.Add(1) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := pipe.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []routedEvent
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			re := routedEvent{session: ev.Session, start: ev.Start, end: ev.End, bits: ev.BitString()}
			if ev.Err != nil {
				re.err = ev.Err.Error()
			}
			mu.Lock()
			got = append(got, re)
			mu.Unlock()
		}
	}()

	proxy := startFrameProxy(t, src.Addr(), old)
	ring, err := cluster.NewRing(0, cluster.Member{ID: "engine", Addr: proxy.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Ring: ring, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	addr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	sender, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	for k, spec := range specs {
		hello, err := rxnet.MarshalHello(rxnet.Hello{NodeID: uint32(k + 1), Name: spec.Name})
		if err != nil {
			t.Fatal(err)
		}
		if err := rxnet.WriteFrame(sender, rxnet.FrameHello, hello); err != nil {
			t.Fatal(err)
		}
	}
	// Stream once the engine has answered the hellos the router passed
	// on, so the router knows which frames it takes before the first
	// chunk arrives.
	deadline := time.Now().Add(5 * time.Second)
	for proxy.answered() < len(specs) {
		if time.Now().After(deadline) {
			t.Fatalf("engine answered %d of %d hellos", proxy.answered(), len(specs))
		}
		time.Sleep(time.Millisecond)
	}
	streams := 0
	for k, spec := range specs {
		world, err := spec.CompileMulti()
		if err != nil {
			t.Fatal(err)
		}
		node := uint32(k + 1)
		for _, l := range world.Links {
			tr, err := l.Link.Simulate()
			if err != nil {
				t.Fatalf("link %s: %v", l.Name, err)
			}
			streams++
			var seq uint32
			var start uint64
			for chunk := range tr.Chunks(512) {
				seq++
				body, err := rxnet.MarshalSampleChunk(rxnet.SampleChunk{
					NodeID: node, StreamID: uint32(l.Index), Seq: seq, Fs: tr.Fs, Start: start, Samples: chunk,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := rxnet.WriteFrame(sender, rxnet.FrameSampleChunk, body); err != nil {
					t.Fatal(err)
				}
				start += uint64(len(chunk))
			}
		}
	}
	// The sender hangs up at once, as a sender that never reads may.
	sender.Close()
	deadline = time.Now().Add(60 * time.Second)
	for ended.Load() < int64(streams) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d streams released", ended.Load(), streams)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-done
	sort.Slice(got, func(i, j int) bool {
		if got[i].session != got[j].session {
			return got[i].session < got[j].session
		}
		return got[i].start < got[j].start
	})
	return got, proxy
}

// The same fleet-load passes decode to identical events whether the
// router hands the engine 2-byte code frames (the engine answered the
// router's Hellos) or float64 frames (an engine that never answers),
// and a sender that predates code frames decodes unchanged either way.
func TestRoutedDecodeIdenticalForCodeAndFloatFrames(t *testing.T) {
	load, err := scenario.GetLoad("fleet-load")
	if err != nil {
		t.Fatal(err)
	}
	load.Sessions = 8
	specs, err := load.Expand()
	if err != nil {
		t.Fatal(err)
	}
	codes, viaCodes := decodeRouted(t, specs, false)
	floats, viaFloats := decodeRouted(t, specs, true)

	if n := viaCodes.count(rxnet.FrameSampleChunk); n != 0 || viaCodes.count(rxnet.FrameCodeChunk) == 0 {
		t.Fatalf("answering engine got %d float64 and %d code chunks, want code frames only",
			n, viaCodes.count(rxnet.FrameCodeChunk))
	}
	if n := viaFloats.count(rxnet.FrameCodeChunk) + viaFloats.count(rxnet.FrameCodeReplay); n != 0 {
		t.Fatalf("engine that never answers got %d code frames", n)
	}
	decoded := 0
	for _, ev := range codes {
		if ev.err == "" {
			decoded++
		}
	}
	if decoded < len(specs) {
		t.Fatalf("decoded %d packets from %d sessions", decoded, len(specs))
	}
	if fmt.Sprint(codes) != fmt.Sprint(floats) {
		t.Fatalf("events differ between frame widths:\ncodes:   %v\nfloat64: %v", codes, floats)
	}
}
