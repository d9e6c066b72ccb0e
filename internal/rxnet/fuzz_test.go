package rxnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// frameBytes assembles a raw frame for the seed corpus without going
// through WriteFrame's validation.
func frameBytes(t FrameType, body []byte) []byte {
	b := []byte{MagicByte, Version, byte(t), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(b[3:7], uint32(len(body)))
	return append(b, body...)
}

// FuzzParseFrame drives the full wire-parsing surface with arbitrary
// bytes: framing (ReadFrame) and every per-type unmarshal, with sample
// chunks going through the listener's pooled parser. The
// invariant is the cluster's byzantine-input contract — malformed
// frames must return errors; they must never panic, hang, or
// allocate unboundedly (length fields are validated before use).
func FuzzParseFrame(f *testing.F) {
	// Well-formed frames so the fuzzer starts inside the grammar.
	hello, _ := MarshalHello(Hello{NodeID: 7, Name: "rx-7", PosX: 12.5, Height: 2})
	f.Add(frameBytes(FrameHello, hello))
	chunk, _ := MarshalSampleChunk(SampleChunk{
		NodeID: 7, StreamID: 1, Seq: 1, Fs: 1000, Samples: []float64{0.5, -0.5},
	})
	f.Add(frameBytes(FrameSampleChunk, chunk))
	eh, _ := MarshalEngineHello(EngineHello{ID: "engine-a", Addr: "127.0.0.1:9"})
	f.Add(frameBytes(FrameEngineHello, eh))
	ru, _ := MarshalRingUpdate(RingUpdate{Epoch: 3, Members: []RingMember{{ID: "a", Addr: "x:1"}}})
	f.Add(frameBytes(FrameRingUpdate, ru))
	f.Add(frameBytes(FrameStreamEnd, MarshalStreamEnd(StreamEnd{Session: 99})))
	f.Add(frameBytes(FrameStreamNack, MarshalStreamNack(StreamNack{Session: 99, LastSeq: 4})))
	f.Add(frameBytes(FrameStreamAck, MarshalStreamAck(StreamAck{Session: 99, LastSeq: 4})))
	f.Add(frameBytes(FrameDrain, MarshalDrain(Drain{Draining: true})))
	f.Add(frameBytes(FrameThrottle, MarshalThrottle(Throttle{Paused: true})))
	// Malformed shapes: truncated bodies, bad magic, huge length.
	f.Add(frameBytes(FrameDrain, nil))
	f.Add(frameBytes(FrameStreamNack, []byte{1, 2, 3}))
	f.Add(frameBytes(FrameStreamEnd, []byte{0}))
	f.Add([]byte{0xFF, Version, byte(FrameHello), 0, 0, 0, 0})
	f.Add([]byte{MagicByte, Version, byte(FrameHello), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{MagicByte})
	// Sample chunks the parser must reject: a NaN and an Inf sample, a
	// sample count above MaxChunkSamples, and a body cut short of its
	// declared samples.
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		c := append([]byte(nil), chunk...)
		binary.BigEndian.PutUint64(c[len(c)-8:], math.Float64bits(bad))
		f.Add(frameBytes(FrameSampleChunk, c))
	}
	huge := append([]byte(nil), chunk...)
	binary.BigEndian.PutUint16(huge[28:30], MaxChunkSamples+1)
	f.Add(frameBytes(FrameSampleChunk, huge))
	f.Add(frameBytes(FrameSampleChunk, chunk[:len(chunk)-3]))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			ft, body, err := ReadFrame(r)
			if err != nil {
				return // any error ends the stream; must not panic
			}
			switch ft {
			case FrameHello:
				UnmarshalHello(body) //nolint:errcheck
			case FrameDetection:
				UnmarshalDetection(body) //nolint:errcheck
			case FrameAck:
				UnmarshalAck(body) //nolint:errcheck
			case FrameSampleChunk, FrameSampleReplay:
				checkSampleChunk(t, body)
			case FrameStreamEnd:
				UnmarshalStreamEnd(body) //nolint:errcheck
			case FrameStreamNack:
				UnmarshalStreamNack(body) //nolint:errcheck
			case FrameStreamAck:
				UnmarshalStreamAck(body) //nolint:errcheck
			case FrameDrain, FrameDrainRequest:
				UnmarshalDrain(body) //nolint:errcheck
			case FrameEngineHello:
				UnmarshalEngineHello(body) //nolint:errcheck
			case FrameRingUpdate:
				UnmarshalRingUpdate(body) //nolint:errcheck
			case FrameThrottle:
				UnmarshalThrottle(body) //nolint:errcheck
			}
		}
	})
}

// checkSampleChunk parses body the way the listener does, into a
// pooled SampleBuf, and checks the buffer's reference count: a
// rejected frame must have released the buffer it took, an accepted
// one hands exactly one reference to the caller. The copying
// UnmarshalSampleChunk must agree with the pooled path.
func checkSampleChunk(t *testing.T, body []byte) {
	var taken *SampleBuf
	c, sb, err := decodeSampleChunk(body, func(n int) *SampleBuf {
		taken = getSampleBuf(n)
		return taken
	})
	want, werr := UnmarshalSampleChunk(body)
	if (err == nil) != (werr == nil) {
		t.Fatalf("pooled parse error %v, copying parse error %v", err, werr)
	}
	if err != nil {
		if sb != nil {
			t.Fatal("rejected chunk returned a SampleBuf")
		}
		if taken != nil && taken.refs.Load() != 0 {
			t.Fatalf("rejected chunk left %d SampleBuf references outstanding", taken.refs.Load())
		}
		return
	}
	if sb != taken || sb.refs.Load() != 1 {
		t.Fatalf("accepted chunk: buffer %p (took %p) with %d references, want one", sb, taken, sb.refs.Load())
	}
	if len(c.Samples) != len(want.Samples) {
		t.Fatalf("pooled parse read %d samples, copying parse %d", len(c.Samples), len(want.Samples))
	}
	for i := range c.Samples {
		if math.Float64bits(c.Samples[i]) != math.Float64bits(want.Samples[i]) {
			t.Fatalf("sample %d: pooled %v, copying %v", i, c.Samples[i], want.Samples[i])
		}
	}
	sb.Release()
}

// FuzzChunkCursor drives the stream-continuity rule with arbitrary
// cursor state and chunks, including Seq wraparound and Start values
// near the top of the uint64 range.
func FuzzChunkCursor(f *testing.F) {
	f.Add(uint32(3), uint64(300), uint32(4), uint64(300), uint16(100), false)
	f.Add(uint32(5), uint64(500), uint32(1), uint64(0), uint16(100), true)
	f.Add(uint32(5), uint64(500), uint32(1), uint64(0), uint16(100), false)
	f.Add(uint32(5), uint64(500), uint32(3), uint64(200), uint16(100), false)
	f.Add(uint32(5), uint64(500), uint32(7), uint64(700), uint16(100), true)
	f.Add(uint32(0xFFFFFFFF), uint64(1000), uint32(0), uint64(1000), uint16(100), false)

	f.Fuzz(func(t *testing.T, seq uint32, next uint64, cSeq uint32, cStart uint64, n uint16, replay bool) {
		c := SampleChunk{Seq: cSeq, Start: cStart, Fs: 1000, Samples: make([]float64, int(n)%(MaxChunkSamples+1))}
		end := c.Start + uint64(len(c.Samples))
		within := SeqLEq(c.Seq, seq) && end <= next
		contiguous := c.Seq == seq+1 && c.Start == next
		cur := chunkCursor{seq: seq, next: next}
		dup, reset := cur.advance(c, replay)
		if replay && within && (reset || !dup) {
			t.Fatalf("replay within the cursor: dup %v reset %v, want a duplicate", dup, reset)
		}
		if dup && (reset || cur != (chunkCursor{seq: seq, next: next})) {
			t.Fatalf("duplicate reset %v or moved the cursor to (%d, %d)", reset, cur.seq, cur.next)
		}
		if !dup && (cur.seq != c.Seq || cur.next != end) {
			t.Fatalf("accepted chunk left the cursor at (%d, %d), want (%d, %d)", cur.seq, cur.next, c.Seq, end)
		}
		if contiguous && (dup || reset) {
			t.Fatalf("contiguous chunk: dup %v reset %v", dup, reset)
		}
	})
}
