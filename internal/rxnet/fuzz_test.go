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
	// Code chunks: a well-formed one and a replay, then the shapes the
	// parser must reject or read at the other width — a code count
	// above MaxChunkSamples, a body cut short of its codes, a float64
	// body framed as codes and a code body framed as float64.
	ft, code, _ := encodeSampleChunk(SampleChunk{
		NodeID: 7, StreamID: 1, Seq: 1, Fs: 1000, Samples: []float64{0, 1023, 65535},
	})
	if ft != FrameCodeChunk {
		f.Fatalf("integer samples encoded as frame type %d", ft)
	}
	f.Add(frameBytes(FrameCodeChunk, code))
	f.Add(frameBytes(FrameCodeReplay, code))
	hugeCode := append([]byte(nil), code...)
	binary.BigEndian.PutUint16(hugeCode[28:30], MaxChunkSamples+1)
	f.Add(frameBytes(FrameCodeChunk, hugeCode))
	f.Add(frameBytes(FrameCodeChunk, code[:len(code)-1]))
	f.Add(frameBytes(FrameCodeChunk, chunk))
	f.Add(frameBytes(FrameSampleChunk, code))
	f.Add(frameBytes(FrameHello, AskCodes(hello)))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			ft, body, err := ReadFrame(r)
			if err != nil {
				return // any error ends the stream; must not panic
			}
			switch ft {
			case FrameHello:
				h, err := UnmarshalHello(body)
				if AsksCodes(body) && err != nil {
					t.Fatalf("malformed Hello %x asks for codes", body)
				}
				if err != nil {
					continue
				}
				if asked := AskCodes(body); !AsksCodes(asked) || !bytes.Equal(asked[:len(asked)-1], body[:len(asked)-1]) {
					t.Fatalf("AskCodes(%x) = %x", body, asked)
				} else if h2, err := UnmarshalHello(asked); err != nil || h2.NodeID != h.NodeID || h2.Name != h.Name {
					t.Fatalf("asking Hello parses as %+v, %v; want %+v", h2, err, h)
				}
			case FrameDetection:
				UnmarshalDetection(body) //nolint:errcheck
			case FrameAck:
				UnmarshalAck(body) //nolint:errcheck
			case FrameSampleChunk, FrameSampleReplay, FrameCodeChunk, FrameCodeReplay:
				checkSampleChunk(t, ft, body)
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

// checkSampleChunk parses a chunk body of frame type ft the way the
// listener does, into a pooled SampleBuf, and checks the buffer's
// reference count: a rejected frame must have released the buffer it
// took, an accepted one hands exactly one reference to the caller.
// The copying parse must agree with the pooled path.
func checkSampleChunk(t *testing.T, ft FrameType, body []byte) {
	var taken *SampleBuf
	c, sb, err := decodeSampleChunk(ft, body, func(n int) *SampleBuf {
		taken = getSampleBuf(n)
		return taken
	})
	want, _, werr := decodeSampleChunk(ft, body, nil)
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

// FuzzSampleEncoding checks the sender's choice of frame for any
// sample slice (8 input bytes per float64 sample, plus a sample rate):
// the chosen frame parses back to bit-identical samples, or is
// rejected exactly as the float64 frame is (NaN, Inf). A code frame is
// chosen exactly when every sample is a code, so it never carries -0
// or a fraction; a float64 frame is MarshalSampleChunk's, byte for
// byte; and the router's CodeBody and AppendSampleBody convert
// between the two bodies without loss.
func FuzzSampleEncoding(f *testing.F) {
	sampleBytes := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(sampleBytes(0, 1, 512, 1023), 1000.0)
	f.Add(sampleBytes(65535, 65536), 1000.0)
	f.Add(sampleBytes(math.Copysign(0, -1), 3), 1000.0)
	f.Add(sampleBytes(12.5, -1), 1000.0)
	f.Add(sampleBytes(math.NaN(), 2), 1000.0)
	f.Add(sampleBytes(math.Inf(1)), 1000.0)
	f.Add([]byte{}, 1000.0)
	f.Add(sampleBytes(4), -1.0)

	f.Fuzz(func(t *testing.T, raw []byte, fs float64) {
		n := min(len(raw)/8, MaxChunkSamples)
		samples := make([]float64, n)
		codes := true
		finite := true
		for i := range samples {
			v := math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
			samples[i] = v
			codes = codes && v >= 0 && v <= 65535 && v == math.Trunc(v) && !math.Signbit(v)
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		c := SampleChunk{NodeID: 3, StreamID: 4, Seq: 5, Fs: fs, Start: 6, Samples: samples}
		ft, body, err := encodeSampleChunk(c)
		floatBody, ferr := MarshalSampleChunk(c)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("encode error %v, float64 marshal error %v", err, ferr)
		}
		if err != nil {
			return
		}
		if (ft == FrameCodeChunk) != codes {
			t.Fatalf("frame type %d for samples that are codes: %v", ft, codes)
		}
		if ft == FrameSampleChunk && !bytes.Equal(body, floatBody) {
			t.Fatal("float64 frame differs from MarshalSampleChunk")
		}
		if cb := CodeBody(floatBody); (ft == FrameCodeChunk) != (cb != nil) || (cb != nil && !bytes.Equal(cb, body)) {
			t.Fatalf("CodeBody of the float64 body disagrees with the sender's choice %d", ft)
		}
		if ft == FrameCodeChunk {
			if err := CheckCodeBody(body); err != nil {
				t.Fatalf("code body rejected: %v", err)
			}
			if !bytes.Equal(AppendSampleBody(nil, body), floatBody) {
				t.Fatal("expanded code body differs from the float64 body")
			}
		}
		got, _, err := decodeSampleChunk(ft, body, nil)
		_, _, ferr = decodeSampleChunk(FrameSampleChunk, floatBody, nil)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("parse error %v, float64 frame's parse error %v", err, ferr)
		}
		if err != nil {
			if finite && fs > 0 && !math.IsInf(fs, 0) {
				t.Fatalf("finite chunk rejected: %v", err)
			}
			return
		}
		if got.NodeID != c.NodeID || got.StreamID != c.StreamID || got.Seq != c.Seq || got.Start != c.Start ||
			math.Float64bits(got.Fs) != math.Float64bits(c.Fs) || len(got.Samples) != n {
			t.Fatalf("header round-trip: got %+v", got)
		}
		for i, v := range got.Samples {
			if math.Float64bits(v) != math.Float64bits(samples[i]) {
				t.Fatalf("sample %d: sent %v (bits %x), parsed %v (bits %x)", i, samples[i], math.Float64bits(samples[i]), v, math.Float64bits(v))
			}
		}
	})
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
