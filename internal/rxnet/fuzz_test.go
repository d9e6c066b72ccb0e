package rxnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	f.Add(frameBytes(FrameHello, append(bytes.Clone(hello), 1)))

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
				if err != nil {
					continue
				}
				// Bytes past the name (such as the flags byte earlier
				// senders appended) are ignored, and the rest is exactly
				// what MarshalHello makes of the parsed Hello.
				if h2, err := UnmarshalHello(append(bytes.Clone(body), 1)); err != nil || h2.NodeID != h.NodeID || h2.Name != h.Name ||
					math.Float64bits(h2.PosX) != math.Float64bits(h.PosX) || math.Float64bits(h2.Height) != math.Float64bits(h.Height) {
					t.Fatalf("Hello %x with a byte appended parses as %+v, %v; want %+v", body, h2, err, h)
				}
				if len(h.Name) <= 64 {
					if re, err := MarshalHello(h); err != nil || !bytes.Equal(re, body[:len(re)]) {
						t.Fatalf("Hello %x re-marshals as %x, %v", body, re, err)
					}
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
// byte; and the router's CodeBody turns the float64 body into a code
// body exactly when the sender would, and that body decodes to the
// same float64 bits as the float64 body.
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
		cb := CodeBody(floatBody)
		if (ft == FrameCodeChunk) != (cb != nil) || (cb != nil && !bytes.Equal(cb, body)) {
			t.Fatalf("CodeBody of the float64 body disagrees with the sender's choice %d", ft)
		}
		if ft == FrameCodeChunk {
			if err := CheckCodeBody(body); err != nil {
				t.Fatalf("code body rejected: %v", err)
			}
		}
		got, _, err := decodeSampleChunk(ft, body, nil)
		fromFloat, _, ferr := decodeSampleChunk(FrameSampleChunk, floatBody, nil)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("parse error %v, float64 frame's parse error %v", err, ferr)
		}
		if cb != nil {
			fromCodes, _, cerr := decodeSampleChunk(FrameCodeChunk, cb, nil)
			if (cerr == nil) != (ferr == nil) {
				t.Fatalf("CodeBody parse error %v, float64 body's parse error %v", cerr, ferr)
			}
			if cerr == nil {
				checkSameChunk(t, "CodeBody", fromCodes, fromFloat)
			}
		}
		if err != nil {
			if finite && fs > 0 && !math.IsInf(fs, 0) {
				t.Fatalf("finite chunk rejected: %v", err)
			}
			return
		}
		checkSameChunk(t, "sent chunk", got, c)
		checkSameChunk(t, "float64 body", fromFloat, c)
	})
}

// checkSameChunk fails unless got carries want's header and the same
// float64 bits in every sample.
func checkSameChunk(t *testing.T, what string, got, want SampleChunk) {
	t.Helper()
	if got.NodeID != want.NodeID || got.StreamID != want.StreamID || got.Seq != want.Seq || got.Start != want.Start ||
		math.Float64bits(got.Fs) != math.Float64bits(want.Fs) || len(got.Samples) != len(want.Samples) {
		t.Fatalf("%s: header %+v, want %+v", what, got, want)
	}
	for i, v := range got.Samples {
		if math.Float64bits(v) != math.Float64bits(want.Samples[i]) {
			t.Fatalf("%s: sample %d is %v (bits %x), want %v (bits %x)", what, i, v, math.Float64bits(v), want.Samples[i], math.Float64bits(want.Samples[i]))
		}
	}
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

// FuzzReplayTail runs random sequences of appends, trims, after-Seq
// reads and budget changes against ReplayTail and a reference model, a
// plain slice filtered by Seq and budget. Each op is two bytes: an
// opcode and an argument. Appends take Seq steps of 1 to 3 from start,
// so a start near MaxUint32 wraps, and bodies of 1054 (a code chunk)
// or 4126 bytes (a float64 one); budgets include ones smaller than any
// entry. After every op the tail must hold exactly the model's entries
// and bytes, and no slot it vacated may still reference a body.
func FuzzReplayTail(f *testing.F) {
	f.Add(uint32(1), []byte{0, 0, 0, 1, 0, 0, 1, 2, 2, 1, 0, 0})
	f.Add(uint32(math.MaxUint32-3), []byte{3, 3, 0, 0, 0, 5, 0, 1, 0, 2, 2, 4, 1, 6, 2, 9})
	f.Add(uint32(math.MaxUint32), []byte{3, 1, 0, 0, 0, 1, 0, 0, 1, 3, 2, 0})
	f.Add(uint32(7), []byte{3, 0, 0, 0, 0, 1, 2, 8, 1, 15, 0, 0, 2, 1})

	budgets := []int{1 << 20, 0, 500, 1054, 4126, 3 * 1054, 3 * 4126, 10000}
	f.Fuzz(func(t *testing.T, start uint32, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		var tail ReplayTail
		var model []ReplayEntry
		budget, held := budgets[0], 0
		newest := start - 1
		// Bodies are distinct windows of one arena: entries are told
		// apart by where their bodies start.
		arena := make([]byte, 4126+len(ops))
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%4, ops[i+1]
			// The Seq a trim or a read names: up to 11 behind the newest
			// appended Seq, or up to 4 past it.
			target := newest - uint32(arg%16) + 4
			base := tail.entries[:cap(tail.entries)]
			switch op {
			case 0:
				newest += 1 + uint32(arg%3)
				size := 1054
				if arg&4 != 0 {
					size = 4126
				}
				e := ReplayEntry{Seq: newest, Body: arena[i : i+size], Codes: size == 1054}
				model = append(model, e)
				held += size
				want := 0
				for held > budget && len(model) > 1 {
					want += len(model[0].Body)
					held -= len(model[0].Body)
					model = model[1:]
				}
				if got := tail.Append(e, budget); got != want {
					t.Fatalf("op %d: Append(seq %d, budget %d) evicted %d bytes, model %d", i/2, e.Seq, budget, got, want)
				}
			case 1:
				var keep []ReplayEntry
				want := 0
				for _, e := range model {
					if SeqLEq(e.Seq, target) {
						want += len(e.Body)
					} else {
						keep = append(keep, e)
					}
				}
				model = keep
				held -= want
				if got := tail.TrimThrough(target); got != want {
					t.Fatalf("op %d: TrimThrough(%d) freed %d bytes, model %d", i/2, target, got, want)
				}
			case 2:
				var want []ReplayEntry
				for _, e := range model {
					if SeqLess(target, e.Seq) {
						want = append(want, e)
					}
				}
				wantGap := len(model) > 0 && SeqLess(target+1, model[0].Seq)
				got, gap := tail.After(target)
				if gap != wantGap {
					t.Fatalf("op %d: After(%d) gap %v, model %v", i/2, target, gap, wantGap)
				}
				sameEntries(t, fmt.Sprintf("op %d: After(%d)", i/2, target), got, want)
			case 3:
				budget = budgets[int(arg)%len(budgets)]
			}
			sameEntries(t, fmt.Sprintf("op %d: tail", i/2), tail.Entries(), model)
			if got := tail.Bytes(); got != held {
				t.Fatalf("op %d: Bytes() = %d, model %d", i/2, got, held)
			}
			live := tail.entries
			if len(live) == 0 && cap(live) != 0 {
				t.Fatalf("op %d: empty tail keeps a %d-slot array", i/2, cap(live))
			}
			for j, e := range live[len(live):cap(live)] {
				if e.Body != nil {
					t.Fatalf("op %d: slot len+%d still references a body", i/2, j)
				}
			}
			// Slots trimmed off the front of the same array must be
			// cleared too.
			if cap(live) > 0 && cap(base) > 0 && &live[:cap(live)][cap(live)-1] == &base[cap(base)-1] {
				for j, e := range base[:cap(base)-cap(live)] {
					if e.Body != nil {
						t.Fatalf("op %d: vacated slot %d still references a body", i/2, j)
					}
				}
			}
		}
	})
}

// sameEntries fails unless got holds want's entries, bodies included.
func sameEntries(t *testing.T, what string, got, want []ReplayEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, model %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Codes != want[i].Codes || &got[i].Body[0] != &want[i].Body[0] {
			t.Fatalf("%s: entry %d is seq %d, model seq %d", what, i, got[i].Seq, want[i].Seq)
		}
	}
}
