package rxnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte{1, 2, 3, 4}
	if err := WriteFrame(&buf, FrameDetection, body); err != nil {
		t.Fatal(err)
	}
	ft, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameDetection {
		t.Fatalf("frame type %d", ft)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body %v", got)
	}
}

func TestFrameErrors(t *testing.T) {
	// Bad magic.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0x00, 1, 1, 0, 0, 0, 0})); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	// Bad version.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{MagicByte, 99, 1, 0, 0, 0, 0})); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	// Oversized length prefix.
	big := []byte{MagicByte, Version, 1, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(big)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized: %v", err)
	}
	// Truncated body.
	trunc := []byte{MagicByte, Version, 1, 0, 0, 0, 10, 1, 2}
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: %v", err)
	}
	// Oversized write rejected.
	if err := WriteFrame(&bytes.Buffer{}, FrameHello, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized write: %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{NodeID: 42, PosX: -12.5, Height: 0.75, Name: "pole-42"}
	body, err := MarshalHello(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip %+v -> %+v", h, got)
	}
	// Name too long.
	long := Hello{Name: string(make([]byte, 65))}
	if _, err := MarshalHello(long); err == nil {
		t.Fatal("expected error for long name")
	}
	// Truncated body.
	if _, err := UnmarshalHello(body[:10]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated hello: %v", err)
	}
}

func TestDetectionRoundTrip(t *testing.T) {
	d := Detection{
		NodeID:     7,
		Seq:        99,
		Time:       time.Unix(1720000000, 123456789),
		Bits:       []byte{1, 0, 0, 1},
		RSSPeak:    412.5,
		NoiseFloor: 6200,
		SymbolRate: 50.2,
	}
	body, err := MarshalDetection(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalDetection(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeID != d.NodeID || got.Seq != d.Seq || !got.Time.Equal(d.Time) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Bits, d.Bits) {
		t.Fatalf("bits %v", got.Bits)
	}
	if got.RSSPeak != d.RSSPeak || got.NoiseFloor != d.NoiseFloor || got.SymbolRate != d.SymbolRate {
		t.Fatalf("floats mismatch: %+v", got)
	}
}

func TestDetectionValidation(t *testing.T) {
	// Invalid bit values rejected on both paths.
	bad := Detection{Bits: []byte{0, 2}}
	if _, err := MarshalDetection(bad); err == nil {
		t.Fatal("bit value 2 should fail to marshal")
	}
	good := Detection{Bits: []byte{1}, Time: time.Now()}
	body, err := MarshalDetection(good)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-1] = 7 // corrupt the bit on the wire
	if _, err := UnmarshalDetection(body); err == nil {
		t.Fatal("corrupt bit should fail to unmarshal")
	}
	// Oversized payload rejected.
	huge := Detection{Bits: make([]byte, MaxBitsLen+1)}
	if _, err := MarshalDetection(huge); err == nil {
		t.Fatal("oversized bits should fail")
	}
	if _, err := UnmarshalDetection([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Fatal("truncated detection should fail")
	}
}

func TestAckRoundTrip(t *testing.T) {
	a := Ack{NodeID: 3, Seq: 17}
	got, err := UnmarshalAck(MarshalAck(a))
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("roundtrip %+v", got)
	}
	if _, err := UnmarshalAck([]byte{1}); !errors.Is(err, ErrTruncated) {
		t.Fatal("truncated ack should fail")
	}
}

func TestBitsString(t *testing.T) {
	if s := BitsString([]byte{1, 0, 0, 1}); s != "1001" {
		t.Fatalf("bits string %q", s)
	}
	if s := BitsString(nil); s != "" {
		t.Fatalf("empty bits string %q", s)
	}
}

func TestDetectionRoundTripProperty(t *testing.T) {
	f := func(node, seq uint32, rss, floor, rate float64, rawBits []byte) bool {
		if len(rawBits) > MaxBitsLen {
			rawBits = rawBits[:MaxBitsLen]
		}
		bits := make([]byte, len(rawBits))
		for i, b := range rawBits {
			bits[i] = b & 1
		}
		d := Detection{
			NodeID: node, Seq: seq,
			Time: time.Unix(0, int64(node)*1e9),
			Bits: bits, RSSPeak: rss, NoiseFloor: floor, SymbolRate: rate,
		}
		body, err := MarshalDetection(d)
		if err != nil {
			return false
		}
		got, err := UnmarshalDetection(body)
		if err != nil {
			return false
		}
		return got.NodeID == node && got.Seq == seq && bytes.Equal(got.Bits, bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterFrameRoundTrips(t *testing.T) {
	e := StreamEnd{Session: 0x0000002A0000_0007}
	gotEnd, err := UnmarshalStreamEnd(MarshalStreamEnd(e))
	if err != nil || gotEnd != e {
		t.Fatalf("stream end round trip: %+v, %v", gotEnd, err)
	}
	if _, err := UnmarshalStreamEnd(nil); err == nil {
		t.Fatal("empty stream end accepted")
	}

	n := StreamNack{Session: 42<<32 | 7, LastSeq: 19}
	gotNack, err := UnmarshalStreamNack(MarshalStreamNack(n))
	if err != nil || gotNack != n {
		t.Fatalf("stream nack round trip: %+v, %v", gotNack, err)
	}
	if _, err := UnmarshalStreamNack(MarshalStreamEnd(e)); err == nil {
		t.Fatal("8-byte nack body accepted")
	}

	a := StreamAck{Session: 42<<32 | 7, LastSeq: 23}
	gotAck, err := UnmarshalStreamAck(MarshalStreamAck(a))
	if err != nil || gotAck != a {
		t.Fatalf("stream ack round trip: %+v, %v", gotAck, err)
	}
	if _, err := UnmarshalStreamAck(MarshalStreamEnd(e)); err == nil {
		t.Fatal("8-byte ack body accepted")
	}

	for _, draining := range []bool{true, false} {
		got, err := UnmarshalDrain(MarshalDrain(Drain{Draining: draining}))
		if err != nil || got.Draining != draining {
			t.Fatalf("drain round trip (%v): %+v, %v", draining, got, err)
		}
	}
	if _, err := UnmarshalDrain(nil); err == nil {
		t.Fatal("empty drain accepted")
	}
}

func TestMembershipFrameRoundTrips(t *testing.T) {
	eh := EngineHello{ID: "engine-a", Addr: "10.0.0.7:9200"}
	body, err := MarshalEngineHello(eh)
	if err != nil {
		t.Fatalf("marshal engine hello: %v", err)
	}
	got, err := UnmarshalEngineHello(body)
	if err != nil || got != eh {
		t.Fatalf("engine hello round trip: %+v, %v", got, err)
	}
	if _, err := MarshalEngineHello(EngineHello{ID: "", Addr: "x:1"}); err == nil {
		t.Fatal("empty engine ID accepted")
	}
	if _, err := MarshalEngineHello(EngineHello{ID: "a", Addr: ""}); err == nil {
		t.Fatal("empty engine addr accepted")
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := UnmarshalEngineHello(body[:cut]); err == nil {
			t.Fatalf("truncated engine hello (%d bytes) accepted", cut)
		}
	}

	ru := RingUpdate{Epoch: 9, Members: []RingMember{
		{ID: "engine-a", Addr: "10.0.0.7:9200"},
		{ID: "engine-b", Addr: "10.0.0.8:9200"},
	}}
	rb, err := MarshalRingUpdate(ru)
	if err != nil {
		t.Fatalf("marshal ring update: %v", err)
	}
	gotRu, err := UnmarshalRingUpdate(rb)
	if err != nil {
		t.Fatalf("unmarshal ring update: %v", err)
	}
	if gotRu.Epoch != ru.Epoch || len(gotRu.Members) != 2 ||
		gotRu.Members[0] != ru.Members[0] || gotRu.Members[1] != ru.Members[1] {
		t.Fatalf("ring update round trip: %+v", gotRu)
	}
	empty, err := MarshalRingUpdate(RingUpdate{Epoch: 1})
	if err != nil {
		t.Fatalf("marshal empty ring update: %v", err)
	}
	if got, err := UnmarshalRingUpdate(empty); err != nil || len(got.Members) != 0 {
		t.Fatalf("empty ring update round trip: %+v, %v", got, err)
	}
	for cut := 0; cut < len(rb); cut++ {
		if _, err := UnmarshalRingUpdate(rb[:cut]); err == nil {
			t.Fatalf("truncated ring update (%d bytes) accepted", cut)
		}
	}

	for _, paused := range []bool{true, false} {
		got, err := UnmarshalThrottle(MarshalThrottle(Throttle{Paused: paused}))
		if err != nil || got.Paused != paused {
			t.Fatalf("throttle round trip (%v): %+v, %v", paused, got, err)
		}
	}
	if _, err := UnmarshalThrottle(nil); err == nil {
		t.Fatal("empty throttle accepted")
	}
}

// referenceSampleChunk is the field-by-field bytes.Buffer encoding of a
// SampleChunk body, kept as the oracle MarshalSampleChunk's direct
// encoding must match byte for byte.
func referenceSampleChunk(c SampleChunk) []byte {
	var buf bytes.Buffer
	var u32 [4]byte
	for _, v := range []uint32{c.NodeID, c.StreamID, c.Seq} {
		binary.BigEndian.PutUint32(u32[:], v)
		buf.Write(u32[:])
	}
	putF64(&buf, c.Fs)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], c.Start)
	buf.Write(u64[:])
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(c.Samples)))
	buf.Write(u16[:])
	for _, s := range c.Samples {
		putF64(&buf, s)
	}
	return buf.Bytes()
}

func TestMarshalSampleChunkMatchesReference(t *testing.T) {
	ramp := make([]float64, MaxChunkSamples)
	for i := range ramp {
		ramp[i] = float64(i%1024) - 0.5
	}
	cases := []struct {
		name  string
		chunk SampleChunk
	}{
		{"empty", SampleChunk{NodeID: 1, StreamID: 2, Seq: 3, Fs: 1000, Start: 4}},
		{"one sample", SampleChunk{NodeID: 7, StreamID: 1 << 31, Seq: 1, Fs: 250.5, Start: 1 << 40, Samples: []float64{42}}},
		{"signed zero and extremes", SampleChunk{NodeID: math.MaxUint32, StreamID: math.MaxUint32, Seq: math.MaxUint32, Fs: math.SmallestNonzeroFloat64, Start: math.MaxUint64,
			Samples: []float64{math.Copysign(0, -1), -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64, 1023}}},
		{"full chunk", SampleChunk{NodeID: 3, StreamID: 9, Seq: 77, Fs: 1000, Start: 512, Samples: ramp}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := MarshalSampleChunk(tc.chunk)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceSampleChunk(tc.chunk); !bytes.Equal(got, want) {
				t.Fatalf("encoding differs from the reference:\n got %x\nwant %x", got, want)
			}
			back, err := UnmarshalSampleChunk(got)
			if err != nil {
				t.Fatal(err)
			}
			if back.NodeID != tc.chunk.NodeID || back.StreamID != tc.chunk.StreamID || back.Seq != tc.chunk.Seq ||
				back.Fs != tc.chunk.Fs || back.Start != tc.chunk.Start || len(back.Samples) != len(tc.chunk.Samples) {
				t.Fatalf("round trip header %+v, want %+v", back, tc.chunk)
			}
			for i, s := range tc.chunk.Samples {
				if math.Float64bits(back.Samples[i]) != math.Float64bits(s) {
					t.Fatalf("sample %d round-tripped to %v, want %v", i, back.Samples[i], s)
				}
			}
		})
	}
}
