package rxnet

import (
	"bytes"
	"math"
	"testing"
)

func TestSampleChunkRoundTrip(t *testing.T) {
	c := SampleChunk{
		NodeID:   3,
		StreamID: 9,
		Seq:      42,
		Fs:       1000,
		Start:    123456,
		Samples:  []float64{1.5, -2.25, 0, 6200.125},
	}
	body, err := MarshalSampleChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameSampleChunk, body); err != nil {
		t.Fatal(err)
	}
	ft, rb, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameSampleChunk {
		t.Fatalf("frame type %d", ft)
	}
	got, err := UnmarshalSampleChunk(rb)
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeID != c.NodeID || got.StreamID != c.StreamID || got.Seq != c.Seq ||
		got.Fs != c.Fs || got.Start != c.Start || len(got.Samples) != len(c.Samples) {
		t.Fatalf("round trip %+v != %+v", got, c)
	}
	for i := range c.Samples {
		if got.Samples[i] != c.Samples[i] {
			t.Fatalf("sample %d: %v != %v", i, got.Samples[i], c.Samples[i])
		}
	}
	if got.SessionKey() != uint64(3)<<32|9 {
		t.Fatalf("session key %d", got.SessionKey())
	}
}

func TestSampleChunkLimits(t *testing.T) {
	if _, err := MarshalSampleChunk(SampleChunk{Fs: 1000, Samples: make([]float64, MaxChunkSamples+1)}); err == nil {
		t.Fatal("oversized chunk should fail to marshal")
	}
	if _, err := MarshalSampleChunk(SampleChunk{Fs: 0, Samples: []float64{1}}); err == nil {
		t.Fatal("zero fs should fail to marshal")
	}
	body, err := MarshalSampleChunk(SampleChunk{Fs: 1000, Samples: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSampleChunk(body[:len(body)-1]); err == nil {
		t.Fatal("truncated chunk should fail to unmarshal")
	}
	bad := append([]byte(nil), body...)
	nan := math.Float64bits(math.NaN())
	for i := 0; i < 8; i++ {
		bad[12+i] = byte(nan >> (56 - 8*i))
	}
	if _, err := UnmarshalSampleChunk(bad); err == nil {
		t.Fatal("NaN fs should fail to unmarshal")
	}
}
