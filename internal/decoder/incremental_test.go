package decoder

import (
	"math/rand"
	"testing"
)

// multiPassStream concatenates several synthetic packet traces with
// long quiet gaps, as a receiver watching a lane would see them.
func multiPassStream(payloads []string, fs, symbolDur, high, low, baseline, gapSec float64, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	gap := int(gapSec * fs)
	var out []float64
	appendQuiet := func(n int) {
		for i := 0; i < n; i++ {
			out = append(out, baseline+noise*rng.NormFloat64())
		}
	}
	appendQuiet(gap)
	for _, p := range payloads {
		tr := syntheticPacketTrace(p, fs, symbolDur, high, low, baseline, 0)
		for _, s := range tr.Samples {
			out = append(out, s+noise*rng.NormFloat64())
		}
		appendQuiet(gap)
	}
	return out
}

func TestIncrementalSegmentsMultiPassStream(t *testing.T) {
	payloads := []string{"10", "0110", "00"}
	samples := multiPassStream(payloads, 1000, 0.2, 90, 12, 10, 3.0, 0.3, 7)
	inc := NewIncremental(1000, Options{}, IncrementalConfig{})
	var segs []SegmentResult
	for lo := 0; lo < len(samples); lo += 512 {
		hi := lo + 512
		if hi > len(samples) {
			hi = len(samples)
		}
		segs = append(segs, inc.Feed(samples[lo:hi])...)
	}
	segs = append(segs, inc.Flush()...)
	if len(segs) != len(payloads) {
		t.Fatalf("got %d segments, want %d", len(segs), len(payloads))
	}
	for i, seg := range segs {
		if seg.Err != nil {
			t.Fatalf("segment %d: %v", i, seg.Err)
		}
		if seg.Result.ParseErr != nil {
			t.Fatalf("segment %d: parse: %v (%s)", i, seg.Result.ParseErr, seg.Result.SymbolString())
		}
		if got := seg.Result.Packet.BitString(); got != payloads[i] {
			t.Fatalf("segment %d decoded %q, want %q", i, got, payloads[i])
		}
		if seg.Start >= seg.End || seg.End > int64(len(samples)) {
			t.Fatalf("segment %d span [%d, %d) out of range", i, seg.Start, seg.End)
		}
	}
	// Memory stays bounded: after three passes the machine retains at
	// most the pre-roll, never the whole stream.
	if inc.Buffered() > 2*1000 {
		t.Fatalf("retained %d samples after flush, want bounded", inc.Buffered())
	}
}

// TestIncrementalRetainedFollowsState pins the state-dependent memory
// contract: an idle machine holds exactly one 2×PreRollSamples buffer,
// an open segment adds a pooled segment buffer, and completing the
// segment hands that buffer back.
func TestIncrementalRetainedFollowsState(t *testing.T) {
	const preRoll = 1000
	samples := multiPassStream([]string{"10", "0110"}, 1000, 0.2, 90, 12, 10, 3.0, 0.3, 5)
	inc := NewIncremental(1000, Options{}, IncrementalConfig{PreRollSamples: preRoll})
	sawSegment, completed := false, 0
	for lo := 0; lo < len(samples); lo += 64 {
		completed += len(inc.Feed(samples[lo:min(lo+64, len(samples))]))
		if inc.active {
			sawSegment = sawSegment || inc.Retained() > 2*preRoll
			continue
		}
		if got := inc.Retained(); got != 2*preRoll {
			t.Fatalf("idle at sample %d with %d segments done: retains %d samples, want %d", lo, completed, got, 2*preRoll)
		}
	}
	if completed != 2 || !sawSegment {
		t.Fatalf("completed %d segments (want 2), segment buffer seen: %v", completed, sawSegment)
	}
}

// Chunk boundaries must not matter: sample-by-sample, odd chunks and
// one-shot feeding yield the same segments and payloads.
func TestIncrementalChunkInvariance(t *testing.T) {
	samples := multiPassStream([]string{"10", "111000"}, 1000, 0.2, 90, 12, 10, 2.5, 0.3, 11)
	decodeWith := func(chunk int) []string {
		inc := NewIncremental(1000, Options{}, IncrementalConfig{})
		var segs []SegmentResult
		for lo := 0; lo < len(samples); lo += chunk {
			hi := lo + chunk
			if hi > len(samples) {
				hi = len(samples)
			}
			segs = append(segs, inc.Feed(samples[lo:hi])...)
		}
		segs = append(segs, inc.Flush()...)
		var got []string
		for _, s := range segs {
			if s.Err == nil && s.Result.ParseErr == nil {
				got = append(got, s.Result.Packet.BitString())
			}
		}
		return got
	}
	want := decodeWith(len(samples))
	if len(want) != 2 {
		t.Fatalf("one-shot feed decoded %v, want 2 payloads", want)
	}
	for _, chunk := range []int{1, 7, 64, 333, 4096} {
		got := decodeWith(chunk)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: decoded %v, want %v", chunk, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: payload %d = %q, want %q", chunk, i, got[i], want[i])
			}
		}
	}
}

// Batch mode must reproduce Decode exactly — Decode itself is now a
// wrapper, so this guards the wrapper plumbing (chunked feeding into
// batch mode changes nothing).
func TestIncrementalBatchModeMatchesDecode(t *testing.T) {
	tr := syntheticPacketTrace("0110", 1000, 0.2, 90, 12, 10, 1.5)
	want, err := Decode(tr, Options{ExpectedSymbols: 12})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(tr.Fs, Options{ExpectedSymbols: 12}, BatchConfig())
	for lo := 0; lo < tr.Len(); lo += 100 {
		hi := lo + 100
		if hi > tr.Len() {
			hi = tr.Len()
		}
		if got := inc.Feed(tr.Samples[lo:hi]); len(got) != 0 {
			t.Fatalf("batch mode emitted %d segments before flush", len(got))
		}
	}
	segs := inc.Flush()
	if len(segs) != 1 || segs[0].Err != nil {
		t.Fatalf("flush: %+v", segs)
	}
	if segs[0].Result.SymbolString() != want.SymbolString() {
		t.Fatalf("chunked batch %q, direct %q", segs[0].Result.SymbolString(), want.SymbolString())
	}
	if segs[0].Result.Packet.BitString() != want.Packet.BitString() {
		t.Fatalf("chunked batch bits %q, direct %q", segs[0].Result.Packet.BitString(), want.Packet.BitString())
	}
}
