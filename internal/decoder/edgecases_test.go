package decoder

import (
	"errors"
	"math/rand"
	"testing"

	"passivelight/internal/trace"
)

// The streaming refactor routes batch Decode through the incremental
// state machine; these cases pin the degenerate-input behavior the
// refactor must preserve.

func TestDecodeEmptyTrace(t *testing.T) {
	if _, err := Decode(nil, Options{}); err == nil {
		t.Fatal("nil trace should fail")
	}
	if _, err := Decode(trace.New(1000, 0, nil), Options{}); err == nil {
		t.Fatal("empty trace should fail")
	}
	if _, err := Decode(trace.New(1000, 0, []float64{1, 2, 3}), Options{}); err == nil {
		t.Fatal("3-sample trace should fail")
	}
	if _, err := DecodeCarPass(nil, Options{}); err == nil {
		t.Fatal("nil trace should fail the car pass")
	}
	if _, err := DecodeCarPass(trace.New(1000, 0, nil), Options{}); err == nil {
		t.Fatal("empty trace should fail the car pass")
	}
}

func TestDecodeAllNoiseTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	samples := make([]float64, 4000)
	for i := range samples {
		samples[i] = 50 + 0.8*rng.NormFloat64()
	}
	tr := trace.New(1000, 0, samples)
	_, err := Decode(tr, Options{})
	if err == nil {
		t.Fatal("pure noise should not decode")
	}
	if !errors.Is(err, ErrNoPreamble) && !errors.Is(err, ErrLowContrast) {
		t.Fatalf("noise decode failed with unexpected error: %v", err)
	}
	if _, err := DecodeCarPass(tr, Options{}); err == nil {
		t.Fatal("pure noise should not pass the car-shape phase")
	}
	// The streaming state machine must not open a segment on noise.
	inc := NewIncremental(1000, Options{}, IncrementalConfig{})
	if segs := inc.Feed(samples); len(segs) != 0 {
		t.Fatalf("noise produced %d segments", len(segs))
	}
	if segs := inc.Flush(); len(segs) != 0 {
		t.Fatalf("noise flush produced %d segments", len(segs))
	}
	if inc.Buffered() > 1100 {
		t.Fatalf("idle state retains %d samples, want <= pre-roll", inc.Buffered())
	}
}

func TestDecodeTruncatedFinalSymbol(t *testing.T) {
	// Cut the trace mid-way through the final symbol: lead-out gone,
	// last plateau at 40% duration.
	full := syntheticPacketTrace("0110", 1000, 0.2, 90, 12, 10, 0)
	perSymbol := 200
	cut := full.Len() - 2*perSymbol - int(0.6*float64(perSymbol))
	truncated := trace.New(full.Fs, full.T0, full.Samples[:cut])
	// With the symbol count pinned, the final window simply has fewer
	// samples; the decode must not panic and must keep the payload
	// prefix intact if it succeeds.
	res, err := Decode(truncated, Options{ExpectedSymbols: 12})
	if err == nil && res.ParseErr == nil {
		if got := res.Packet.BitString(); got != "0110" {
			t.Fatalf("truncated decode invented bits: %q", got)
		}
	}
	// Auto mode on the same truncated trace: whatever parses must be
	// a prefix-consistent packet, and short inputs must error cleanly.
	res, err = Decode(truncated, Options{})
	if err == nil && res.ParseErr == nil {
		got := res.Packet.BitString()
		want := "0110"
		if len(got) > len(want) || got != want[:len(got)] {
			t.Fatalf("auto truncated decode %q is not a prefix of %q", got, want)
		}
	}
	// Truncation inside the preamble leaves nothing decodable.
	tiny := trace.New(full.Fs, full.T0, full.Samples[:400+perSymbol+perSymbol/2])
	if res, err := Decode(tiny, Options{}); err == nil && res.ParseErr == nil && len(res.Packet.Data) > 0 {
		t.Fatalf("preamble-only fragment decoded %q", res.Packet.BitString())
	}
}

func TestDecodeCarPassTruncatedFinalSymbol(t *testing.T) {
	// A flat-topped "car" silhouette with a stripe packet on the
	// roof, truncated mid-final-stripe: phase 1 (shape) must still
	// find hood/windshield, phase 2 must not panic or invent bits.
	fs := 1000.0
	var samples []float64
	appendLevel := func(level float64, n int) {
		for i := 0; i < n; i++ {
			samples = append(samples, level)
		}
	}
	appendLevel(10, 600) // road
	appendLevel(80, 300) // hood peak
	appendLevel(20, 300) // windshield valley
	for _, s := range syntheticPacketTrace("10", fs, 0.15, 95, 30, 28, 0).Samples {
		samples = append(samples, s)
	}
	tr := trace.New(fs, 0, samples[:len(samples)-400])
	res, err := DecodeCarPass(tr, Options{ExpectedSymbols: 8})
	if err == nil && res.Decode.ParseErr == nil {
		if got := res.Decode.Packet.BitString(); got != "10" {
			t.Fatalf("truncated car pass decoded %q", got)
		}
	}
}
