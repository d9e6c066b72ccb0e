package coding

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestManchesterRoundTrip(t *testing.T) {
	for _, bits := range [][]Bit{
		{}, {0}, {1}, {0, 1}, {1, 0}, {1, 1, 0, 0, 1, 0, 1, 1},
	} {
		symbols := ManchesterEncode(bits)
		if len(symbols) != 2*len(bits) {
			t.Fatalf("encoded length %d, want %d", len(symbols), 2*len(bits))
		}
		got, err := ManchesterDecode(symbols)
		if err != nil {
			t.Fatal(err)
		}
		if HammingDistance(got, bits) != 0 {
			t.Fatalf("roundtrip %v -> %v", bits, got)
		}
	}
}

func TestManchesterMapping(t *testing.T) {
	// The paper's mapping: '0' -> HIGH-LOW, '1' -> LOW-HIGH (Sec. 4).
	symbols := ManchesterEncode([]Bit{0, 1})
	want := []Symbol{High, Low, Low, High}
	for i := range want {
		if symbols[i] != want[i] {
			t.Fatalf("mapping %v, want %v", symbols, want)
		}
	}
}

func TestManchesterDecodeErrors(t *testing.T) {
	if _, err := ManchesterDecode([]Symbol{High}); !errors.Is(err, ErrOddSymbolCount) {
		t.Fatalf("odd count: %v", err)
	}
	if _, err := ManchesterDecode([]Symbol{High, High}); !errors.Is(err, ErrInvalidManchester) {
		t.Fatalf("HH: %v", err)
	}
	if _, err := ManchesterDecode([]Symbol{Low, Low}); !errors.Is(err, ErrInvalidManchester) {
		t.Fatalf("LL: %v", err)
	}
}

func TestPacketSymbolsAndStrings(t *testing.T) {
	p := MustPacket("10")
	symbols := p.Symbols()
	if len(symbols) != PreambleLen+4 {
		t.Fatalf("symbol count %d", len(symbols))
	}
	for i, want := range Preamble {
		if symbols[i] != want {
			t.Fatalf("preamble symbol %d is %v", i, symbols[i])
		}
	}
	if s := p.SymbolString(); s != "HLHL.LHHL" {
		t.Fatalf("symbol string %q", s)
	}
	if s := p.BitString(); s != "10" {
		t.Fatalf("bit string %q", s)
	}
	empty := Packet{}
	if s := empty.SymbolString(); s != "HLHL" {
		t.Fatalf("empty packet symbol string %q", s)
	}
}

func TestNewPacketRejectsBadBits(t *testing.T) {
	if _, err := NewPacket("01x"); err == nil {
		t.Fatal("expected error for non-binary character")
	}
	if _, err := NewPacket(""); err != nil {
		t.Fatalf("empty payload should be allowed: %v", err)
	}
}

func TestParsePacketRoundTrip(t *testing.T) {
	for _, payload := range []string{"", "0", "1", "0110", "111000"} {
		p := MustPacket(payload)
		got, err := ParsePacket(p.Symbols())
		if err != nil {
			t.Fatalf("%q: %v", payload, err)
		}
		if got.BitString() != payload {
			t.Fatalf("roundtrip %q -> %q", payload, got.BitString())
		}
	}
}

func TestParsePacketRejectsBadPreamble(t *testing.T) {
	bad := []Symbol{Low, High, Low, High} // inverted preamble
	if _, err := ParsePacket(bad); !errors.Is(err, ErrNoPreamble) {
		t.Fatalf("inverted preamble: %v", err)
	}
	if _, err := ParsePacket([]Symbol{High, Low}); !errors.Is(err, ErrNoPreamble) {
		t.Fatalf("short stream: %v", err)
	}
}

func TestNRZRoundTrip(t *testing.T) {
	bits := []Bit{1, 0, 0, 1, 1, 1, 0}
	symbols := NRZEncode(bits)
	if len(symbols) != len(bits) {
		t.Fatalf("NRZ length %d", len(symbols))
	}
	got := NRZDecode(symbols)
	if HammingDistance(got, bits) != 0 {
		t.Fatalf("NRZ roundtrip %v -> %v", bits, got)
	}
}

func TestHammingDistance(t *testing.T) {
	if d := HammingDistance([]Bit{0, 1, 1}, []Bit{0, 1, 1}); d != 0 {
		t.Fatalf("equal distance %d", d)
	}
	if d := HammingDistance([]Bit{0, 0, 0}, []Bit{1, 1, 1}); d != 3 {
		t.Fatalf("opposite distance %d", d)
	}
	// Length mismatch counts excess positions.
	if d := HammingDistance([]Bit{0, 0}, []Bit{0, 0, 1, 1}); d != 2 {
		t.Fatalf("mismatched length distance %d", d)
	}
}

func TestManchesterRoundTripProperty(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]Bit, len(raw))
		for i, b := range raw {
			bits[i] = Bit(b & 1)
		}
		got, err := ManchesterDecode(ManchesterEncode(bits))
		return err == nil && HammingDistance(got, bits) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketSymbolsAlwaysParseProperty(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		bits := make([]Bit, len(raw))
		for i, b := range raw {
			bits[i] = Bit(b & 1)
		}
		p := Packet{Data: bits}
		got, err := ParsePacket(p.Symbols())
		return err == nil && HammingDistance(got.Data, bits) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodebookInvariants(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{4, 1}, {6, 2}, {8, 3}, {8, 5}, {10, 4}} {
		cb, err := NewCodebook(tc.n, tc.d, 0)
		if err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		if got := cb.VerifyDistances(); got < tc.d {
			t.Fatalf("n=%d d=%d: actual min distance %d", tc.n, tc.d, got)
		}
		if got := len(cb.Word(0)); got != tc.n {
			t.Fatalf("bits per word %d", got)
		}
		// Clean codewords decode to themselves.
		for i := 0; i < cb.Len(); i++ {
			w, err := cb.Encode(i)
			if err != nil {
				t.Fatal(err)
			}
			idx, dist := cb.Decode(w)
			if idx != i || dist != 0 {
				t.Fatalf("clean decode of word %d gave %d (dist %d)", i, idx, dist)
			}
		}
	}
}

func TestCodebookCorrectsErrors(t *testing.T) {
	cb, err := NewCodebook(8, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	canFix := cb.CorrectableErrors()
	if canFix != 2 {
		t.Fatalf("correctable errors %d, want 2", canFix)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		idx := rng.Intn(cb.Len())
		w, err := cb.Encode(idx)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(len(w))
		for f := 0; f < canFix; f++ {
			w[perm[f]] ^= 1
		}
		got, _ := cb.Decode(w)
		if got != idx {
			t.Fatalf("trial %d: %d errors not corrected (got %d want %d)", trial, canFix, got, idx)
		}
	}
}

func TestCodebookMaxWordsAndErrors(t *testing.T) {
	cb, err := NewCodebook(8, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Len() != 5 {
		t.Fatalf("capped codebook has %d words", cb.Len())
	}
	if _, err := NewCodebook(0, 1, 0); err == nil {
		t.Fatal("expected error for zero-length words")
	}
	if _, err := NewCodebook(8, 9, 0); err == nil {
		t.Fatal("expected error for distance > length")
	}
	if _, err := cb.Encode(99); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
}

func TestCodebookSizeShrinksWithDistance(t *testing.T) {
	prev := 1 << 8
	for d := 1; d <= 5; d++ {
		cb, err := NewCodebook(8, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cb.Len() > prev {
			t.Fatalf("codebook grew from %d to %d at distance %d", prev, cb.Len(), d)
		}
		prev = cb.Len()
	}
}
