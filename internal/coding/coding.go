// Package coding implements the paper's passive packet format
// (Sec. 4, Fig. 4): a fixed 4-symbol preamble HIGH-LOW-HIGH-LOW
// followed by a Manchester-coded data field, where a '0' bit maps to
// HIGH-LOW and a '1' bit maps to LOW-HIGH. Symbols are physical
// stripes of reflective material on a mobile object; this package
// only deals with the logical layer (bits <-> symbols), the physical
// mapping lives in internal/tag.
package coding

import (
	"errors"
	"fmt"
	"strings"
)

// Symbol is one reflective stripe: HIGH (strong reflection, e.g.
// aluminum tape) or LOW (weak reflection, e.g. black paper napkin).
type Symbol uint8

const (
	// Low is the weak-reflection symbol.
	Low Symbol = iota
	// High is the strong-reflection symbol.
	High
)

// String returns "H" or "L", matching the paper's notation.
func (s Symbol) String() string {
	if s == High {
		return "H"
	}
	return "L"
}

// Preamble is the fixed packet preamble: HIGH-LOW-HIGH-LOW (Fig. 4).
var Preamble = []Symbol{High, Low, High, Low}

// PreambleLen is the number of symbols in the preamble.
const PreambleLen = 4

// Bit is a single data bit (0 or 1).
type Bit uint8

// ErrOddSymbolCount is returned when decoding a symbol sequence whose
// length is not a multiple of two.
var ErrOddSymbolCount = errors.New("coding: Manchester symbol count must be even")

// ErrInvalidManchester is returned when a symbol pair is HH or LL,
// which has no Manchester interpretation.
var ErrInvalidManchester = errors.New("coding: invalid Manchester pair (HH or LL)")

// ErrNoPreamble is returned by ParsePacket when the symbol stream does
// not start with the HLHL preamble.
var ErrNoPreamble = errors.New("coding: symbol stream does not start with HLHL preamble")

// ManchesterEncode maps bits to symbols: 0 -> HL, 1 -> LH.
func ManchesterEncode(bits []Bit) []Symbol {
	out := make([]Symbol, 0, 2*len(bits))
	for _, b := range bits {
		if b == 0 {
			out = append(out, High, Low)
		} else {
			out = append(out, Low, High)
		}
	}
	return out
}

// ManchesterDecode maps symbol pairs back to bits. HL -> 0, LH -> 1.
func ManchesterDecode(symbols []Symbol) ([]Bit, error) {
	if len(symbols)%2 != 0 {
		return nil, ErrOddSymbolCount
	}
	bits := make([]Bit, 0, len(symbols)/2)
	for i := 0; i < len(symbols); i += 2 {
		a, b := symbols[i], symbols[i+1]
		switch {
		case a == High && b == Low:
			bits = append(bits, 0)
		case a == Low && b == High:
			bits = append(bits, 1)
		default:
			return nil, fmt.Errorf("%w at pair %d (%s%s)", ErrInvalidManchester, i/2, a, b)
		}
	}
	return bits, nil
}

// Packet is the logical content of one reflective-surface packet.
type Packet struct {
	// Data is the payload bit string.
	Data []Bit
}

// NewPacket builds a packet from a bit string such as "10" or
// "0110". Any character other than '0' or '1' is an error.
func NewPacket(bitstring string) (Packet, error) {
	bits := make([]Bit, 0, len(bitstring))
	for i, c := range bitstring {
		switch c {
		case '0':
			bits = append(bits, 0)
		case '1':
			bits = append(bits, 1)
		default:
			return Packet{}, fmt.Errorf("coding: invalid bit %q at position %d", c, i)
		}
	}
	return Packet{Data: bits}, nil
}

// MustPacket is NewPacket that panics on invalid input; for tests and
// fixed example payloads.
func MustPacket(bitstring string) Packet {
	p, err := NewPacket(bitstring)
	if err != nil {
		panic(err)
	}
	return p
}

// Symbols returns the full on-surface symbol sequence:
// preamble (HLHL) followed by the Manchester-coded data field.
func (p Packet) Symbols() []Symbol {
	out := make([]Symbol, 0, PreambleLen+2*len(p.Data))
	out = append(out, Preamble...)
	out = append(out, ManchesterEncode(p.Data)...)
	return out
}

// BitString renders the payload as a "0"/"1" string.
func (p Packet) BitString() string {
	var sb strings.Builder
	for _, b := range p.Data {
		if b == 0 {
			sb.WriteByte('0')
		} else {
			sb.WriteByte('1')
		}
	}
	return sb.String()
}

// SymbolString renders symbols as e.g. "HLHL.LHHL" with a dot between
// preamble and data, matching the paper's notation.
func (p Packet) SymbolString() string {
	var sb strings.Builder
	for _, s := range Preamble {
		sb.WriteString(s.String())
	}
	data := ManchesterEncode(p.Data)
	if len(data) > 0 {
		sb.WriteByte('.')
		for _, s := range data {
			sb.WriteString(s.String())
		}
	}
	return sb.String()
}

// ParsePacket validates that symbols start with the preamble and
// Manchester-decodes the remainder into a Packet.
// ValidPacket reports whether ParsePacket would succeed, without
// building the payload slice or an error value. The decoder's timing
// search asks this for hundreds of candidate grids per packet and
// discards everything but the answer.
func ValidPacket(symbols []Symbol) bool {
	if len(symbols) < PreambleLen {
		return false
	}
	for i, want := range Preamble {
		if symbols[i] != want {
			return false
		}
	}
	rest := symbols[PreambleLen:]
	if len(rest)%2 != 0 {
		return false
	}
	for i := 0; i < len(rest); i += 2 {
		a, b := rest[i], rest[i+1]
		if !(a == High && b == Low) && !(a == Low && b == High) {
			return false
		}
	}
	return true
}

func ParsePacket(symbols []Symbol) (Packet, error) {
	if len(symbols) < PreambleLen {
		return Packet{}, ErrNoPreamble
	}
	for i, want := range Preamble {
		if symbols[i] != want {
			return Packet{}, ErrNoPreamble
		}
	}
	bits, err := ManchesterDecode(symbols[PreambleLen:])
	if err != nil {
		return Packet{}, err
	}
	return Packet{Data: bits}, nil
}

// NRZEncode maps bits directly to symbols (0 -> L, 1 -> H) with no
// mid-bit transition. It exists as the ablation baseline against
// Manchester coding: long runs of identical bits produce long
// constant-reflectance stretches that defeat the adaptive threshold
// decoder under FoV-induced smoothing.
func NRZEncode(bits []Bit) []Symbol {
	out := make([]Symbol, len(bits))
	for i, b := range bits {
		if b == 1 {
			out[i] = High
		}
	}
	return out
}

// NRZDecode maps symbols back to bits (L -> 0, H -> 1).
func NRZDecode(symbols []Symbol) []Bit {
	out := make([]Bit, len(symbols))
	for i, s := range symbols {
		if s == High {
			out[i] = 1
		}
	}
	return out
}

// HammingDistance counts positions where the two bit strings differ;
// if lengths differ, the excess positions of the longer string all
// count as differences.
func HammingDistance(a, b []Bit) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			d++
		}
	}
	d += len(a) - n + len(b) - n
	return d
}
