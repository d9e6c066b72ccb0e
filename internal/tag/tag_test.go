package tag

import (
	"math"
	"testing"
	"testing/quick"

	"passivelight/internal/coding"
	"passivelight/internal/material"
)

func TestNewProfileLookup(t *testing.T) {
	p, err := NewProfile(
		[]float64{0.1, 0.2, 0.1},
		[]material.Material{material.AluminumTape, material.BlackNapkin, material.AluminumTape},
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Length()-0.4) > 1e-12 {
		t.Fatalf("length %v", p.Length())
	}
	if len(p.segments) != 3 {
		t.Fatalf("segments %d", len(p.segments))
	}
	cases := []struct {
		x    float64
		want string
	}{
		{0, "aluminum-tape"},
		{0.05, "aluminum-tape"},
		{0.1, "black-napkin"},
		{0.25, "black-napkin"},
		{0.31, "aluminum-tape"},
		{0.399, "aluminum-tape"},
	}
	for _, c := range cases {
		m, ok := p.MaterialAt(c.x)
		if !ok {
			t.Fatalf("x=%v: no material", c.x)
		}
		if m.Name != c.want {
			t.Fatalf("x=%v: got %s, want %s", c.x, m.Name, c.want)
		}
	}
	if _, ok := p.MaterialAt(-0.01); ok {
		t.Fatal("before profile should be empty")
	}
	if _, ok := p.MaterialAt(0.4); ok {
		t.Fatal("at end (exclusive) should be empty")
	}
}

func TestNewProfileErrors(t *testing.T) {
	if _, err := NewProfile(nil, nil); err == nil {
		t.Fatal("empty profile should fail")
	}
	if _, err := NewProfile([]float64{1}, []material.Material{material.Tarmac, material.Tarmac}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := NewProfile([]float64{0}, []material.Material{material.Tarmac}); err == nil {
		t.Fatal("zero-length segment should fail")
	}
	bad := material.Material{Name: "bad", Reflectance: 2}
	if _, err := NewProfile([]float64{1}, []material.Material{bad}); err == nil {
		t.Fatal("invalid material should fail")
	}
}

func TestTagGeometryMatchesSymbols(t *testing.T) {
	pkt := coding.MustPacket("10")
	tg, err := New(pkt, Config{SymbolWidth: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	symbols := pkt.Symbols() // HLHL LHHL
	if got := tg.Length(); math.Abs(got-float64(len(symbols))*0.03) > 1e-12 {
		t.Fatalf("length %v", got)
	}
	if n := len(tg.Packet.Symbols()); n != len(symbols) {
		t.Fatalf("symbol count %d", n)
	}
	for i, s := range symbols {
		x := (float64(i) + 0.5) * 0.03 // center of stripe i
		m, ok := tg.Profile().MaterialAt(x)
		if !ok {
			t.Fatalf("stripe %d: no material", i)
		}
		wantHigh := s == coding.High
		isHigh := m.Reflectance > 0.5
		if wantHigh != isHigh {
			t.Fatalf("stripe %d: symbol %v but material %s", i, s, m.Name)
		}
	}
}

func TestTagLeadInOut(t *testing.T) {
	pkt := coding.MustPacket("0")
	tg, err := New(pkt, Config{SymbolWidth: 0.02, LeadIn: 0.05, LeadOut: 0.07})
	if err != nil {
		t.Fatal(err)
	}
	wantLen := 0.05 + 6*0.02 + 0.07
	if math.Abs(tg.Length()-wantLen) > 1e-12 {
		t.Fatalf("length %v, want %v", tg.Length(), wantLen)
	}
	// Lead-in is LOW material.
	m, ok := tg.Profile().MaterialAt(0.01)
	if !ok || m.Reflectance > 0.5 {
		t.Fatalf("lead-in material %v", m.Name)
	}
	// First symbol (preamble H) follows the lead-in.
	m, ok = tg.Profile().MaterialAt(0.06)
	if !ok || m.Reflectance < 0.5 {
		t.Fatalf("first stripe after lead-in should be HIGH, got %v", m.Name)
	}
}

func TestTagCustomMaterials(t *testing.T) {
	hi := material.MirrorFilm
	lo := material.DarkCloth
	tg, err := New(coding.MustPacket("1"), Config{SymbolWidth: 0.01, HighMat: &hi, LowMat: &lo})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := tg.Profile().MaterialAt(0.005) // first preamble H
	if m.Name != "mirror-film" {
		t.Fatalf("high material %s", m.Name)
	}
}

func TestTagErrors(t *testing.T) {
	if _, err := New(coding.MustPacket("1"), Config{}); err == nil {
		t.Fatal("zero symbol width should fail")
	}
	if _, err := NewFromSymbols(nil, Config{SymbolWidth: 0.01}); err == nil {
		t.Fatal("empty symbols should fail")
	}
}

func TestNewFromSymbolsNRZ(t *testing.T) {
	symbols := append(append([]coding.Symbol{}, coding.Preamble...),
		coding.NRZEncode([]coding.Bit{1, 1, 0})...)
	tg, err := NewFromSymbols(symbols, Config{SymbolWidth: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tg.Length()-float64(len(symbols))*0.02) > 1e-12 {
		t.Fatalf("length %v", tg.Length())
	}
}

func TestWithDirtKeepsGeometry(t *testing.T) {
	tg, err := New(coding.MustPacket("01"), Config{SymbolWidth: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := tg.WithDirt(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Length() != tg.Length() {
		t.Fatal("dirt changed tag length")
	}
	cm, _ := tg.Profile().MaterialAt(0.015)
	dm, _ := dirty.Profile().MaterialAt(0.015)
	if dm.Reflectance >= cm.Reflectance {
		t.Fatalf("dirty HIGH stripe not darker: %.2f vs %.2f", dm.Reflectance, cm.Reflectance)
	}
}

func TestDynamicTagCycles(t *testing.T) {
	a := mustNew(t, coding.MustPacket("00"), Config{SymbolWidth: 0.02})
	b := mustNew(t, coding.MustPacket("11"), Config{SymbolWidth: 0.02})
	d, err := NewDynamic([]*Tag{a, b}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d.ActiveAt(0.5) != a {
		t.Fatal("frame 0 should be active at t=0.5")
	}
	if d.ActiveAt(1.5) != b {
		t.Fatal("frame 1 should be active at t=1.5")
	}
	if d.ActiveAt(2.5) != a {
		t.Fatal("cycling should return to frame 0")
	}
	if d.ActiveAt(-1) != a {
		t.Fatal("negative time clamps to frame 0")
	}
	if d.Length() != a.Length() {
		t.Fatal("dynamic length mismatch")
	}
}

func TestDynamicTagValidation(t *testing.T) {
	a := mustNew(t, coding.MustPacket("00"), Config{SymbolWidth: 0.02})
	c := mustNew(t, coding.MustPacket("0"), Config{SymbolWidth: 0.02}) // shorter
	if _, err := NewDynamic([]*Tag{a, c}, 1.0); err == nil {
		t.Fatal("mismatched frame lengths should fail")
	}
	if _, err := NewDynamic(nil, 1.0); err == nil {
		t.Fatal("no frames should fail")
	}
	if _, err := NewDynamic([]*Tag{a}, 0); err == nil {
		t.Fatal("zero period should fail")
	}
}

func TestProfileLookupProperty(t *testing.T) {
	tg := mustNew(t, coding.MustPacket("0110"), Config{SymbolWidth: 0.025})
	f := func(frac float64) bool {
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			return true
		}
		frac = math.Mod(math.Abs(frac), 1)
		x := frac * tg.Length()
		if x >= tg.Length() {
			return true
		}
		m, ok := tg.Profile().MaterialAt(x)
		// Every in-range position maps to one of the two stripe
		// materials.
		return ok && (m.Name == tg.HighMat.Name || m.Name == tg.LowMat.Name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mustNew is New for fixed test tags, failing the test on error.
func mustNew(t *testing.T, p coding.Packet, cfg Config) *Tag {
	t.Helper()
	tg, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}
