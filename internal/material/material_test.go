package material

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStandardMaterialsValid(t *testing.T) {
	for _, m := range []Material{
		AluminumTape, BlackNapkin, Tarmac, CarPaintMetal,
		WindshieldGlass, WhitePaper, MirrorFilm, DarkCloth,
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestHighLowContrast(t *testing.T) {
	// The paper's symbol materials must have strong contrast, and the
	// LOW material must blend with the tarmac ground.
	if c := AluminumTape.Reflectance - BlackNapkin.Reflectance; c < 0.5 {
		t.Fatalf("aluminum/napkin contrast %.2f too low", c)
	}
	if c := BlackNapkin.Reflectance - Tarmac.Reflectance; c > 0.05 || c < -0.05 {
		t.Fatalf("napkin should be close to tarmac: %.2f", c)
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	bad := Material{Name: "bad", Reflectance: 1.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for reflectance > 1")
	}
	bad = Material{Name: "bad", Reflectance: 0.5, SpecularFraction: -0.1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative specular fraction")
	}
}

func TestWithDirtMovesTowardDust(t *testing.T) {
	dirty := AluminumTape.WithDirt(0.5)
	if dirty.Reflectance >= AluminumTape.Reflectance {
		t.Fatalf("dirt should darken aluminum: %.2f", dirty.Reflectance)
	}
	dirtyNapkin := BlackNapkin.WithDirt(0.5)
	if dirtyNapkin.Reflectance <= BlackNapkin.Reflectance {
		t.Fatalf("dirt should brighten a black napkin: %.2f", dirtyNapkin.Reflectance)
	}
	// Full dirt erases specularity.
	caked := MirrorFilm.WithDirt(1)
	if caked.SpecularFraction != 0 {
		t.Fatalf("fully dirty mirror still specular: %.2f", caked.SpecularFraction)
	}
	// Coverage clamps.
	if m := AluminumTape.WithDirt(2); m.Validate() != nil {
		t.Fatal("over-coverage produced invalid material")
	}
	if m := AluminumTape.WithDirt(-1); m.Reflectance != AluminumTape.Reflectance {
		t.Fatal("negative coverage should be a no-op")
	}
}

func TestWithDirtPropertyStaysValid(t *testing.T) {
	f := func(refl, spec, cov float64) bool {
		// Map arbitrary floats into [0,1].
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0.5
			}
			return math.Abs(math.Mod(v, 1))
		}
		m := Material{Name: "m", Reflectance: clamp(refl), SpecularFraction: clamp(spec)}
		return m.WithDirt(clamp(cov)).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDirtReducesContrast(t *testing.T) {
	clean := AluminumTape.Reflectance - BlackNapkin.Reflectance
	dirty := AluminumTape.WithDirt(0.6).Reflectance - BlackNapkin.WithDirt(0.6).Reflectance
	if dirty >= clean {
		t.Fatalf("dirt should reduce contrast: clean %.2f dirty %.2f", clean, dirty)
	}
}
