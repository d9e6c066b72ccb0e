package geom

import (
	"math"
	"testing"
)

func TestAngleConversion(t *testing.T) {
	if math.Abs(Radians(180)-math.Pi) > 1e-12 {
		t.Fatal("radians")
	}
	if math.Abs(Radians(-90)+math.Pi/2) > 1e-12 {
		t.Fatal("negative radians")
	}
}

func TestConeFootprint(t *testing.T) {
	c := NewConeDeg(45)
	if math.Abs(c.FootprintRadius(1)-1) > 1e-12 {
		t.Fatalf("45-degree cone at h=1: %v", c.FootprintRadius(1))
	}
	narrow := NewConeDeg(4)
	if r := narrow.FootprintRadius(1); math.Abs(r-math.Tan(Radians(4))) > 1e-12 {
		t.Fatalf("4-degree footprint %v", r)
	}
	if r := c.FootprintRadius(0); r != 0 {
		t.Fatalf("footprint at zero height %v", r)
	}
}

func TestIncidenceCosAndSlant(t *testing.T) {
	if got := IncidenceCos(0, 1); got != 1 {
		t.Fatalf("vertical ray cos %v", got)
	}
	if got := IncidenceCos(1, 1); math.Abs(got-math.Sqrt2/2) > 1e-12 {
		t.Fatalf("45-degree cos %v", got)
	}
	if got := IncidenceCos(0, 0); got != 1 {
		t.Fatalf("degenerate cos %v", got)
	}
}
