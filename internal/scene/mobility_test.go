package scene

import (
	"math"
	"testing"
)

func TestLaneOffsetHoldsThenFollows(t *testing.T) {
	inner := ConstantSpeed{Start: -2, Speed: 5}
	lo := LaneOffset{Inner: inner, Delay: 3}
	if got := lo.PositionAt(0); got != -2 {
		t.Fatalf("t=0: %v", got)
	}
	if got := lo.PositionAt(3); got != -2 {
		t.Fatalf("t=delay: %v", got)
	}
	if got, want := lo.PositionAt(4.5), inner.PositionAt(1.5); got != want {
		t.Fatalf("t=4.5: %v want %v", got, want)
	}
}

func TestStopAndGo(t *testing.T) {
	sg, err := StopAndGo(0, 2, []Stop{{At: 1, Dwell: 2}, {At: 5, Dwell: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{0, 0},
		{1, 2},   // cruised 1 s at 2 m/s
		{2, 2},   // dwelling
		{3, 2},   // dwell ends at t=3
		{5, 6},   // cruised 2 more seconds
		{6, 6},   // second dwell
		{8, 10},  // cruising again
		{10, 14}, // final segment extrapolates
	}
	for _, tc := range cases {
		if got := sg.PositionAt(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("t=%v: got %v want %v", tc.t, got, tc.want)
		}
	}
}

func TestStopAndGoValidation(t *testing.T) {
	if _, err := StopAndGo(0, 0, nil); err == nil {
		t.Fatal("zero speed should fail")
	}
	if _, err := StopAndGo(0, 2, []Stop{{At: 1, Dwell: 0}}); err == nil {
		t.Fatal("zero dwell should fail")
	}
	if _, err := StopAndGo(0, 2, []Stop{{At: 2, Dwell: 2}, {At: 3, Dwell: 1}}); err == nil {
		t.Fatal("overlapping stops should fail")
	}
	// No stops degenerates to constant speed.
	sg, err := StopAndGo(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sg.PositionAt(3); got != 7 {
		t.Fatalf("no-stop trajectory: %v", got)
	}
}

func TestLaneCompose(t *testing.T) {
	mk := func(share float64) *Object {
		return &Object{Name: "o", LateralShare: share}
	}
	if err := LaneCompose(mk(0.5), mk(0.3), mk(0.2)); err != nil {
		t.Fatalf("full FoV split should compose: %v", err)
	}
	if err := LaneCompose(mk(0.6), mk(0.6)); err == nil {
		t.Fatal("overcommitted shares should fail")
	}
	if err := LaneCompose(mk(0)); err == nil {
		t.Fatal("zero share should fail")
	}
}

func TestLaneShares(t *testing.T) {
	shares := LaneShares(4, 1)
	var sum float64
	seen := map[float64]bool{}
	for _, s := range shares {
		if s <= 0 {
			t.Fatalf("non-positive share %v", s)
		}
		if seen[s] {
			t.Fatalf("duplicate share %v", s)
		}
		seen[s] = true
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	for i := 1; i < len(shares); i++ {
		if shares[i] >= shares[i-1] {
			t.Fatal("shares should descend (dominance ordering)")
		}
	}
	if LaneShares(0, 1) != nil {
		t.Fatal("n=0 should return nil")
	}
}
