package stream

import (
	"testing"
)

// ringContents takes the ring's samples, copies them out and returns
// the backing array to the pool, as the engine's drain sites do.
func ringContents(r *ring) []float64 {
	samples, box := r.take()
	out := append([]float64(nil), samples...)
	putRingBuf(box)
	return out
}

func TestRingPushDrain(t *testing.T) {
	r := newRing(8)
	r.push([]float64{1, 2, 3})
	if r.len() != 3 {
		t.Fatalf("len %d", r.len())
	}
	got := ringContents(r)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("drain %v", got)
	}
	if r.len() != 0 || r.buf != nil {
		t.Fatal("take should empty the ring and hand over its array")
	}
}

func TestRingWraparound(t *testing.T) {
	r := newRing(8)
	r.push([]float64{1, 2, 3, 4, 5, 6})
	ringContents(r)
	// head is reset by take; force wrap with two pushes
	r.push([]float64{1, 2, 3, 4, 5})
	if d := r.push([]float64{6, 7, 8, 9, 10}); d != 2 {
		t.Fatalf("dropped %d, want 2", d)
	}
	got := ringContents(r)
	want := []float64{3, 4, 5, 6, 7, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRingOversizedChunk(t *testing.T) {
	r := newRing(4)
	if d := r.push([]float64{1, 2, 3, 4, 5, 6, 7}); d != 3 {
		t.Fatalf("dropped %d, want 3", d)
	}
	got := ringContents(r)
	want := []float64{4, 5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
