package dsp

import (
	"math"
	"testing"
)

func TestMovingAveragePreservesConstant(t *testing.T) {
	x := []float64{3, 3, 3, 3, 3, 3}
	for _, w := range []int{1, 2, 3, 5, 9} {
		out := MovingAverage(x, w)
		for i, v := range out {
			if math.Abs(v-3) > 1e-12 {
				t.Fatalf("window %d sample %d: %v", w, i, v)
			}
		}
	}
}

func TestMovingAverageSmoothsStep(t *testing.T) {
	x := make([]float64, 20)
	for i := 10; i < 20; i++ {
		x[i] = 1
	}
	out := MovingAverage(x, 5)
	// The step edge must be strictly between the levels.
	if out[10] <= 0 || out[10] >= 1 {
		t.Fatalf("edge sample %v not smoothed", out[10])
	}
	// Far from the edge the levels are intact.
	if out[2] != 0 || out[18] != 1 {
		t.Fatalf("levels altered: %v, %v", out[2], out[18])
	}
}
