package decoder

import (
	"testing"

	"passivelight/internal/trace"
)

// warpedCopy time-compresses the second half of a signal by factor 2,
// mimicking the paper's mid-pass speed doubling.
func warpedCopy(x []float64) []float64 {
	half := len(x) / 2
	out := append([]float64{}, x[:half]...)
	for i := half; i < len(x); i += 2 {
		out = append(out, x[i])
	}
	return out
}

func TestClassifierPicksCorrectBaseline(t *testing.T) {
	a := syntheticPacketTrace("00", 1000, 0.2, 90, 12, 10, 0)
	b := syntheticPacketTrace("10", 1000, 0.2, 90, 12, 10, 0)
	cls := NewClassifier(256)
	if err := cls.AddBaseline("00", a); err != nil {
		t.Fatal(err)
	}
	if err := cls.AddBaseline("10", b); err != nil {
		t.Fatal(err)
	}
	// Distort the '10' packet with a mid-pass speed doubling.
	distorted := trace.New(1000, 0, warpedCopy(b.Samples))
	matches, err := cls.Classify(distorted)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].Label != "10" {
		t.Fatalf("classified as %q (distances %+v)", matches[0].Label, matches)
	}
	if matches[0].Distance >= matches[1].Distance {
		t.Fatal("matches not sorted by distance")
	}
}

func TestClassifierSelfDistanceSmall(t *testing.T) {
	a := syntheticPacketTrace("00", 1000, 0.2, 90, 12, 10, 0)
	b := syntheticPacketTrace("10", 1000, 0.2, 90, 12, 10, 0)
	cls := NewClassifier(256)
	if err := cls.AddBaseline("00", a); err != nil {
		t.Fatal(err)
	}
	self, err := cls.SelfDistance(a)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cls.Classify(b)
	if err != nil {
		t.Fatal(err)
	}
	// The self-distance scale must sit below the cross-packet
	// distance (as 131 < 172 in the paper).
	if self >= m[0].Distance {
		t.Fatalf("self %v >= cross %v", self, m[0].Distance)
	}
}

func TestClassifierErrors(t *testing.T) {
	cls := NewClassifier(0) // default length
	if _, err := cls.Classify(syntheticPacketTrace("0", 1000, 0.2, 90, 12, 10, 0)); err == nil {
		t.Fatal("classify without baselines should fail")
	}
	if err := cls.AddBaseline("x", nil); err == nil {
		t.Fatal("nil baseline should fail")
	}
	if err := cls.AddBaseline("x", trace.New(1000, 0, []float64{1})); err == nil {
		t.Fatal("short baseline should fail")
	}
	ok := syntheticPacketTrace("0", 1000, 0.2, 90, 12, 10, 0)
	if err := cls.AddBaseline("ok", ok); err != nil {
		t.Fatal(err)
	}
	if _, err := cls.Classify(nil); err == nil {
		t.Fatal("nil probe should fail")
	}
	if _, err := cls.SelfDistance(nil); err == nil {
		t.Fatal("nil self-distance should fail")
	}
}

func TestEuclideanClassifierWeakerUnderWarp(t *testing.T) {
	// Construct a case where Euclidean matching fails but DTW works:
	// the warped '10' is point-wise closer to '00' than to '10' once
	// the second half shifts.
	a := syntheticPacketTrace("00", 1000, 0.2, 90, 12, 10, 0)
	b := syntheticPacketTrace("10", 1000, 0.2, 90, 12, 10, 0)
	dtwCls := NewClassifier(256)
	eucCls := NewClassifier(256)
	eucCls.UseEuclidean = true
	for _, c := range []*Classifier{dtwCls, eucCls} {
		if err := c.AddBaseline("00", a); err != nil {
			t.Fatal(err)
		}
		if err := c.AddBaseline("10", b); err != nil {
			t.Fatal(err)
		}
	}
	distorted := trace.New(1000, 0, warpedCopy(b.Samples))
	dm, err := dtwCls.Classify(distorted)
	if err != nil {
		t.Fatal(err)
	}
	em, err := eucCls.Classify(distorted)
	if err != nil {
		t.Fatal(err)
	}
	if dm[0].Label != "10" {
		t.Fatalf("DTW misclassified: %q", dm[0].Label)
	}
	// The Euclidean margin must be worse (smaller relative gap) even
	// if it happens to rank correctly.
	dtwGap := dm[1].Distance - dm[0].Distance
	eucGap := em[1].Distance - em[0].Distance
	if dm[0].Distance > 0 && em[0].Distance > 0 {
		if eucGap/em[0].Distance > dtwGap/dm[0].Distance {
			t.Fatalf("Euclidean margin (%.3f) should be weaker than DTW (%.3f)",
				eucGap/em[0].Distance, dtwGap/dm[0].Distance)
		}
	}
}
