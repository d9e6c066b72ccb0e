package dsp

import (
	"math"
	"testing"
)

// FuzzProminentExtrema holds the linear threshold scan to the
// exact-prominence reference (FindPeaks and FindValleys with
// MinProminence) for both polarities. The signal is a slow wave of
// fuzzed period, rounded so plateaus and tied candidates are common
// (and long enough that the reference's walk budget can fall back to
// its batch sweep), perturbed sample by sample with quantized steps
// and NaN, ±Inf and -0 samples. The threshold is fuzzed too: NaN,
// zero and negative values must keep every extremum, as the
// reference's filter does.
func FuzzProminentExtrema(f *testing.F) {
	f.Add([]byte{}, uint8(40), 2.0)
	f.Add([]byte{1, 2, 3, 7, 0, 5}, uint8(0), 0.5)
	f.Add([]byte{4, 4, 255, 4, 254, 253, 252, 9}, uint8(90), 4.0)
	f.Add([]byte{9, 200, 17, 3, 3, 3}, uint8(13), math.NaN())
	f.Add([]byte{7, 7, 7}, uint8(200), 0.0)
	f.Add([]byte{0, 128, 64}, uint8(5), -1.0)
	f.Add([]byte{48, 48}, uint8(84), 0.5) // a prominence exactly at the threshold
	f.Fuzz(func(t *testing.T, data []byte, period uint8, minProm float64) {
		n := 16 + 4*len(data)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Round(8 * math.Sin(2*math.Pi*float64(i)/float64(4+int(period))))
		}
		for i, b := range data {
			j := 4*i + int(b%4)
			switch v := b / 4; v {
			case 63:
				x[j] = math.NaN()
			case 62:
				x[j] = math.Inf(1)
			case 61:
				x[j] = math.Inf(-1)
			case 60:
				x[j] = math.Copysign(0, -1)
			default:
				x[j] += float64(int(v%9)-4) / 2
			}
		}
		for _, c := range []struct {
			pol Polarity
			ref func([]float64, PeakOptions) []RefPeak
		}{{Maxima, FindPeaks}, {Minima, FindValleys}} {
			got := ProminentExtrema(nil, x, minProm, c.pol)
			want := c.ref(x, PeakOptions{MinProminence: minProm})
			if len(got) != len(want) {
				t.Fatalf("polarity %d, minProm %v: %d extrema, reference %d\n got %v\nwant %v", c.pol, minProm, len(got), len(want), got, want)
			}
			for k, w := range want {
				if got[k].Index != w.Index || math.Float64bits(got[k].Value) != math.Float64bits(w.Value) {
					t.Fatalf("polarity %d, minProm %v: extremum %d is %+v, reference %+v", c.pol, minProm, k, got[k], w.Peak)
				}
			}
		}
	})
}
