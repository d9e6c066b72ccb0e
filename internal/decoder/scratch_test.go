package decoder

import (
	"math"
	"math/rand"
	"testing"
)

// TestRangeMaxMatchesScan checks the one-level window-maximum table
// against the doubling table it replaced (doublingMax) for every
// [lo, hi), bit for bit, under table caps that serve all, some or none
// of the widths from levels. Lengths are random, so most are not a
// multiple of a level's block width and most windows straddle a block
// edge. Sources carry ties, signed zeros, ±Inf, NaNs at arbitrary
// positions and NaN suffixes (what smoothing makes of a NaN sample);
// on NaN-free sources both must also match a direct scan. Each table
// is reset onto a reused source with new contents, so a level left
// over from the previous signal would show.
func TestRangeMaxMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var r rangeMax
	var ref doublingMax
	src := make([]float64, 0, 300)
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0}
	for trial := 0; trial < 60; trial++ {
		src = src[:1+rng.Intn(cap(src))]
		for i := range src {
			switch trial % 3 {
			case 0:
				src[i] = rng.NormFloat64()
			case 1:
				src[i] = float64(rng.Intn(4)) // ties
			default:
				src[i] = math.Copysign(0, float64(rng.Intn(2)-1)) // ±0 ties
			}
		}
		hasNaN := false
		switch trial % 5 {
		case 1, 2:
			// Non-finite samples anywhere, NaN followed by numbers
			// included.
			for k := 0; k < 1+rng.Intn(6); k++ {
				v := special[rng.Intn(len(special))]
				src[rng.Intn(len(src))] = v
				hasNaN = hasNaN || math.IsNaN(v)
			}
		case 3:
			// A NaN suffix, as prefix-sum smoothing leaves it.
			for i := rng.Intn(len(src)); i < len(src); i++ {
				src[i] = math.NaN()
				hasNaN = true
			}
		}
		maxW := []int{1, 3, 16, 1 << 20}[trial%4]
		r.reset(src, maxW)
		ref.reset(src, maxW)
		// Visit queries in random order so levels are first built by
		// arbitrary widths.
		type query struct{ lo, hi int }
		var qs []query
		for lo := 0; lo < len(src); lo++ {
			for hi := lo + 1; hi <= len(src); hi++ {
				qs = append(qs, query{lo, hi})
			}
		}
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		for _, q := range qs {
			got := r.max(q.lo, q.hi)
			want := ref.max(q.lo, q.hi)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d maxW %d: max[%d,%d) = %v, doubling table %v (src %v)", trial, maxW, q.lo, q.hi, got, want, src)
			}
			if hasNaN {
				continue
			}
			scan := src[q.lo]
			for _, v := range src[q.lo+1 : q.hi] {
				if v > scan {
					scan = v
				}
			}
			if math.Float64bits(got) != math.Float64bits(scan) {
				t.Fatalf("trial %d maxW %d: max[%d,%d) = %v, scan %v", trial, maxW, q.lo, q.hi, got, scan)
			}
		}
	}
}
