package decoder

import (
	"math"
	"math/rand"
	"testing"
)

// TestRangeMaxMatchesScan checks the lazily built sparse table against
// a direct scan for every [lo, hi), under table caps that serve all,
// some or none of the widths from levels. Each table is reset onto a
// reused source with new contents, so a level left over from the
// previous signal would show.
func TestRangeMaxMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var r rangeMax
	src := make([]float64, 0, 140)
	for trial := 0; trial < 24; trial++ {
		src = src[:1+rng.Intn(cap(src))]
		for i := range src {
			if trial%2 == 0 {
				src[i] = rng.NormFloat64()
			} else {
				src[i] = float64(rng.Intn(4)) // ties
			}
		}
		maxW := []int{1, 3, 16, 1 << 20}[trial%4]
		r.reset(src, maxW)
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
			want := src[q.lo]
			for _, v := range src[q.lo+1 : q.hi] {
				if v > want {
					want = v
				}
			}
			if got := r.max(q.lo, q.hi); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d maxW %d: max[%d,%d) = %v, scan %v", trial, maxW, q.lo, q.hi, got, want)
			}
		}
	}
}
