package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refQuantile is the sorted-slice reference the histogram is measured
// against: same rank convention (ceil(q*n), 1-based).
func refQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestHistogramQuantileAccuracy checks the log-bucketed readout
// against a sorted-slice reference across distributions with very
// different shapes: the bucket scheme guarantees ≤6.25% relative
// error above the exact region, exactness below it.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := map[string]func() int64{
		"uniform":     func() int64 { return rng.Int63n(1_000_000) },
		"exponential": func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"lognormal":   func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 8)) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 5_000_000 + rng.Int63n(1_000_000) // slow tail
			}
			return 1_000 + rng.Int63n(500)
		},
		"small-exact": func() int64 { return rng.Int63n(histExactLimit) },
	}
	quantiles := []float64{0.5, 0.9, 0.99}
	for name, draw := range distributions {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			values := make([]int64, 20_000)
			for i := range values {
				values[i] = draw()
				h.Observe(values[i])
			}
			sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
			s := h.Snapshot()
			if s.Count != int64(len(values)) {
				t.Fatalf("count = %d, want %d", s.Count, len(values))
			}
			if s.Min != values[0] || s.Max != values[len(values)-1] {
				t.Fatalf("min/max = %d/%d, want %d/%d", s.Min, s.Max, values[0], values[len(values)-1])
			}
			for _, q := range quantiles {
				got := s.Quantile(q)
				want := float64(refQuantile(values, q))
				if want < histExactLimit {
					if got != want {
						t.Errorf("q%.2f = %g, want exactly %g (exact region)", q, got, want)
					}
					continue
				}
				if rel := math.Abs(got-want) / want; rel > 0.0625 {
					t.Errorf("q%.2f = %g, want %g (±6.25%%), relative error %.2f%%", q, got, want, rel*100)
				}
			}
		})
	}
}

func TestHistogramEmptyAndEdges(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty histogram snapshot not zero: %+v", s)
	}
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	s = h.Snapshot()
	if s.Count != 2 || s.Min != 0 || s.Max != 0 || s.Quantile(1) != 0 {
		t.Fatalf("zero observations mis-tracked: %+v", s)
	}
}

// TestHistogramBucketsMonotone proves the bucket index function is
// monotone and consistent with its bounds over the value boundaries
// where off-by-ones live.
func TestHistogramBucketsMonotone(t *testing.T) {
	last := -1
	for _, v := range []int64{0, 1, 14, 15, 16, 17, 31, 32, 33, 63, 64, 1 << 20, 1<<20 + 1, 1 << 40, (1 << 62) + 12345, math.MaxInt64} {
		b := histBucket(v)
		if b < last {
			t.Fatalf("bucket(%d) = %d < previous %d: not monotone", v, b, last)
		}
		if b >= histBucketCount {
			t.Fatalf("bucket(%d) = %d out of range %d", v, b, histBucketCount)
		}
		lo, hi := histBucketBounds(b)
		if v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d landed in bucket %d with bounds [%d,%d)", v, b, lo, hi)
		}
		last = b
	}
}

// TestCounterConcurrent hammers one counter from many goroutines; the
// striped sum must be exact. Run under -race in the CI concurrency
// tier.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, perG = 16, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramConcurrent checks that concurrent observers lose
// nothing: count, sum and extremes all reconcile.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 5_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	n := int64(goroutines * perG)
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	if s.Sum != n*(n-1)/2 {
		t.Fatalf("sum = %d, want %d", s.Sum, n*(n-1)/2)
	}
	if s.Min != 0 || s.Max != n-1 {
		t.Fatalf("min/max = %d/%d, want 0/%d", s.Min, s.Max, n-1)
	}
}
