package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: values below 2*histSubCount are counted
// exactly in their own bucket; above that, each power-of-two octave is
// split into histSubCount linear sub-buckets, so the relative width of
// any bucket is 1/histSubCount (12.5%) and a midpoint readout is
// within ~6.25% of the true value. 64-bit values fit in
// histBucketCount buckets total (one atomic each, ~4 KB per
// histogram).
const (
	histSubBits     = 3
	histSubCount    = 1 << histSubBits // 8 sub-buckets per octave
	histExactLimit  = 2 * histSubCount // values < 16 are exact
	histBucketCount = histExactLimit + (63-histSubBits)*histSubCount
)

// histBucket maps a non-negative value to its bucket index.
func histBucket(v int64) int {
	if v < histExactLimit {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	exp := bits.Len64(u)           // >= histSubBits+2
	shift := exp - histSubBits - 1 // >= 1
	sub := int(u>>uint(shift)) - histSubCount
	return histExactLimit + (shift-1)*histSubCount + sub
}

// histBucketBounds returns the [lo, hi) value range of a bucket; the
// top bucket saturates hi at MaxInt64 (inclusive there).
func histBucketBounds(i int) (lo, hi int64) {
	if i < histExactLimit {
		return int64(i), int64(i) + 1
	}
	shift := (i-histExactLimit)/histSubCount + 1
	sub := (i - histExactLimit) % histSubCount
	lo = int64(histSubCount+sub) << uint(shift)
	hi = lo + int64(1)<<uint(shift)
	if hi < lo {
		hi = math.MaxInt64
	}
	return lo, hi
}

// Histogram is a log-bucketed distribution of non-negative int64
// observations (durations in nanoseconds, sizes in bytes, ...):
// wait-free single-atomic-add recording, quantile readout within
// ~6.25% relative error (exact below 16). The zero value is ready to
// use.
type Histogram struct {
	buckets [histBucketCount]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	min     atomic.Int64 // stored as min+1 so zero means "unset"
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.min.Load()
		if old != 0 && old <= v+1 {
			break
		}
		if h.min.CompareAndSwap(old, v+1) {
			break
		}
	}
}

// HistogramSnapshot is a consistent-enough point-in-time copy of a
// histogram — the one distribution schema shared by /metrics.json
// and the Prometheus summary rendering.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// P50/P90/P99 are bucket-midpoint quantiles (~6.25% relative
	// error; exact below 16).
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`

	buckets [histBucketCount]int64
}

// Snapshot copies the buckets and computes the summary quantiles.
// Concurrent Observes may land between field reads; each field is
// individually consistent and Count matches the copied buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.buckets[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	if m := h.min.Load(); m != 0 {
		s.Min = m - 1
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile reads the q-th quantile from the snapshot's buckets.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based; q=0 is the first, q=1
	// the last.
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range s.buckets {
		n := s.buckets[i]
		if n == 0 {
			continue
		}
		seen += n
		if seen >= rank {
			if i < histExactLimit {
				return float64(i) // exact bucket: one value per bucket
			}
			lo, hi := histBucketBounds(i)
			// Clamp to the tracked extremes so the tails report the
			// exact min/max instead of a bucket midpoint beyond them.
			mid := float64(lo) + float64(hi-lo)/2
			if mid < float64(s.Min) {
				mid = float64(s.Min)
			}
			if mid > float64(s.Max) {
				mid = float64(s.Max)
			}
			return mid
		}
	}
	return float64(s.Max)
}
