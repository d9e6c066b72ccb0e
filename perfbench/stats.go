package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles a tail figure may be reported
// at, highest first. The tail is the highest rung that still leaves at
// least minBeyond samples above it, so it never rests on a handful of
// outliers.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie above a reported tail
// percentile.
const minBeyond = 10

// rankIndex is the 0-based nearest-rank index of percentile p in n
// sorted samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return max(0, min(i, n-1))
}

// percentile reads percentile p (0..100) from sorted samples by
// nearest rank. Zero samples read as 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(p, len(sorted))]
}

// median sorts a copy of x and returns its middle value (the mean of
// the two middle values for an even count).
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a tail-latency figure with the evidence behind it.
type tail struct {
	Percentile float64
	Value      float64
	Samples    int
	Beyond     int
}

// tailOf picks the highest ladder percentile with at least minBeyond
// samples above its rank. ok is false when even the median has fewer
// than minBeyond samples beyond it (fewer than about 20 samples).
func tailOf(samples []float64) (t tail, ok bool) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		if n == 0 {
			break
		}
		idx := rankIndex(p, n)
		if beyond := n - 1 - idx; beyond >= minBeyond {
			return tail{Percentile: p, Value: s[idx], Samples: n, Beyond: beyond}, true
		}
	}
	return tail{Samples: n}, false
}

// heapProbe measures the live heap the system under test holds,
// excluding the generator's pre-rendered input: the baseline is taken
// once the inputs exist, and every later reading is relative to it.
type heapProbe struct{ base uint64 }

// liveHeapBytes forces two full collections and reads the live heap.
// The second one frees what the first only moved to the sync.Pool
// victim caches, so pooled scratch space never counts.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// setBaseline records the live heap right after input rendering.
func (h *heapProbe) setBaseline() { h.base = liveHeapBytes() }

// deltaMB is the live heap now minus the baseline, in MB.
func (h *heapProbe) deltaMB() float64 { return heapDeltaMB(h.base, liveHeapBytes()) }

// heapDeltaMB subtracts a baseline live-heap reading from a later one.
func heapDeltaMB(base, now uint64) float64 {
	return (float64(now) - float64(base)) / (1 << 20)
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupClock accumulates the process CPU time set-up spends, paused
// around measurement work (the heap baseline) that is not set-up.
// Set-up is deterministic work plus waits on events, so its CPU time
// tracks the work; its wall time on a shared two-vCPU host moved by
// 70 % between batches of identical runs.
type setupClock struct{ start, spent time.Duration }

func (c *setupClock) resume() { c.start = processCPU() }
func (c *setupClock) pause()  { c.spent += processCPU() - c.start }

// runtimeCounters is a runtime/metrics reading taken at the edges of a
// timed window.
type runtimeCounters struct {
	allocBytes uint64
	gcCPU, cpu float64
	cpuProcess time.Duration
	wall       time.Time
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		cpu:        s[2].Value.Float64(),
		cpuProcess: processCPU(),
		wall:       time.Now(),
	}
}

// window is the difference between two runtime readings.
type window struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcShare    float64
}

func since(start runtimeCounters) window {
	end := readRuntime()
	w := window{
		wall:       end.wall.Sub(start.wall),
		cpu:        end.cpuProcess - start.cpuProcess,
		allocBytes: end.allocBytes - start.allocBytes,
	}
	if d := end.cpu - start.cpu; d > 0 {
		w.gcShare = (end.gcCPU - start.gcCPU) / d
	}
	return w
}

// failure classes of one attempted pass.
const (
	passOK = iota
	passMissing
	passWrong
	passErr
	passDuplicate
)

// outcome is one event the pipeline emitted for a pass.
type outcome struct {
	Bits string
	Err  bool
}

// classifyPass decides a pass from every event it produced: exactly
// one event carrying the expected bits is the only success. A pass
// that ended in an error event, or decoded more than once, or decoded
// to other bits, or produced nothing, failed.
func classifyPass(want string, got []outcome) int {
	if len(got) == 0 {
		return passMissing
	}
	for _, o := range got {
		if o.Err {
			return passErr
		}
	}
	if len(got) > 1 {
		return passDuplicate
	}
	if got[0].Bits != want {
		return passWrong
	}
	return passOK
}

// failureCounts tallies classified passes.
type failureCounts struct {
	Attempted, Missing, Wrong, Err, Duplicate int
}

func (f *failureCounts) add(class int) {
	f.Attempted++
	switch class {
	case passMissing:
		f.Missing++
	case passWrong:
		f.Wrong++
	case passErr:
		f.Err++
	case passDuplicate:
		f.Duplicate++
	}
}

func (f failureCounts) Failed() int { return f.Missing + f.Wrong + f.Err + f.Duplicate }
