// Package telemetry is the repository's dependency-free observability
// substrate: sharded lock-free counters, snapshot-time gauges and
// log-bucketed histograms with quantile readout, collected in a Registry that
// snapshots to JSON and renders Prometheus text exposition. The hot
// layers (internal/stream, internal/rxnet, the root Pipeline) record
// into it; cmd/plnet serves it live on /metrics, /metrics.json and
// /healthz.
//
// Everything is stdlib-only and safe for concurrent use. Recording
// (Counter.Add, Histogram.Observe) is wait-free — one
// atomic add on a padded stripe or bucket — so instrumentation can sit
// on the per-chunk decode path without serializing the worker pool.
package telemetry

import (
	"sync/atomic"
	"unsafe"
)

// counterStripes is the stripe count of a Counter: a power of two,
// sized so that the handful of goroutines that share a hot counter
// (feeders on one side, decode workers on the other) land on distinct
// cache lines with high probability without bloating every counter on
// a big machine.
const counterStripes = 16

// stripedInt64 pads each stripe to its own cache line so concurrent
// adders on different stripes never false-share.
type stripedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// stripeOf picks a stripe for the calling goroutine. Go does not
// expose the running P, but goroutine stacks are spread across the
// address space, so hashing the address of a stack slot distributes
// concurrent callers across stripes at the cost of one instruction.
func stripeOf() uint64 {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	return uint64((p>>10)^(p>>20)) & (counterStripes - 1)
}

// Counter is a monotonically increasing sum, sharded across padded
// per-goroutine stripes so concurrent Adds on the decode hot path do
// not contend on one cache line. The zero value is ready to use.
type Counter struct {
	stripes [counterStripes]stripedInt64
}

// Add increments the counter. Negative deltas are a programming error
// but are applied as-is (the registry renders whatever the sum says).
func (c *Counter) Add(n int64) {
	c.stripes[stripeOf()].v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes. It is a snapshot: concurrent Adds may or
// may not be included, but the value never goes backwards across
// calls that happen after the Adds they observe.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}
