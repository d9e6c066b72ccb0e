package stream

import (
	"slices"
	"sync"
)

// ring is a bounded FIFO of RSS samples with drop-oldest overflow: a
// session that falls behind loses its oldest samples (a stale pass)
// rather than growing without bound or stalling the network reader.
//
// A ring holds a backing array only while it has undrained samples:
// the first push takes one from ringBufPool (or allocates it) and take
// hands it to the draining goroutine, which returns it to the pool once
// decoded. Idle sessions — the long quiet tail after each pass — thus
// hold no ring memory at all. The array is sized lazily and grown
// geometrically up to the configured bound, so a lightly fed session
// costs a few KB rather than the full QueueSamples capacity (32768
// samples would be 256 KB). Drop-oldest semantics only engage once the
// array has reached the bound, so the observable push/take behavior is
// identical to a fully pre-allocated ring.
type ring struct {
	buf []float64
	// box is ringBufPool's handle on buf's array. It travels with the
	// array, so returning the array to the pool allocates nothing.
	box  *[]float64
	head int // index of the oldest sample
	size int
	max  int // capacity bound (drop-oldest engages here)
}

// ringBufPool recycles ring backing arrays across sessions and across
// engines. Entries are *[]float64 boxes holding the full array.
var ringBufPool = sync.Pool{}

// getRingBuf returns a pooled array of at least n samples, or a fresh
// one. A pooled array too small for n goes back for a smaller ring
// rather than being dropped.
func getRingBuf(n int) *[]float64 {
	if v := ringBufPool.Get(); v != nil {
		box := v.(*[]float64)
		if cap(*box) >= n {
			return box
		}
		ringBufPool.Put(box)
	}
	buf := make([]float64, n)
	return &buf
}

// putRingBuf returns an array obtained from take to the pool; a nil box
// (an empty ring had nothing to hand over) is ignored.
func putRingBuf(box *[]float64) {
	if box != nil {
		ringBufPool.Put(box)
	}
}

func newRing(capacity int) *ring {
	return &ring{max: capacity}
}

func (r *ring) len() int { return r.size }

// capacity is the configured bound, regardless of how much backing
// store has been materialized so far.
func (r *ring) capacity() int { return r.max }

// retained is the capacity of the backing array the ring holds now, in
// samples (zero once drained).
func (r *ring) retained() int { return cap(r.buf) }

// grow materializes backing store for at least need samples (clamped
// to the bound), linearizing the contents so head restarts at 0.
func (r *ring) grow(need int) {
	newCap := 2 * len(r.buf)
	if newCap < 1024 {
		newCap = 1024
	}
	for newCap < need {
		newCap *= 2
	}
	if newCap > r.max {
		newCap = r.max
	}
	if newCap <= cap(r.buf) && r.head+r.size <= len(r.buf) {
		// The array has room and the contents do not wrap: extend it.
		r.buf = r.buf[:newCap]
		return
	}
	box := getRingBuf(newCap)
	buf := (*box)[:newCap]
	n := copy(buf, r.buf[r.head:r.head+min(r.size, len(r.buf)-r.head)])
	if n < r.size {
		copy(buf[n:], r.buf[:r.size-n])
	}
	putRingBuf(r.box)
	r.buf, r.box = buf, box
	r.head = 0
}

// push appends chunk, evicting the oldest samples on overflow, and
// returns how many were dropped.
func (r *ring) push(chunk []float64) (dropped int) {
	if need := r.size + len(chunk); need > len(r.buf) && len(r.buf) < r.max {
		r.grow(need)
	}
	c := len(r.buf)
	if len(chunk) >= c {
		// The chunk alone fills the ring: keep only its tail.
		dropped = r.size + len(chunk) - c
		copy(r.buf, chunk[len(chunk)-c:])
		r.head = 0
		r.size = c
		return dropped
	}
	if over := r.size + len(chunk) - c; over > 0 {
		r.head = (r.head + over) % c
		r.size -= over
		dropped = over
	}
	tail := (r.head + r.size) % c
	n := copy(r.buf[tail:], chunk)
	copy(r.buf, chunk[n:])
	r.size += len(chunk)
	return dropped
}

// take empties the ring and hands its contents, in stream order, to the
// caller together with the backing array's pool box; the ring holds no
// array afterwards. The caller reads samples outside the session lock
// and then returns the array with putRingBuf. An empty ring returns
// nil, nil.
func (r *ring) take() (samples []float64, box *[]float64) {
	if r.head+r.size > len(r.buf) {
		// Drop-oldest wrapped the contents: rotate them to the front.
		slices.Reverse(r.buf[:r.head])
		slices.Reverse(r.buf[r.head:])
		slices.Reverse(r.buf)
		r.head = 0
	}
	samples, box = r.buf[r.head:r.head+r.size], r.box
	r.buf, r.box = nil, nil
	r.head, r.size = 0, 0
	return samples, box
}
