package stream

import "sync"

// The engine pools what a session holds only while it is busy, so an
// idle session keeps none of it: ring backing arrays (ringBufPool,
// ring.go) while samples wait to be decoded, decoder segment buffers
// (decoder.Incremental) while a segment is open, and detection batches
// here. All are global sync.Pools, so the capacity survives engine
// restarts too (a pipeline that tears one engine down and builds the
// next starts warm).

// batchPool recycles detection batch slices. One batch is allocated
// per decode step that produced detections, handed to the consumer
// through Batches(), and — when the consumer honors the RecycleBatch
// contract — returned here once drained.
var batchPool = sync.Pool{}

// getBatch returns an empty batch with at least capHint capacity.
func getBatch(capHint int) []Detection {
	if v := batchPool.Get(); v != nil {
		if b := *(v.(*[]Detection)); cap(b) >= capHint {
			return b[:0]
		}
	}
	return make([]Detection, 0, capHint)
}

// RecycleBatch returns a detection batch received from Batches() (or
// built by Decoder.Feed/Flush) to the engine's batch pool. Call it
// after the batch has been fully consumed; the Detection values —
// including their Bits payloads — remain valid if copied out, only the
// batch slice itself is reused. Recycling is optional: consumers that
// retain batches simply leave the pool cold. A nil or empty batch is
// ignored.
func RecycleBatch(batch []Detection) {
	if cap(batch) == 0 {
		return
	}
	// Drop the element payloads so pooled slices do not pin decoded
	// bit buffers or error values until their next use.
	clear(batch[:cap(batch)])
	batch = batch[:0]
	batchPool.Put(&batch)
}
