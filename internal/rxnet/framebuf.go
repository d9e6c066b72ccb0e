package rxnet

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// This file is the zero-copy half of the wire protocol: a reusable
// frame read buffer (one allocation per connection instead of one per
// frame) and a reference-counted pooled sample buffer, so the path
// from the wire into a session ring buffer costs exactly one copy
// (decode into the pooled buffer) instead of three (frame body,
// samples, ring).

// FrameReader reads frames from one connection into a single growing
// buffer. The body returned by Next is valid only until the following
// Next call — callers must copy anything they retain, which every
// Unmarshal* in this package already does.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads one frame, returning its type and body. The body aliases
// the reader's internal buffer.
func (fr *FrameReader) Next() (FrameType, []byte, error) {
	var hdr [7]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != MagicByte {
		return 0, nil, ErrBadMagic
	}
	if hdr[1] != Version {
		return 0, nil, ErrBadVersion
	}
	n := binary.BigEndian.Uint32(hdr[3:])
	if n > MaxFrameSize {
		return 0, nil, ErrFrameTooBig
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err
	}
	return FrameType(hdr[2]), body, nil
}

// SampleBuf is a reference-counted, pooled sample buffer. The listener
// decodes each wire chunk into one and threads it through ChunkEvent
// and SourceChunk down to Engine.FeedTagged; whoever holds the last
// reference calls Release after the samples have been consumed (copied
// into a session ring), returning the buffer to the pool. A nil
// SampleBuf is valid everywhere and makes Release a no-op, so
// sources whose chunks are not pooled (trace subslices, caller-owned
// slices) need no special casing.
type SampleBuf struct {
	refs    atomic.Int32
	samples []float64
}

var sampleBufPool = sync.Pool{
	New: func() any { return &SampleBuf{samples: make([]float64, MaxChunkSamples)} },
}

// getSampleBuf returns a buffer sized for n samples with one
// outstanding reference.
func getSampleBuf(n int) *SampleBuf {
	sb := sampleBufPool.Get().(*SampleBuf)
	if cap(sb.samples) < n {
		sb.samples = make([]float64, n)
	}
	sb.samples = sb.samples[:n]
	sb.refs.Store(1)
	return sb
}

// Release drops one reference; the last one returns the buffer to the
// pool. The samples must not be touched afterwards.
func (sb *SampleBuf) Release() {
	if sb == nil {
		return
	}
	if n := sb.refs.Add(-1); n == 0 {
		sampleBufPool.Put(sb)
	} else if n < 0 {
		panic("rxnet: SampleBuf over-released")
	}
}
