// Package rxnet implements the paper's future-work item (5):
// networking the low-end receivers so they can share information
// about tracked objects. Receiver nodes decode passive packets
// locally and publish compact detection records to an aggregator
// over TCP; the aggregator fuses detections from receivers at known
// positions into object tracks (direction, speed, identity). Nodes
// that leave decoding to the server instead stream raw sample chunks
// to a ChunkListener, whose consumer decodes them and feeds the
// aggregator.
//
// The wire protocol is a length-prefixed binary framing (big endian)
// designed for microcontroller-class senders: no allocations beyond
// the payload, fixed header, bounded frame size. Sample chunks travel
// in one of two widths. A chunk whose every sample is an integer ADC
// code in [0, 65535] (the paper's receiver reads a 10-bit ADC) goes
// as 2-byte codes (FrameCodeChunk) on connections whose receiver
// answered the sender's Hello with FrameCodesOK (a sender that reads
// its connection asks for the answer in the Hello); every other chunk,
// and every chunk to a receiver that never answers, goes as float64
// samples (FrameSampleChunk). Receivers decode both into the same
// float64 samples, so decoding does not depend on the width.
package rxnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// Protocol limits.
const (
	// MagicByte opens every frame.
	MagicByte = 0xA7
	// Version of the wire protocol.
	Version = 1
	// MaxFrameSize bounds a frame body (sanity limit against corrupt
	// length prefixes).
	MaxFrameSize = 64 * 1024
	// MaxBitsLen bounds the decoded payload length in a detection.
	MaxBitsLen = 256
	// MaxChunkSamples bounds one SampleChunk (4096 samples = 32 KiB
	// of payload, comfortably under MaxFrameSize).
	MaxChunkSamples = 4096
)

// FrameType discriminates messages.
type FrameType uint8

// Frame types.
const (
	// FrameHello announces a receiver node and its position.
	FrameHello FrameType = iota + 1
	// FrameDetection carries one decoded passive packet.
	FrameDetection
	// FrameAck acknowledges a detection (aggregator -> node).
	FrameAck
	// Code 4 is reserved. Fused tracks reach subscribers in process
	// (Aggregator.Subscribe) and never travel on the wire; the code
	// stays so later frame numbers do not shift.
	_
	// FrameSampleChunk carries raw RSS samples from a node that
	// delegates decoding to the engine behind a ChunkListener.
	// Unacknowledged: chunk streams are high-rate and TCP already
	// orders them.
	FrameSampleChunk
	// FrameStreamEnd ends one chunk stream (cluster router -> engine):
	// the engine finishes the stream's current packet window, emits
	// buffered detections and releases the session. Sent on handoff,
	// before the stream's chunks replay on a new owner.
	FrameStreamEnd
	// FrameStreamNack refuses a chunk stream (engine -> router): the
	// sender will consume no more of the stream's chunks and the
	// router must re-route it, replaying from LastSeq+1.
	FrameStreamNack
	// FrameDrain announces the sender's drain state (engine ->
	// router): draining engines get no new streams assigned.
	FrameDrain
	// FrameDrainRequest asks an engine to start draining (router/ops
	// -> engine). Empty body.
	FrameDrainRequest
	// FrameEngineHello announces a decode engine to a cluster router
	// (engine -> router): the engine's stable ID and its chunk-ingest
	// listen address. The router admits it onto the ring (or refreshes
	// its address after a restart) — membership is engine-initiated,
	// no operator rebalance needed. Re-sent periodically as a
	// keepalive; admission is idempotent.
	FrameEngineHello
	// FrameRingUpdate answers an EngineHello (router -> engine) with
	// the router's active ring epoch and member set, so an engine can
	// observe its own admission.
	FrameRingUpdate
	// FrameThrottle carries a backpressure signal. Engines emit it
	// upstream when their session rings or batch channel run hot
	// (paused=true) and again when pressure clears (paused=false);
	// a router relays pause/resume to the receiver-node connections
	// whose streams feed the hot engine, so those nodes stall at the
	// edge instead of overrunning it.
	FrameThrottle
	// FrameStreamAck confirms consumption on a chunk stream (engine ->
	// router): every chunk through LastSeq has been decoded, so the
	// router can trim the stream's replay buffer — acked chunks never
	// need replaying to a failover owner. Plain nodes receiving one
	// (direct engine connections) may ignore it.
	FrameStreamAck
	// FrameSampleReplay carries a resent sample chunk — identical body
	// to FrameSampleChunk, but explicitly marked as a retransmission
	// (node resend after a router failover, or a router replaying its
	// buffer to a failover engine). Receivers dedup replay frames
	// against their per-stream cursor and discard anything already
	// consumed instead of treating it as a stream restart; a replay
	// past the cursor is delivered normally. The distinct type exists
	// because a live chunk with Seq=1/Start=0 is indistinguishable
	// from a genuine restart, while a replayed one is provably a
	// duplicate.
	FrameSampleReplay
	// FrameCodeChunk carries a sample chunk whose every sample is an
	// integer ADC code in [0, 65535]: the FrameSampleChunk header
	// (node, stream, seq, fs, start, n) followed by n big-endian uint16
	// codes instead of n float64s. A sender uses it only on a
	// connection whose receiver has answered its Hello with
	// FrameCodesOK; any other chunk, or any other connection, keeps
	// FrameSampleChunk.
	FrameCodeChunk
	// FrameCodeReplay is FrameSampleReplay with a FrameCodeChunk body.
	FrameCodeReplay
	// FrameCodesOK answers a FrameHello that asks for it (AskCodes;
	// ChunkListener or cluster router -> sender): the receiver parses
	// FrameCodeChunk and FrameCodeReplay on this connection. Empty
	// body. Receivers that predate code frames never send it, so their
	// senders keep float64 frames; senders that never read their
	// connection never ask, so no answer sits unread when they close.
	FrameCodesOK
)

// Errors.
var (
	ErrBadMagic    = errors.New("rxnet: bad frame magic")
	ErrBadVersion  = errors.New("rxnet: unsupported protocol version")
	ErrFrameTooBig = errors.New("rxnet: frame exceeds size limit")
	ErrTruncated   = errors.New("rxnet: truncated frame")
)

// Hello announces a node.
type Hello struct {
	NodeID uint32
	// X position of the receiver along the monitored lane (m).
	PosX float64
	// Height of the receiver (m).
	Height float64
	// Name is a short label (<= 64 bytes).
	Name string
}

// Detection is one decoded passive packet at one receiver.
type Detection struct {
	NodeID uint32
	// Seq is a per-node monotonically increasing sequence number.
	Seq uint32
	// Time the packet's preamble crossed the receiver.
	Time time.Time
	// Bits is the decoded payload ('0'/'1' per entry).
	Bits []byte
	// RSSPeak and NoiseFloor summarize link quality.
	RSSPeak    float64
	NoiseFloor float64
	// SymbolRate is the measured symbols/second (1/tau_t).
	SymbolRate float64
}

// Track is a fused multi-receiver observation of one object.
type Track struct {
	ObjectBits []byte
	// FirstNode/LastNode are the receivers that saw the object first
	// and last.
	FirstNode, LastNode uint32
	// SpeedMS is the estimated speed (m/s), positive in +x direction.
	SpeedMS float64
	// FirstSeen/LastSeen timestamps.
	FirstSeen, LastSeen time.Time
	// Confirmations is the number of receivers that saw the object.
	Confirmations int
}

// Ack confirms receipt of a detection.
type Ack struct {
	NodeID uint32
	Seq    uint32
}

// SampleChunk is a slice of raw RSS samples streamed by a node for
// server-side decoding.
type SampleChunk struct {
	NodeID uint32
	// StreamID distinguishes multiple sensors on one node.
	StreamID uint32
	// Seq is a per-stream monotonically increasing chunk counter.
	Seq uint32
	// Fs is the stream's sample rate (Hz); it must not change within
	// a stream.
	Fs float64
	// Start is the absolute index of Samples[0] within the stream.
	Start uint64
	// Samples are RSS values (ADC counts).
	Samples []float64
}

// SessionKey maps the (node, stream) pair onto one streaming-engine
// session id.
func (c SampleChunk) SessionKey() uint64 {
	return uint64(c.NodeID)<<32 | uint64(c.StreamID)
}

// SessionNodeID recovers the node half of a SessionKey. Consumers of
// engine/pipeline detections must use this (not the bit layout) to
// attribute a session to its node.
func SessionNodeID(key uint64) uint32 { return uint32(key >> 32) }

// SessionStreamID recovers the stream half of a SessionKey.
func SessionStreamID(key uint64) uint32 { return uint32(key) }

// WriteFrame writes one frame: magic, version, type, 4-byte length,
// body.
func WriteFrame(w io.Writer, t FrameType, body []byte) error {
	if len(body) > MaxFrameSize {
		return ErrFrameTooBig
	}
	var hdr [7]byte
	hdr[0] = MagicByte
	hdr[1] = Version
	hdr[2] = byte(t)
	binary.BigEndian.PutUint32(hdr[3:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame, returning its type and a freshly
// allocated body.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	return NewFrameReader(r).Next()
}

func putF64(buf *bytes.Buffer, v float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	buf.Write(b[:])
}

func getF64(b []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// MarshalHello encodes a Hello body.
func MarshalHello(h Hello) ([]byte, error) {
	if len(h.Name) > 64 {
		return nil, fmt.Errorf("rxnet: node name %q too long", h.Name)
	}
	var buf bytes.Buffer
	var id [4]byte
	binary.BigEndian.PutUint32(id[:], h.NodeID)
	buf.Write(id[:])
	putF64(&buf, h.PosX)
	putF64(&buf, h.Height)
	buf.WriteByte(byte(len(h.Name)))
	buf.WriteString(h.Name)
	return buf.Bytes(), nil
}

// helloAsksCodes is the bit of a Hello's optional flags byte, which
// follows the name, that asks the receiver to answer with
// FrameCodesOK. Receivers that predate it ignore the byte.
const helloAsksCodes = 1

// AskCodes returns a copy of the well-formed Hello body b that asks the
// receiver to answer with FrameCodesOK. Only a sender that reads its
// connection may send it: closing a TCP connection with unread bytes
// resets it, and the reset drops what the sender had not yet
// delivered.
func AskCodes(b []byte) []byte {
	n := 21 + int(b[20])
	return append(append(make([]byte, 0, n+1), b[:n]...), helloAsksCodes)
}

// AsksCodes reports whether the Hello body b asks for a FrameCodesOK
// answer.
func AsksCodes(b []byte) bool {
	if len(b) < 21 {
		return false
	}
	n := 21 + int(b[20])
	return len(b) > n && b[n]&helloAsksCodes != 0
}

// UnmarshalHello decodes a Hello body.
func UnmarshalHello(b []byte) (Hello, error) {
	if len(b) < 4+8+8+1 {
		return Hello{}, ErrTruncated
	}
	h := Hello{
		NodeID: binary.BigEndian.Uint32(b[0:4]),
		PosX:   getF64(b[4:12]),
		Height: getF64(b[12:20]),
	}
	nameLen := int(b[20])
	if len(b) < 21+nameLen {
		return Hello{}, ErrTruncated
	}
	h.Name = string(b[21 : 21+nameLen])
	return h, nil
}

// MarshalDetection encodes a Detection body.
func MarshalDetection(d Detection) ([]byte, error) {
	if len(d.Bits) > MaxBitsLen {
		return nil, fmt.Errorf("rxnet: %d bits exceeds limit %d", len(d.Bits), MaxBitsLen)
	}
	for i, bit := range d.Bits {
		if bit != 0 && bit != 1 {
			return nil, fmt.Errorf("rxnet: bit %d has invalid value %d", i, bit)
		}
	}
	var buf bytes.Buffer
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], d.NodeID)
	buf.Write(u32[:])
	binary.BigEndian.PutUint32(u32[:], d.Seq)
	buf.Write(u32[:])
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], uint64(d.Time.UnixNano()))
	buf.Write(u64[:])
	putF64(&buf, d.RSSPeak)
	putF64(&buf, d.NoiseFloor)
	putF64(&buf, d.SymbolRate)
	buf.WriteByte(byte(len(d.Bits)))
	buf.Write(d.Bits)
	return buf.Bytes(), nil
}

// UnmarshalDetection decodes a Detection body.
func UnmarshalDetection(b []byte) (Detection, error) {
	const fixed = 4 + 4 + 8 + 8 + 8 + 8 + 1
	if len(b) < fixed {
		return Detection{}, ErrTruncated
	}
	d := Detection{
		NodeID:     binary.BigEndian.Uint32(b[0:4]),
		Seq:        binary.BigEndian.Uint32(b[4:8]),
		Time:       time.Unix(0, int64(binary.BigEndian.Uint64(b[8:16]))),
		RSSPeak:    getF64(b[16:24]),
		NoiseFloor: getF64(b[24:32]),
		SymbolRate: getF64(b[32:40]),
	}
	n := int(b[40])
	if len(b) < fixed+n {
		return Detection{}, ErrTruncated
	}
	d.Bits = append([]byte(nil), b[fixed:fixed+n]...)
	for i, bit := range d.Bits {
		if bit != 0 && bit != 1 {
			return Detection{}, fmt.Errorf("rxnet: bit %d has invalid value %d", i, bit)
		}
	}
	return d, nil
}

// MarshalAck encodes an Ack body.
func MarshalAck(a Ack) []byte {
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:4], a.NodeID)
	binary.BigEndian.PutUint32(b[4:8], a.Seq)
	return b[:]
}

// UnmarshalAck decodes an Ack body.
func UnmarshalAck(b []byte) (Ack, error) {
	if len(b) < 8 {
		return Ack{}, ErrTruncated
	}
	return Ack{
		NodeID: binary.BigEndian.Uint32(b[0:4]),
		Seq:    binary.BigEndian.Uint32(b[4:8]),
	}, nil
}

// chunkHeader is the fixed part of a sample-chunk body: node,
// stream, seq, fs, start and the sample count n.
const chunkHeader = 4 + 4 + 4 + 8 + 8 + 2

// isCode reports whether a sample travels exactly as a 2-byte code:
// an integer in [0, 65535] that is not -0. NaN, infinities, fractions
// and out-of-range values all convert to a uint16 that differs from
// them, so the comparison needs no range check of its own.
func isCode(v float64) bool { return v == float64(uint16(v)) && !math.Signbit(v) }

// putChunkHeader writes c's header, with n samples, into b.
func putChunkHeader(b []byte, c SampleChunk) {
	binary.BigEndian.PutUint32(b[0:4], c.NodeID)
	binary.BigEndian.PutUint32(b[4:8], c.StreamID)
	binary.BigEndian.PutUint32(b[8:12], c.Seq)
	binary.BigEndian.PutUint64(b[12:20], math.Float64bits(c.Fs))
	binary.BigEndian.PutUint64(b[20:28], c.Start)
	binary.BigEndian.PutUint16(b[28:30], uint16(len(c.Samples)))
}

// MarshalSampleChunk encodes a SampleChunk body.
func MarshalSampleChunk(c SampleChunk) ([]byte, error) {
	if err := checkChunk(c); err != nil {
		return nil, err
	}
	b := make([]byte, chunkHeader+8*len(c.Samples))
	putChunkHeader(b, c)
	for i, s := range c.Samples {
		binary.BigEndian.PutUint64(b[chunkHeader+8*i:], math.Float64bits(s))
	}
	return b, nil
}

func checkChunk(c SampleChunk) error {
	if len(c.Samples) > MaxChunkSamples {
		return fmt.Errorf("rxnet: %d samples exceeds chunk limit %d", len(c.Samples), MaxChunkSamples)
	}
	if c.Fs <= 0 {
		return fmt.Errorf("rxnet: chunk needs a positive sample rate, got %g", c.Fs)
	}
	return nil
}

// encodeSampleChunk encodes c in the frame a sender picks for it: a
// FrameCodeChunk body when every sample is a code, otherwise
// MarshalSampleChunk's float64 body under FrameSampleChunk.
func encodeSampleChunk(c SampleChunk) (FrameType, []byte, error) {
	if err := checkChunk(c); err != nil {
		return 0, nil, err
	}
	for _, s := range c.Samples {
		if !isCode(s) {
			b, err := MarshalSampleChunk(c)
			return FrameSampleChunk, b, err
		}
	}
	b := make([]byte, chunkHeader+2*len(c.Samples))
	putChunkHeader(b, c)
	for i, s := range c.Samples {
		binary.BigEndian.PutUint16(b[chunkHeader+2*i:], uint16(s))
	}
	return FrameCodeChunk, b, nil
}

// CodeBody returns the FrameCodeChunk body carrying the same chunk as
// the float64 body b, or nil when b is not exactly a well-formed
// float64 body or any of its samples is not a code. AppendSampleBody
// turns the result back into b byte for byte.
func CodeBody(b []byte) []byte {
	if len(b) < chunkHeader {
		return nil
	}
	n := int(binary.BigEndian.Uint16(b[28:30]))
	if n > MaxChunkSamples || len(b) != chunkHeader+8*n {
		return nil
	}
	out := make([]byte, chunkHeader+2*n)
	for i := 0; i < n; i++ {
		v := getF64(b[chunkHeader+8*i:])
		if !isCode(v) {
			return nil
		}
		binary.BigEndian.PutUint16(out[chunkHeader+2*i:], uint16(v))
	}
	copy(out, b[:chunkHeader])
	return out
}

// CheckCodeBody reports whether b is exactly a well-formed
// FrameCodeChunk body: a header and the n codes it declares.
func CheckCodeBody(b []byte) error {
	if len(b) < chunkHeader {
		return ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b[28:30]))
	if n > MaxChunkSamples {
		return fmt.Errorf("rxnet: %d samples exceeds chunk limit %d", n, MaxChunkSamples)
	}
	if len(b) != chunkHeader+2*n {
		return fmt.Errorf("rxnet: code chunk body is %d bytes, want %d", len(b), chunkHeader+2*n)
	}
	return nil
}

// AppendSampleBody appends to dst the float64 body (FrameSampleChunk)
// of the well-formed FrameCodeChunk body code.
func AppendSampleBody(dst, code []byte) []byte {
	n := (len(code) - chunkHeader) / 2
	dst = append(dst, code[:chunkHeader]...)
	for i := 0; i < n; i++ {
		v := float64(binary.BigEndian.Uint16(code[chunkHeader+2*i:]))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// UnmarshalSampleChunk decodes a SampleChunk body into freshly
// allocated samples.
func UnmarshalSampleChunk(b []byte) (SampleChunk, error) {
	c, _, err := decodeSampleChunk(FrameSampleChunk, b, nil)
	return c, err
}

// decodeSampleChunk is the one SampleChunk parser: it checks the
// header, the body length and every sample, and decodes the samples.
// The frame type t sets the sample width: 2-byte codes for
// FrameCodeChunk and FrameCodeReplay, float64 otherwise. With get nil
// the samples are freshly allocated; otherwise they go into the
// buffer get returns (the listener passes getSampleBuf), and
// c.Samples aliases it. That buffer carries one reference the caller
// must Release; on error it is already released and the returned
// SampleBuf is nil.
func decodeSampleChunk(t FrameType, b []byte, get func(n int) *SampleBuf) (SampleChunk, *SampleBuf, error) {
	if len(b) < chunkHeader {
		return SampleChunk{}, nil, ErrTruncated
	}
	c := SampleChunk{
		NodeID:   binary.BigEndian.Uint32(b[0:4]),
		StreamID: binary.BigEndian.Uint32(b[4:8]),
		Seq:      binary.BigEndian.Uint32(b[8:12]),
		Fs:       getF64(b[12:20]),
		Start:    binary.BigEndian.Uint64(b[20:28]),
	}
	n := int(binary.BigEndian.Uint16(b[28:30]))
	if n > MaxChunkSamples {
		return SampleChunk{}, nil, fmt.Errorf("rxnet: %d samples exceeds chunk limit %d", n, MaxChunkSamples)
	}
	width := 8
	if t == FrameCodeChunk || t == FrameCodeReplay {
		width = 2
	}
	if len(b) < chunkHeader+width*n {
		return SampleChunk{}, nil, ErrTruncated
	}
	if c.Fs <= 0 || math.IsNaN(c.Fs) || math.IsInf(c.Fs, 0) {
		return SampleChunk{}, nil, fmt.Errorf("rxnet: chunk has invalid sample rate %g", c.Fs)
	}
	var sb *SampleBuf
	var out []float64
	if get != nil {
		sb = get(n)
		out = sb.samples
	} else {
		out = make([]float64, n)
	}
	if width == 2 {
		for i := range out {
			out[i] = float64(binary.BigEndian.Uint16(b[chunkHeader+2*i:]))
		}
		c.Samples = out
		return c, sb, nil
	}
	for i := range out {
		v := getF64(b[chunkHeader+8*i : chunkHeader+8*i+8])
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// One NaN would wedge the server-side noise-floor tracker
			// permanently; reject the frame at the wire instead.
			sb.Release()
			return SampleChunk{}, nil, fmt.Errorf("rxnet: chunk sample %d is not finite", i)
		}
		out[i] = v
	}
	c.Samples = out
	return c, sb, nil
}

// StreamEnd orders an engine to finish a chunk stream: flush the
// session's decode boundary (current packet window), emit, release.
type StreamEnd struct {
	// Session is the stream's SessionKey.
	Session uint64
}

// MarshalStreamEnd encodes a StreamEnd body.
func MarshalStreamEnd(e StreamEnd) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], e.Session)
	return b[:]
}

// UnmarshalStreamEnd decodes a StreamEnd body.
func UnmarshalStreamEnd(b []byte) (StreamEnd, error) {
	if len(b) < 8 {
		return StreamEnd{}, ErrTruncated
	}
	return StreamEnd{Session: binary.BigEndian.Uint64(b[0:8])}, nil
}

// StreamNack tells the router the sending engine will consume no more
// chunks of a stream (it is draining, or the stream was reassigned).
type StreamNack struct {
	// Session is the stream's SessionKey.
	Session uint64
	// LastSeq is the highest chunk Seq the engine consumed; the
	// router replays the stream from LastSeq+1 on its new owner.
	// Chunk Seqs start at 1, so 0 means "nothing consumed, replay
	// from the beginning".
	LastSeq uint32
}

// MarshalStreamNack encodes a StreamNack body.
func MarshalStreamNack(n StreamNack) []byte {
	var b [12]byte
	binary.BigEndian.PutUint64(b[0:8], n.Session)
	binary.BigEndian.PutUint32(b[8:12], n.LastSeq)
	return b[:]
}

// UnmarshalStreamNack decodes a StreamNack body.
func UnmarshalStreamNack(b []byte) (StreamNack, error) {
	if len(b) < 12 {
		return StreamNack{}, ErrTruncated
	}
	return StreamNack{
		Session: binary.BigEndian.Uint64(b[0:8]),
		LastSeq: binary.BigEndian.Uint32(b[8:12]),
	}, nil
}

// StreamAck tells the router the sending engine has consumed
// (decoded) a stream's chunks through LastSeq. It is the inverse of a
// StreamNack: instead of pushing unconsumed chunks to a new owner, it
// lets the router drop them from the replay buffer — a later crash of
// this engine must replay only what was never acked.
type StreamAck struct {
	// Session is the stream's SessionKey.
	Session uint64
	// LastSeq is the highest chunk Seq consumed into a decoded packet.
	LastSeq uint32
}

// MarshalStreamAck encodes a StreamAck body.
func MarshalStreamAck(a StreamAck) []byte {
	var b [12]byte
	binary.BigEndian.PutUint64(b[0:8], a.Session)
	binary.BigEndian.PutUint32(b[8:12], a.LastSeq)
	return b[:]
}

// UnmarshalStreamAck decodes a StreamAck body.
func UnmarshalStreamAck(b []byte) (StreamAck, error) {
	if len(b) < 12 {
		return StreamAck{}, ErrTruncated
	}
	return StreamAck{
		Session: binary.BigEndian.Uint64(b[0:8]),
		LastSeq: binary.BigEndian.Uint32(b[8:12]),
	}, nil
}

// Drain announces the sending engine's drain state. Draining engines
// keep their in-flight streams (they finish at their own pace — that
// is what makes drains lossless) but must be assigned no new ones.
type Drain struct {
	Draining bool
}

// MarshalDrain encodes a Drain body.
func MarshalDrain(d Drain) []byte {
	if d.Draining {
		return []byte{1}
	}
	return []byte{0}
}

// UnmarshalDrain decodes a Drain body.
func UnmarshalDrain(b []byte) (Drain, error) {
	if len(b) < 1 {
		return Drain{}, ErrTruncated
	}
	return Drain{Draining: b[0] != 0}, nil
}

// EngineHello announces a decode engine to a cluster router: its
// stable ring identity and the address the router should dial for
// chunk forwarding.
type EngineHello struct {
	// ID is the engine's stable ring identity (<= 64 bytes). Ownership
	// hashes IDs, so a restarted engine that keeps its ID keeps its
	// ring slice even on a new address.
	ID string
	// Addr is the engine's chunk-ingest listen address ("host:port",
	// <= 255 bytes).
	Addr string
}

// MarshalEngineHello encodes an EngineHello body.
func MarshalEngineHello(h EngineHello) ([]byte, error) {
	if h.ID == "" || len(h.ID) > 64 {
		return nil, fmt.Errorf("rxnet: engine hello needs an ID of 1-64 bytes, got %d", len(h.ID))
	}
	if h.Addr == "" || len(h.Addr) > 255 {
		return nil, fmt.Errorf("rxnet: engine hello needs an address of 1-255 bytes, got %d", len(h.Addr))
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(len(h.ID)))
	buf.WriteString(h.ID)
	buf.WriteByte(byte(len(h.Addr)))
	buf.WriteString(h.Addr)
	return buf.Bytes(), nil
}

// UnmarshalEngineHello decodes an EngineHello body.
func UnmarshalEngineHello(b []byte) (EngineHello, error) {
	if len(b) < 1 {
		return EngineHello{}, ErrTruncated
	}
	idLen := int(b[0])
	if idLen == 0 || idLen > 64 {
		return EngineHello{}, fmt.Errorf("rxnet: engine hello ID length %d out of range", idLen)
	}
	if len(b) < 1+idLen+1 {
		return EngineHello{}, ErrTruncated
	}
	h := EngineHello{ID: string(b[1 : 1+idLen])}
	addrLen := int(b[1+idLen])
	if addrLen == 0 {
		return EngineHello{}, errors.New("rxnet: engine hello has an empty address")
	}
	if len(b) < 2+idLen+addrLen {
		return EngineHello{}, ErrTruncated
	}
	h.Addr = string(b[2+idLen : 2+idLen+addrLen])
	return h, nil
}

// MaxRingMembers bounds a RingUpdate's member list.
const MaxRingMembers = 1024

// RingMember is one engine in a RingUpdate.
type RingMember struct {
	ID   string
	Addr string
}

// RingUpdate reports a router's active ring to an engine, answering
// its EngineHello.
type RingUpdate struct {
	// Epoch is the ring's membership version.
	Epoch uint64
	// Members is the admitted engine set.
	Members []RingMember
}

// MarshalRingUpdate encodes a RingUpdate body.
func MarshalRingUpdate(u RingUpdate) ([]byte, error) {
	if len(u.Members) > MaxRingMembers {
		return nil, fmt.Errorf("rxnet: %d ring members exceeds limit %d", len(u.Members), MaxRingMembers)
	}
	var buf bytes.Buffer
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], u.Epoch)
	buf.Write(u64[:])
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(u.Members)))
	buf.Write(u16[:])
	for _, m := range u.Members {
		if len(m.ID) > 64 || len(m.Addr) > 255 {
			return nil, fmt.Errorf("rxnet: ring member %q fields too long", m.ID)
		}
		buf.WriteByte(byte(len(m.ID)))
		buf.WriteString(m.ID)
		buf.WriteByte(byte(len(m.Addr)))
		buf.WriteString(m.Addr)
	}
	if buf.Len() > MaxFrameSize {
		return nil, ErrFrameTooBig
	}
	return buf.Bytes(), nil
}

// UnmarshalRingUpdate decodes a RingUpdate body.
func UnmarshalRingUpdate(b []byte) (RingUpdate, error) {
	if len(b) < 10 {
		return RingUpdate{}, ErrTruncated
	}
	u := RingUpdate{Epoch: binary.BigEndian.Uint64(b[0:8])}
	n := int(binary.BigEndian.Uint16(b[8:10]))
	if n > MaxRingMembers {
		return RingUpdate{}, fmt.Errorf("rxnet: %d ring members exceeds limit %d", n, MaxRingMembers)
	}
	off := 10
	for i := 0; i < n; i++ {
		if len(b) < off+1 {
			return RingUpdate{}, ErrTruncated
		}
		idLen := int(b[off])
		off++
		if len(b) < off+idLen+1 {
			return RingUpdate{}, ErrTruncated
		}
		m := RingMember{ID: string(b[off : off+idLen])}
		off += idLen
		addrLen := int(b[off])
		off++
		if len(b) < off+addrLen {
			return RingUpdate{}, ErrTruncated
		}
		m.Addr = string(b[off : off+addrLen])
		off += addrLen
		u.Members = append(u.Members, m)
	}
	return u, nil
}

// Throttle is a backpressure signal: paused=true asks the receiver to
// stop sending new sample chunks until a paused=false follows. A
// streaming Node stalls its StreamChunk calls meanwhile; nothing is
// dropped.
type Throttle struct {
	Paused bool
}

// MarshalThrottle encodes a Throttle body.
func MarshalThrottle(t Throttle) []byte {
	if t.Paused {
		return []byte{1}
	}
	return []byte{0}
}

// UnmarshalThrottle decodes a Throttle body.
func UnmarshalThrottle(b []byte) (Throttle, error) {
	if len(b) < 1 {
		return Throttle{}, ErrTruncated
	}
	return Throttle{Paused: b[0] != 0}, nil
}

// BitsString renders a bit slice as "0"/"1" text.
func BitsString(bits []byte) string {
	out := make([]byte, len(bits))
	for i, b := range bits {
		out[i] = '0' + b
	}
	return string(out)
}
