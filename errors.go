package passivelight

import (
	"passivelight/internal/decoder"
	"passivelight/internal/frontend"
	"passivelight/internal/stream"
)

// Typed sentinel errors surfaced by the Pipeline API. Match with
// errors.Is; every layer wraps rather than rewrites, so a Pipeline
// event error, a stream Detection error and a batch decode error all
// unwrap to the same sentinels.
var (
	// ErrNoPreamble means the decoder could not locate the A/B/C
	// preamble anchors (first two peaks and first valley) in a trace
	// or stream segment.
	ErrNoPreamble = decoder.ErrNoPreamble
	// ErrLowContrast means the preamble was found but the HIGH/LOW
	// excursion is too small to decode reliably (the paper's
	// undecodable 100 lux RX-LED case).
	ErrLowContrast = decoder.ErrLowContrast
	// ErrSaturated means every candidate receiver rails at the given
	// ambient level (SelectReceiver, WithReceiverAutoSelect).
	ErrSaturated = frontend.ErrSaturated
	// ErrSessionEvicted means the streaming engine no longer tracks
	// the addressed session: it was never fed, ended explicitly, or
	// idle-evicted.
	ErrSessionEvicted = stream.ErrSessionEvicted
	// ErrSessionTableFull means the engine already tracks MaxSessions
	// sessions and a chunk addressed a new one — the oversubscription
	// signal a load run hits when WithMaxSessions is undersized for
	// the fleet (raise it, or let WithIdleTimeout evict idle sessions
	// between staggered arrivals).
	ErrSessionTableFull = stream.ErrSessionTableFull
	// ErrEngineClosed means the streaming engine (or the Pipeline on
	// top of it) has shut down and refuses further work.
	ErrEngineClosed = stream.ErrEngineClosed
)
