// Package core wires the full passive-communication pipeline together:
// encode a packet onto a reflective tag, mount it on a mobile object,
// render the optical channel, push the light through a receiver front
// end, and decode. It is the programmatic equivalent of one run of
// the paper's testbed.
package core

import (
	"errors"
	"fmt"

	"passivelight/internal/channel"
	"passivelight/internal/coding"
	"passivelight/internal/decoder"
	"passivelight/internal/frontend"
	"passivelight/internal/noise"
	"passivelight/internal/optics"
	"passivelight/internal/scene"
	"passivelight/internal/trace"
)

// Link describes one complete passive link: scene geometry, receiver
// optics + electronics, and sampling.
type Link struct {
	// Scene holds the light source and mobile objects.
	Scene *scene.Scene
	// Geometry of the receiver head.
	Receiver channel.Receiver
	// Frontend is the optical receiver + ADC chain. The receiver's
	// FoV half-angle is copied into Geometry unless Geometry already
	// set one explicitly.
	Frontend *frontend.Chain
	// Noise applied to the incident light before the front end.
	Noise noise.Model
	// Fog, if non-nil, attenuates the rendered light and adds a
	// scatter veil before the noise stage (Sec. 3's weather
	// distortion as a first-class link element).
	Fog *noise.Fog
	// Window is the simulated time span [T0, T0+Duration).
	T0, Duration float64
}

// Validate checks the link configuration.
func (l *Link) Validate() error {
	if l.Scene == nil {
		return errors.New("core: link has no scene")
	}
	if l.Frontend == nil {
		return errors.New("core: link has no front end")
	}
	if l.Duration <= 0 {
		return errors.New("core: link duration must be positive")
	}
	return nil
}

// Simulate renders the channel and digitizes it, returning the RSS
// trace in ADC counts. One sample buffer serves the whole pass: the
// render's output is fogged, noised and digitized in place, and the
// returned trace holds it.
func (l *Link) Simulate() (*trace.Trace, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	rx := l.Receiver
	if rx.FoVHalfAngleDeg == 0 {
		rx.FoVHalfAngleDeg = l.Frontend.Receiver.FoVHalfAngleDeg
	}
	lux, err := channel.Render(l.Scene, rx, l.T0, l.Duration, l.Frontend.Fs)
	if err != nil {
		return nil, err
	}
	if l.Fog != nil {
		lux = l.Fog.ApplyInPlace(lux)
	}
	// In place: the clean rendering is owned here and never reused.
	lux = l.Noise.ApplyInPlace(lux)
	tr := trace.Wrap(l.Frontend.Fs, l.T0, l.Frontend.Digitize(lux))
	tr.WithMeta("receiver", l.Frontend.Receiver.Name)
	tr.WithMeta("source", l.Scene.Source.Name())
	tr.WithMeta("unit", "adc-counts")
	tr.WithMeta("fov_deg", fmt.Sprintf("%.1f", rx.FoVHalfAngleDeg))
	tr.WithMeta("height_m", fmt.Sprintf("%.3f", rx.Height))
	return tr, nil
}

// RunResult is the outcome of an end-to-end encode/simulate/decode.
type RunResult struct {
	Trace   *trace.Trace
	Decode  decoder.Result
	Sent    coding.Packet
	Success bool    // decoded payload == sent payload
	BitErrs int     // Hamming distance between sent and decoded bits
	Err     error   // decode-stage error, if any
	Floor   float64 // ambient noise floor (lux) at the receiver spot
}

// EndToEnd simulates the link and decodes the trace, comparing against
// the packet that was physically encoded on the tag.
func EndToEnd(l *Link, sent coding.Packet, opt decoder.Options) (RunResult, error) {
	tr, err := l.Simulate()
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{
		Trace: tr,
		Sent:  sent,
		Floor: optics.MeanLux(l.Scene.Source, l.Receiver.X, l.Duration, 64),
	}
	if opt.ExpectedSymbols == 0 {
		opt.ExpectedSymbols = coding.PreambleLen + 2*len(sent.Data)
	}
	dec, derr := decoder.Decode(tr, opt)
	res.Decode = dec
	if derr != nil {
		res.Err = derr
		res.BitErrs = len(sent.Data)
		return res, nil
	}
	if dec.ParseErr != nil {
		res.Err = dec.ParseErr
		res.BitErrs = len(sent.Data)
		return res, nil
	}
	res.BitErrs = coding.HammingDistance(sent.Data, dec.Packet.Data)
	res.Success = res.BitErrs == 0 && len(dec.Packet.Data) == len(sent.Data)
	return res, nil
}
