// Quickstart: encode two bits on a reflective tag, slide it under a
// lamp-lit receiver, and decode the reflected light — the paper's
// Fig. 5 as one Pipeline: a simulated bench source bound to the
// adaptive threshold strategy. The rendered trace is then fed again
// chunk by chunk through a ChunkSource, the live-feed path.
package main

import (
	"context"
	"fmt"
	"log"

	"passivelight"
)

func main() {
	src := passivelight.NewBenchSource(passivelight.IndoorBench{
		Height:      0.20, // lamp and receiver 20 cm above the plane
		SymbolWidth: 0.03, // 3 cm reflective stripes
		Speed:       0.08, // tag slides at 8 cm/s
		Payload:     "10",
		Seed:        42,
	})
	pipe, err := passivelight.NewPipeline(src, passivelight.Threshold(),
		passivelight.WithExpectedSymbols(8),
		passivelight.WithPreRoll(-1), // offline replay: batch-equivalent decode
	)
	if err != nil {
		log.Fatal(err)
	}
	events, err := pipe.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	packet := src.Packet()
	fmt.Printf("sent    : %s (payload %s)\n", packet.SymbolString(), packet.BitString())
	for _, ev := range events {
		if ev.Err != nil {
			log.Fatal(ev.Err)
		}
		fmt.Printf("decoded : %s\n", ev.Symbols)
		fmt.Printf("success : %v\n", ev.BitString() == packet.BitString())
		fmt.Printf("symbol rate: %.2f sym/s (adaptive tau_t)\n", ev.SymbolRate)
	}
	tr := src.Trace()
	fmt.Printf("trace   : %d samples at %g Hz\n", tr.Len(), tr.Fs)

	// Live half: the same trace arrives chunk by chunk, as from a
	// receiver, and decodes in the default bounded-memory mode.
	chunks := make(chan passivelight.SourceChunk)
	go func() {
		defer close(chunks)
		for c := range tr.Chunks(500) {
			chunks <- passivelight.SourceChunk{Samples: c}
		}
	}()
	live, err := passivelight.NewPipeline(passivelight.NewChunkSource(tr.Fs, chunks),
		passivelight.Threshold(), passivelight.WithExpectedSymbols(8))
	if err != nil {
		log.Fatal(err)
	}
	events, err = live.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range events {
		if ev.Err != nil {
			log.Fatal(ev.Err)
		}
		fmt.Printf("live    : %s success=%v\n", ev.Symbols, ev.BitString() == packet.BitString())
	}
}
