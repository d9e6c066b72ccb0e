package decoder_test

import (
	"testing"

	"passivelight/internal/decoder"
	"passivelight/internal/scenario"
)

// fleetSegment renders one pass of the fleet-load preset (the indoor
// bench with the preset's jitter as ambient lead-in) with a 2-bit
// payload, the segment shape the streaming engine decodes under load.
func fleetSegment(tb testing.TB) ([]float64, float64, string) {
	tb.Helper()
	load, err := scenario.GetLoad("fleet-load")
	if err != nil {
		tb.Fatal(err)
	}
	load.Sessions = 1
	specs, err := load.Expand()
	if err != nil {
		tb.Fatal(err)
	}
	spec := specs[0]
	spec.Objects[0].Payload = "10"
	world, err := spec.CompileMulti()
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := world.Links[0].Link.Simulate()
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Samples, tr.Fs, world.Packets[0].Packet.BitString()
}

// BenchmarkDecodePass is the decoder layer of the per-sample budget:
// one rendered fleet-load pass fed through a streaming Incremental in
// 1024-sample chunks and flushed, so it covers activity tracking,
// segmentation and the adaptive-threshold pass the segment triggers.
// It reports ns/sample alongside allocs/op.
func BenchmarkDecodePass(b *testing.B) {
	samples, fs, bits := fleetSegment(b)
	opt := decoder.Options{ExpectedSymbols: 8}
	run := func() []decoder.SegmentResult {
		inc := decoder.NewIncremental(fs, opt, decoder.IncrementalConfig{})
		var segs []decoder.SegmentResult
		for lo := 0; lo < len(samples); lo += 1024 {
			segs = append(segs, inc.Feed(samples[lo:min(lo+1024, len(samples))])...)
		}
		return append(segs, inc.Flush()...)
	}
	segs := run()
	if len(segs) != 1 || segs[0].Err != nil || segs[0].Result.Packet.BitString() != bits {
		b.Fatalf("fleet segment did not decode to %q: %+v", bits, segs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(samples)), "ns/sample")
}
