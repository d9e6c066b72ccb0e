package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"testing"

	"passivelight/internal/channel"
	"passivelight/internal/decoder"
	"passivelight/internal/stream"
)

// identityDigests pins, per case, the SHA-256 prefixes of the three
// observable outputs of the simulate/decode chain: the clean
// channel.Render output, the Link.Simulate samples, and the decoded
// result (bit strings, classifier labels and distances, collision
// tones). A refactor that claims "output unchanged" must leave every
// entry as it is; a change that is meant to alter output updates the
// table in the same commit and says why.
var identityDigests = map[string][3]string{
	"car-signature/s1":                    {"ea029bd6f2d61e8b", "d337a8b92a37d8e7", "909f66036775d966"},
	"car-signature/s2":                    {"ea029bd6f2d61e8b", "487f3a1b7cb1dc12", "909f66036775d966"},
	"car-signature/s3":                    {"ea029bd6f2d61e8b", "71e56ed3ba32961e", "909f66036775d966"},
	"carpass/00-6200lux-0.75m-s1":         {"941a5c9390af7d2b", "9d391208c0cf0e8a", "96c6ae675dc8b22c"},
	"carpass/01-6200lux-0.75m-s2":         {"06ddefeb619ce1e7", "86bebc4aaa1a58d8", "4b807d2859f0bb8a"},
	"carpass/0110-5500lux-0.75m-s5-30kmh": {"e11ebc3e655af9fa", "f331bf61d2706449", "481fb14b1fe32ea2"},
	"carpass/10-100lux-0.75m-s6":          {"da005068739dceeb", "01b495e4df35a2d4", "9354fd347e6a3a17"},
	"carpass/10-3700lux-0.25m-s3":         {"ff3b1cae2c59c520", "064e422982b7e235", "b5521a9cdd72917a"},
	"carpass/11-450lux-1m-s4":             {"75423aa4ce4f510b", "0ef85561f24056c9", "15717dc37ec17ed6"},
	"collision/s1":                        {"1e7e24c15b548a82", "6ea4f82f1c4de9ad", "074913a234dea24f"},
	"collision/s2":                        {"1e7e24c15b548a82", "107f0e2d0d8eb85f", "b29589da2f6ae3c3"},
	"collision/s3":                        {"1e7e24c15b548a82", "7aec25f74c09a1ba", "eaaf26d7dbe610a7"},
	"indoor-bench/s1":                     {"1f013dfa212c3f2a", "c52640faac955a87", "59bf3d9512549a56"},
	"indoor-bench/s2":                     {"1f013dfa212c3f2a", "3b6dc0cede112d82", "701594d253bb1004"},
	"indoor-bench/s3":                     {"1f013dfa212c3f2a", "6ae514508811c668", "a9da7ebd4c11d0bb"},
	"multi-lane/s1":                       {"20df4a6a92f2da0d", "6dfc96f79239ebb7", "ac03a92432ac93d0"},
	"multi-lane/s2":                       {"20df4a6a92f2da0d", "d896bedf15f058a9", "b27c0c4106143340"},
	"multi-lane/s3":                       {"20df4a6a92f2da0d", "2533d64ff0b524c6", "b4f25faa3e57b327"},
	"outdoor-pass/s1":                     {"941a5c9390af7d2b", "9d391208c0cf0e8a", "96c6ae675dc8b22c"},
	"outdoor-pass/s2":                     {"941a5c9390af7d2b", "f0e991eaa0d32dd1", "96c6ae675dc8b22c"},
	"outdoor-pass/s3":                     {"941a5c9390af7d2b", "46e875ae62485610", "96c6ae675dc8b22c"},
	"rx-lanes/s1":                         {"437f48f25c09d8c0", "0cc92587fb1b8e64", "e86dfd7cfe854f74"},
	"rx-lanes/s2":                         {"437f48f25c09d8c0", "feb38a1533479377", "f3152b74541e9429"},
	"rx-lanes/s3":                         {"437f48f25c09d8c0", "bc34f08889824e45", "ab3490f2edbb2a84"},
	"stop-and-go/s1":                      {"9351c8462e2f426d", "e4502667285d87b8", "8f7bcedb6f0a7e03"},
	"stop-and-go/s2":                      {"9351c8462e2f426d", "6f30b00e7f626e60", "b70313dc8db2b45e"},
	"stop-and-go/s3":                      {"9351c8462e2f426d", "171ba0df9cb9d76a", "1981e1a72f125c1b"},
	"tag-fleet/s1":                        {"34fa2adc870afbdf", "ed9661b2cba83953", "9de422ce70e9c409"},
	"tag-fleet/s2":                        {"34fa2adc870afbdf", "8207d333fc36ebef", "a0e45d2bc227f66b"},
	"tag-fleet/s3":                        {"34fa2adc870afbdf", "af9356e7463481af", "295241f399058d6c"},
	"weather-sweep/s1":                    {"e62babb0946ce500", "60439379c10549f4", "96c6ae675dc8b22c"},
	"weather-sweep/s2":                    {"e62babb0946ce500", "fccd2ef10c7a21a5", "96c6ae675dc8b22c"},
	"weather-sweep/s3":                    {"e62babb0946ce500", "7fbec2ffa0bb173c", "96c6ae675dc8b22c"},
}

// identityCases lists the outdoor car passes hashed besides the
// registry presets: the paper's Sec. 5 runs across heights, ambient
// levels, speeds and both tag payload rates.
func identityCases() map[string]OutdoorParams {
	out := map[string]OutdoorParams{}
	for _, p := range []OutdoorParams{
		{Payload: "00", NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: 1},
		{Payload: "01", NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: 2},
		{Payload: "10", NoiseFloorLux: 3700, ReceiverHeight: 0.25, Seed: 3},
		{Payload: "11", NoiseFloorLux: 450, ReceiverHeight: 1.00, Seed: 4},
		{Payload: "0110", NoiseFloorLux: 5500, ReceiverHeight: 0.75, SpeedKmh: 30, Seed: 5},
		{Payload: "10", NoiseFloorLux: 100, ReceiverHeight: 0.75, CalmNoise: true, Seed: 6},
	} {
		name := fmt.Sprintf("carpass/%s-%glux-%gm-s%d", p.Payload, p.NoiseFloorLux, p.ReceiverHeight, p.Seed)
		if p.SpeedKmh != 0 {
			name += fmt.Sprintf("-%gkmh", p.SpeedKmh)
		}
		out[name] = p
	}
	return out
}

type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) floats(xs []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	d.h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *digest) str(s string) {
	fmt.Fprintf(d.h, "%d:%s;", len(s), s)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// hashSpec renders, simulates and decodes every receiver link of spec
// and returns the three digests.
func hashSpec(t *testing.T, spec Spec) [3]string {
	t.Helper()
	m, err := spec.CompileMulti()
	if err != nil {
		t.Fatal(err)
	}
	render, sim, dec := newDigest(), newDigest(), newDigest()
	for _, cl := range m.Links {
		l := cl.Link
		rx := l.Receiver
		if rx.FoVHalfAngleDeg == 0 {
			rx.FoVHalfAngleDeg = l.Frontend.Receiver.FoVHalfAngleDeg
		}
		lux, err := channel.Render(l.Scene, rx, l.T0, l.Duration, l.Frontend.Fs)
		if err != nil {
			t.Fatal(err)
		}
		render.floats(lux)
		tr, err := l.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		sim.floats(tr.Samples)

		switch spec.Decode.Strategy {
		case "threshold", "two-phase":
			sd, err := stream.NewDecoder(stream.Config{
				Fs:       tr.Fs,
				Decode:   decoder.Options{ExpectedSymbols: spec.Decode.ExpectedSymbols},
				CarShape: spec.Decode.Strategy == "two-phase",
			})
			if err != nil {
				t.Fatal(err)
			}
			dets := append(sd.Feed(tr.Samples), sd.Flush()...)
			for _, d := range dets {
				dec.str(fmt.Sprintf("%d-%d %s %s %v", d.Start, d.End, d.BitString(), d.Symbols, d.Err))
			}
			if spec.Decode.Strategy == "two-phase" {
				res, err := decoder.DecodeCarPass(tr, decoder.Options{ExpectedSymbols: spec.Decode.ExpectedSymbols})
				dec.str(fmt.Sprintf("carpass %s %v %v", res.Decode.Packet.BitString(), res.Decode.ParseErr, err))
			}
		case "collision":
			rep, err := decoder.AnalyzeCollision(tr, decoder.CollisionOptions{
				MinFreq: 1.0, MaxFreq: 4.0, MinSeparation: 0.9, SignificanceRatio: 0.6,
			})
			if err != nil {
				t.Fatal(err)
			}
			dec.floats(rep.Spectrum.Power)
			for _, p := range rep.Peaks {
				dec.floats([]float64{p.Freq, p.Power})
			}
			dec.str(fmt.Sprint(rep.SignificantTones))
		case "shape":
			sig, err := decoder.DetectCarShape(tr)
			if err != nil {
				t.Fatal(err)
			}
			dec.str(decoder.MatchCarModel(sig))
		case "dtw":
			matches, err := newBenchClassifier(t).Classify(tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, mt := range matches {
				dec.str(mt.Label)
				dec.floats([]float64{mt.Distance})
			}
		default:
			t.Fatalf("no decode strategy %q", spec.Decode.Strategy)
		}
	}
	return [3]string{render.sum(), sim.sum(), dec.sum()}
}

// TestOutputIdentity hashes render, simulate and decode output for
// every registry preset at seeds 1–3 and a set of outdoor car passes,
// and compares against identityDigests. Go fuses multiply-adds into
// FMA instructions on arm64 and other non-amd64 targets, which changes
// float bits, so the pinned digests hold on amd64 only.
func TestOutputIdentity(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating point")
	}
	got := map[string][3]string{}
	for _, e := range Entries() {
		for seed := int64(1); seed <= 3; seed++ {
			spec, err := e.Spec()
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = seed
			got[fmt.Sprintf("%s/s%d", e.Name, seed)] = hashSpec(t, spec)
		}
	}
	for name, p := range identityCases() {
		spec, err := p.Spec()
		if err != nil {
			t.Fatal(err)
		}
		got[name] = hashSpec(t, spec)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := identityDigests[name]
		if !ok {
			t.Errorf("%q: no pinned digest; got %q", name, got[name])
			continue
		}
		for i, part := range []string{"render", "simulate", "decode"} {
			if got[name][i] != want[i] {
				t.Errorf("%s: %s digest %s, pinned %s", name, part, got[name][i], want[i])
			}
		}
	}
	for name := range identityDigests {
		if _, ok := got[name]; !ok {
			t.Errorf("pinned digest %q matches no case", name)
		}
	}
}
