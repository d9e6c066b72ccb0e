package decoder

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"passivelight/internal/coding"
)

// squarePacket renders payload as ideal plateaus, perSymbol samples
// per symbol at levels high and low, between two-symbol baseline
// lead-in and lead-out at low. No smoothing: every plateau is flat,
// so neighbouring grids tie on their margins.
func squarePacket(payload string, perSymbol int, high, low float64) []float64 {
	var x []float64
	add := func(v float64, n int) {
		for i := 0; i < n; i++ {
			x = append(x, v)
		}
	}
	add(low, 2*perSymbol)
	for _, s := range coding.MustPacket(payload).Symbols() {
		if s == coding.High {
			add(high, perSymbol)
		} else {
			add(low, perSymbol)
		}
	}
	add(low, 2*perSymbol)
	return x
}

// TestGridSearchMatchesExhaustiveOnDegenerateSignals runs the bounded
// and exhaustive timing searches on inputs no rendered pass produces:
// flat signals, ideal plateaus whose candidate grids tie, signed-zero
// signals, NaN and ±Inf samples anywhere (unsmoothed, so a NaN can be
// followed by numbers) or as a suffix, and non-finite decision levels,
// each under true and skewed tau and several symbol counts.
func TestGridSearchMatchesExhaustiveOnDegenerateSignals(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const per = 24
	type input struct {
		name     string
		x        []float64
		decision float64
	}
	tied := squarePacket("0110", per, 1, 0)
	var inputs []input
	flat := make([]float64, 20*per)
	for i := range flat {
		flat[i] = 3
	}
	for _, d := range []float64{3, 2, 4} {
		inputs = append(inputs, input{"flat", flat, d})
	}
	inputs = append(inputs, input{"tied", tied, 0.5}, input{"tied-on-level", tied, 1})
	zeros := make([]float64, len(tied))
	for i := range zeros {
		zeros[i] = math.Copysign(0, float64(rng.Intn(2)-1))
	}
	inputs = append(inputs, input{"signed-zeros", zeros, 0}, input{"signed-zeros-below", zeros, -1})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := append([]float64(nil), tied...)
		for k := 0; k < 12; k++ {
			x[rng.Intn(len(x))] = v
		}
		inputs = append(inputs, input{fmt.Sprint("sprinkled ", v), x, 0.5})
	}
	suffix := append([]float64(nil), tied...)
	for i := len(suffix) - 3*per; i < len(suffix); i++ {
		suffix[i] = math.NaN()
	}
	inputs = append(inputs, input{"nan-suffix", suffix, 0.5},
		input{"nan-decision", tied, math.NaN()}, input{"inf-decision", tied, math.Inf(1)})
	for _, in := range inputs {
		for _, tau := range []float64{per, 0.5 * per, 2.1 * per} {
			for _, expected := range []int{0, 8, 12} {
				for _, anchor := range []int{2*per + per/2, 2*per + per/5} {
					opt := Options{ExpectedSymbols: expected}.withDefaults()
					if _, mismatch := compareGridSearch(in.x, anchor, tau, in.decision, opt, new(passScratch)); mismatch != "" {
						t.Fatalf("%s (decision %v, tau %v, %d symbols, anchor %d): %s", in.name, in.decision, tau, expected, anchor, mismatch)
					}
				}
			}
		}
	}
}

// FuzzGridSearch holds the bounded timing search to the exhaustive
// reference on fuzzed inputs: an ideal packet of a fuzzed payload and
// symbol length, perturbed sample by sample (quantized offsets, so
// candidate margins tie, and NaN, ±Inf and -0 samples), searched with
// a fuzzed decision level, tau skew, anchor offset and symbol count.
func FuzzGridSearch(f *testing.F) {
	f.Add(uint8(0b10), uint8(20), []byte{}, 6.0, 1.0, int16(0), uint8(8))
	f.Add(uint8(0b0110), uint8(30), []byte{1, 2, 3, 7, 0, 5}, 6.0, 0.45, int16(3), uint8(0))
	f.Add(uint8(0b11), uint8(12), []byte{4, 4, 255, 4, 254, 253, 252}, 5.5, 2.2, int16(-7), uint8(12))
	f.Add(uint8(0b1001), uint8(40), []byte{9, 200, 17}, math.NaN(), 1.6, int16(11), uint8(0))
	f.Fuzz(func(t *testing.T, payload, perSymbol uint8, noise []byte, decision, tauScale float64, anchorShift int16, expected uint8) {
		nbits := 1 + int(payload>>5)
		bitstring := make([]byte, nbits)
		for i := range bitstring {
			bitstring[i] = '0' + payload>>i&1
		}
		per := 4 + int(perSymbol%60)
		x := squarePacket(string(bitstring), per, 10, 2)
		for i, b := range noise {
			j := i % len(x)
			switch b {
			case 255:
				x[j] = math.NaN()
			case 254:
				x[j] = math.Inf(1)
			case 253:
				x[j] = math.Inf(-1)
			case 252:
				x[j] = math.Copysign(0, -1)
			default:
				x[j] += float64(int(b%9)-4) / 2
			}
		}
		tau := float64(per) * tauScale
		if !(tau >= 2 && tau <= float64(len(x))) {
			t.Skip()
		}
		anchor := min(max(2*per+per/2+int(anchorShift), 0), len(x)-1)
		opt := Options{ExpectedSymbols: int(expected % 20)}.withDefaults()
		if _, mismatch := compareGridSearch(x, anchor, tau, decision, opt, new(passScratch)); mismatch != "" {
			t.Fatalf("%s per %d, decision %v, tau %v, anchor %d, %d symbols: %s", bitstring, per, decision, tau, anchor, opt.ExpectedSymbols, mismatch)
		}
	})
}
