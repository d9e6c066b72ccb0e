package experiments

import (
	"passivelight/internal/channel"
	"passivelight/internal/core"
	"passivelight/internal/decoder"
	"passivelight/internal/energy"
	"passivelight/internal/noise"
	"passivelight/internal/scenario"
	"passivelight/internal/scene"
	"passivelight/internal/trace"
)

// DistortionResult covers the Sec. 3 channel distortions the paper
// calls out but does not quantify: dirt on the reflective surfaces
// and fog between the object and the receiver. For each severity the
// driver records whether the threshold decoder still works and
// whether DTW classification (the Sec. 4.2 fallback) recovers the
// packet identity.
type DistortionResult struct {
	Report Report
	Dirt   []DistortionPoint
	Fog    []DistortionPoint
}

// DistortionPoint is one severity step.
type DistortionPoint struct {
	Severity     float64 // dirt coverage or (1 - fog transmission)
	ThresholdOK  bool
	ClassifiedOK bool
}

// dirtBench renders the Fig. 5 '10' bench with a dirty tag.
func dirtBench(coverage float64, seed int64) (*trace.Trace, error) {
	link, _, err := scenario.BenchParams{
		Height: 0.20, SymbolWidth: 0.03, Speed: 0.08,
		Payload: "10", Dirt: coverage, Seed: seed,
	}.Build()
	if err != nil {
		return nil, err
	}
	return link.Simulate()
}

// Distortion sweeps dirt coverage and fog density.
func Distortion() (DistortionResult, error) {
	res := DistortionResult{Report: Report{ID: "distortion", Title: "channel distortions (Sec. 3): dirt on stripes and fog in the path"}}
	// Classifier baselines from the clean bench.
	cls := decoder.NewClassifier(256)
	for i, payload := range []string{"00", "10"} {
		link, _, err := fig5Bench(payload, int64(170+i)).Build()
		if err != nil {
			return res, err
		}
		tr, err := link.Simulate()
		if err != nil {
			return res, err
		}
		if err := cls.AddBaseline(payload, tr); err != nil {
			return res, err
		}
	}
	classify := func(tr *trace.Trace) bool {
		m, err := cls.Classify(tr)
		return err == nil && m[0].Label == "10"
	}
	decode := func(tr *trace.Trace) bool {
		dec, err := decoder.Decode(tr, decoder.Options{ExpectedSymbols: 8})
		return err == nil && dec.ParseErr == nil && dec.Packet.BitString() == "10"
	}
	// Dirt sweep. The cliff sits between 95% and 97%: edge-based
	// clock re-acquisition decodes through 95% coverage, and 97%
	// erases the reflectance contrast itself.
	for i, coverage := range []float64{0, 0.3, 0.6, 0.8, 0.95, 0.97} {
		tr, err := dirtBench(coverage, int64(180+i))
		if err != nil {
			return res, err
		}
		pt := DistortionPoint{Severity: coverage, ThresholdOK: decode(tr), ClassifiedOK: classify(tr)}
		res.Dirt = append(res.Dirt, pt)
		res.Report.addf("dirt %3.0f%%: threshold ok=%v, DTW ok=%v", coverage*100, pt.ThresholdOK, pt.ClassifiedOK)
	}
	// Fog sweep: the clean bench scenario rendered once, then fog and
	// a fresh noise stream applied per density — fog and noise are
	// post-render stages, so re-rendering the identical world six
	// times would only burn the dominant simulation cost.
	cleanWorld, err := fig5Bench("10", 190).Spec()
	if err != nil {
		return res, err
	}
	clean, err := cleanWorld.Compile()
	if err != nil {
		return res, err
	}
	cleanLink := clean.Link
	cleanLux, err := channel.Render(cleanLink.Scene, cleanLink.Receiver, 0, cleanLink.Duration, cleanLink.Frontend.Fs)
	if err != nil {
		return res, err
	}
	for i, density := range []float64{0, 0.3, 0.6, 0.8, 0.9, 0.96} {
		fog := noise.Fog{Transmission: 1 - density, ScatterLevel: 30}
		lux := fog.Apply(cleanLux)
		lux = noise.Indoor(int64(195 + i)).ApplyInPlace(lux)
		tr := trace.Wrap(cleanLink.Frontend.Fs, 0, cleanLink.Frontend.Digitize(lux))
		pt := DistortionPoint{Severity: density, ThresholdOK: decode(tr), ClassifiedOK: classify(tr)}
		res.Fog = append(res.Fog, pt)
		res.Report.addf("fog %3.0f%%: threshold ok=%v, DTW ok=%v", density*100, pt.ThresholdOK, pt.ClassifiedOK)
	}
	res.Report.addf("the adaptive thresholds absorb moderate distortion; extreme dirt/fog erases the reflectance contrast itself")
	return res, nil
}

// SignatureIDResult exercises the Sec. 5.1 promise that car optical
// signatures are unique: identify unknown passes against registered
// template passes with DTW.
type SignatureIDResult struct {
	Report  Report
	Correct int
	Total   int
}

// SignatureID registers one template pass per car and identifies
// fresh passes (different noise seeds, slightly different speeds).
func SignatureID() (SignatureIDResult, error) {
	res := SignatureIDResult{Report: Report{ID: "signature-id", Title: "car identification from optical signatures (Sec. 5.1) via DTW"}}
	cls := decoder.NewSignatureClassifier(0)
	cars := []scene.CarModel{scene.VolvoV40(), scene.BMW3()}
	for i, car := range cars {
		link, _, err := scenario.OutdoorParams{Car: car, NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: int64(210 + i)}.Build()
		if err != nil {
			return res, err
		}
		tr, err := link.Simulate()
		if err != nil {
			return res, err
		}
		if err := cls.AddTemplate(car.Name, tr); err != nil {
			return res, err
		}
	}
	// Probe passes: new seeds and varied speeds.
	for i, car := range cars {
		for j, speed := range []float64{15, 18, 22} {
			link, _, err := scenario.OutdoorParams{
				Car: car, NoiseFloorLux: 6200, ReceiverHeight: 0.75,
				SpeedKmh: speed, Seed: int64(220 + 10*i + j),
			}.Build()
			if err != nil {
				return res, err
			}
			tr, err := link.Simulate()
			if err != nil {
				return res, err
			}
			matches, err := cls.Identify(tr)
			if err != nil {
				return res, err
			}
			res.Total++
			ok := matches[0].Label == car.Name
			if ok {
				res.Correct++
			}
			res.Report.addf("%-10s at %2.0f km/h -> identified %q ok=%v", car.Name, speed, matches[0].Label, ok)
		}
	}
	return res, nil
}

// EnergyResult reproduces the introduction's sustainability argument.
type EnergyResult struct {
	Report Report
	// TinyBoxSelfSustainingAt6200 under daylight.
	TinyBoxSelfSustainingAt6200 bool
	// CameraRatio is camera/tiny-box consumption.
	CameraRatio float64
}

// Energy evaluates the credit-card solar panel against the tiny-box
// and camera budgets.
func Energy() (EnergyResult, error) {
	res := EnergyResult{Report: Report{ID: "energy", Title: "sustainability: tiny-box vs camera power, credit-card solar harvesting (Sec. 1)"}}
	rows, err := energy.CompareReport(6200, true)
	if err != nil {
		return res, err
	}
	res.Report.Lines = append(res.Report.Lines, rows...)
	ok, _, err := energy.SelfSustaining(energy.CreditCardPanel(), energy.TinyBoxBudget(), 6200, true)
	if err != nil {
		return res, err
	}
	res.TinyBoxSelfSustainingAt6200 = ok
	res.CameraRatio = energy.CameraBudget().TotalMW() / energy.TinyBoxBudget().TotalMW()
	// Also show an indoor office level.
	indoorRows, err := energy.CompareReport(450, false)
	if err != nil {
		return res, err
	}
	res.Report.Lines = append(res.Report.Lines, indoorRows...)
	return res, nil
}

// DynamicTagResult exercises future work (1): a tag cycling between
// two codes (E-ink/LCD-shutter surface); two passes separated in time
// read different payloads from the same physical object.
type DynamicTagResult struct {
	Report        Report
	FirstDecoded  string
	SecondDecoded string
	BothCorrect   bool
}

// DynamicTag simulates two passes over a frame-cycling tag.
func DynamicTag() (DynamicTagResult, error) {
	res := DynamicTagResult{Report: Report{ID: "dynamic-tag", Title: "future work (1): E-ink/LCD dynamic tag cycling two codes"}}
	// Frame period far longer than one pass, so each pass sees one
	// stable frame.
	const (
		framePeriod = 60.0
		symbolWidth = 0.03
		speed       = 0.08
	)
	decodePass := func(t0 float64, seed int64) (string, error) {
		rx := channel.Receiver{X: 0, Height: 0.2, FoVHalfAngleDeg: core.IndoorFoVDeg}
		start := -(rx.FootprintRadius() + 0.15)
		tagLen, err := scenario.TagLength("00", symbolWidth)
		if err != nil {
			return "", err
		}
		// The object starts its pass at absolute time t0 (it idles at
		// zero speed until then, so the frame clock keeps running).
		spec := scenario.Spec{
			Seed:        seed,
			T0Sec:       t0,
			DurationSec: (-start + tagLen + rx.FootprintRadius() + 0.05) / speed,
			Optics:      scenario.LampOptics(0.12, 0.2, core.IndoorLampLux, core.IndoorRefHeight, 4),
			Receiver:    scenario.ReceiverSpec{Device: "pd-G1", HeightM: 0.2, FoVDeg: core.IndoorFoVDeg, Fs: 1000},
			Noise:       scenario.NoiseSpec{Profile: "indoor"},
			Objects: []scenario.ObjectSpec{{
				Kind:           "dynamic-tag",
				Name:           "dyn",
				Frames:         []string{"00", "10"},
				FramePeriodSec: framePeriod,
				SymbolWidthM:   symbolWidth,
				Mobility: scenario.MobilitySpec{
					Kind:   "piecewise",
					StartM: start,
					Segments: []scenario.SpeedSegmentSpec{
						{UntilSec: t0, SpeedMS: 0},
						{UntilSec: 1e9, SpeedMS: speed},
					},
				},
			}},
			Decode: scenario.DecodeSpec{Strategy: "threshold", ExpectedSymbols: 8},
		}
		world, err := spec.Compile()
		if err != nil {
			return "", err
		}
		tr, err := world.Link.Simulate()
		if err != nil {
			return "", err
		}
		dec, err := decoder.Decode(tr, decoder.Options{ExpectedSymbols: 8})
		if err != nil {
			return "", err
		}
		if dec.ParseErr != nil {
			return dec.SymbolString(), nil
		}
		return dec.Packet.BitString(), nil
	}
	first, err := decodePass(1, 230) // within frame 0 ('00')
	if err != nil {
		return res, err
	}
	second, err := decodePass(framePeriod+1, 231) // within frame 1 ('10')
	if err != nil {
		return res, err
	}
	res.FirstDecoded, res.SecondDecoded = first, second
	res.BothCorrect = first == "00" && second == "10"
	res.Report.addf("pass during frame 0 decoded %q (want 00); pass during frame 1 decoded %q (want 10)", first, second)
	res.Report.addf("same physical tag conveys time-varying data at an increased footprint (paper Sec. 6 (1))")
	return res, nil
}
