// Command plsim simulates a passive-light scenario and writes the
// received RSS trace as CSV (readable by pldecode and any plotting
// tool). Worlds come from the declarative scenario registry: name a
// preset, load a spec file, or use the legacy indoor/outdoor/car
// aliases with their tuning flags.
//
// Usage:
//
//	plsim -list
//	plsim -scenario multi-lane -o lane.csv
//	plsim -scenario indoor -payload 10 -height 0.2 -width 0.03 -speed 0.08 -o trace.csv
//	plsim -scenario outdoor -payload 00 -height 0.75 -lux 6200 -receiver rx-led -o pass.csv
//	plsim -dump-spec weather-sweep > weather.json
//	plsim -spec weather.json -seed 7 -o weather.csv
//
// Load mode expands a load preset (or fans any scenario out) into N
// staggered sessions and decodes them all through one pipeline,
// printing a summary instead of a CSV:
//
//	plsim -scenario fleet-load -load 128
//	plsim -scenario rx-lanes -load 16 -stagger 0.5
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"passivelight"
	"passivelight/internal/frontend"
	"passivelight/internal/scenario"
	"passivelight/internal/trace"
)

func main() {
	var (
		name     = flag.String("scenario", "indoor", "registry preset name (see -list); the legacy aliases indoor | outdoor | car accept the tuning flags below")
		list     = flag.Bool("list", false, "print the scenario registry and exit")
		specPath = flag.String("spec", "", "load the scenario from a JSON spec file instead of the registry")
		dumpSpec = flag.String("dump-spec", "", "print the named preset as a JSON spec and exit")
		payload  = flag.String("payload", "10", "payload bits (legacy scenarios)")
		height   = flag.Float64("height", 0.20, "receiver height (m, legacy scenarios)")
		width    = flag.Float64("width", 0.03, "symbol width (m, legacy scenarios)")
		speed    = flag.Float64("speed", 0.08, "object speed (m/s, indoor)")
		speedKmh = flag.Float64("speed-kmh", 18, "car speed (km/h, outdoor)")
		lux      = flag.Float64("lux", 450, "outdoor ambient noise floor (lux)")
		receiver = flag.String("receiver", "rx-led", "outdoor receiver: rx-led | pd-g1 | pd-g2 | pd-g3 | pd-g2+cap")
		car      = flag.String("car", "volvo", "car model: volvo | bmw3")
		seed     = flag.Int64("seed", 1, "noise seed")
		out      = flag.String("o", "", "output CSV path (default stdout)")
		loadN    = flag.Int("load", 0, "expand the scenario (or a load preset) into N staggered sessions and decode them through one pipeline")
		stagger  = flag.Float64("stagger", -1, "per-session start offset in load mode (s; <0 keeps the preset's)")
		jitter   = flag.Float64("jitter", -1, "max per-session start jitter in load mode (s; <0 keeps the preset's)")
	)
	flag.Parse()

	if *list {
		printRegistry()
		return
	}
	if *dumpSpec != "" {
		if err := dump(*dumpSpec); err != nil {
			fail(err)
		}
		return
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	lf := legacyFlags{
		payload: *payload, height: *height, width: *width, speed: *speed,
		speedKmh: *speedKmh, lux: *lux, receiver: *receiver, car: *car, seed: *seed,
	}
	if *loadN > 0 {
		if err := runLoad(*specPath, *name, lf, *loadN, *stagger, *jitter, seedSet, *seed); err != nil {
			fail(err)
		}
		return
	}
	spec, err := resolveSpec(*specPath, *name, lf)
	if err != nil {
		fail(err)
	}
	if seedSet {
		spec.Seed = *seed
	}
	_, tr, err := spec.Simulate()
	if err != nil {
		fail(err)
	}
	if err := write(tr, *out); err != nil {
		fail(err)
	}
}

// runLoad is load mode: resolve the load (a load-registry preset by
// name, or any scenario fanned out with default stagger), expand to N
// staggered sessions, and decode sessions x receivers streams through
// one pipeline.
func runLoad(specPath, name string, lf legacyFlags, sessions int, stagger, jitter float64, seedSet bool, seed int64) error {
	var load scenario.Load
	if specPath == "" {
		l, err := scenario.GetLoad(name)
		switch {
		case err == nil:
			load = l
		case !errors.Is(err, scenario.ErrUnknownLoad):
			// A registered load preset whose builder failed: surface
			// the real error instead of falling back to the scenario
			// registry's "unknown preset".
			return err
		}
	}
	if load.Name == "" {
		spec, err := resolveSpec(specPath, name, lf)
		if err != nil {
			return err
		}
		load = scenario.Load{
			Name: spec.Name, Base: &spec,
			StaggerSec: scenario.DefaultStaggerSec,
			JitterSec:  scenario.DefaultJitterSec,
		}
	}
	load.Sessions = sessions
	if stagger >= 0 {
		load.StaggerSec = stagger
	}
	if jitter >= 0 {
		load.JitterSec = jitter
	}
	if seedSet {
		load.Seed = seed
	}
	specs, err := load.Expand()
	if err != nil {
		return err
	}
	strat, err := passivelight.StrategyForScenario(specs[0].Decode)
	if err != nil {
		return err
	}
	src := passivelight.NewLoadSource(load)
	pipe, err := passivelight.NewPipeline(src, strat,
		passivelight.WithExpectedSymbols(specs[0].Decode.ExpectedSymbols))
	if err != nil {
		return err
	}
	start := time.Now()
	events, err := pipe.Run(context.Background())
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	ok, bad := 0, 0
	for _, ev := range events {
		if ev.Err != nil {
			bad++
			continue
		}
		ok++
	}
	st := pipe.Stats()
	streams := src.Streams()
	fmt.Printf("load %s: %d sessions x %d receivers = %d streams\n",
		load.Name, sessions, len(streams)/sessions, len(streams))
	fmt.Printf("decoded %d packets (%d undecodable segments) from %d samples in %s (%.1f MB/s)\n",
		ok, bad, st.SamplesIn, elapsed.Round(time.Millisecond),
		float64(8*st.SamplesIn)/1e6/elapsed.Seconds())
	fmt.Printf("engine: %d shards, %d detections, %d decode errors, %d evicted, %d dropped samples\n",
		st.Shards, st.Detections, st.DecodeErrors, st.Evicted, st.DroppedSamples)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "plsim:", err)
	os.Exit(1)
}

func printRegistry() {
	fmt.Println("scenario registry (plsim -scenario <name>):")
	for _, e := range passivelight.ScenarioPresets() {
		fmt.Printf("  %-14s %s\n", e.Name, e.Description)
	}
	fmt.Println("\nload registry (plsim -scenario <name> -load N):")
	for _, e := range passivelight.ScenarioLoadPresets() {
		fmt.Printf("  %-14s %s\n", e.Name, e.Description)
	}
	fmt.Println("\nlegacy aliases (accept the tuning flags; see -h):")
	fmt.Println("  indoor         indoor bench built from -payload/-height/-width/-speed")
	fmt.Println("  outdoor        outdoor car pass from -payload/-height/-lux/-receiver/-car/-speed-kmh")
	fmt.Println("  car            bare car (shape signature only), same flags as outdoor")
}

func dump(name string) error {
	spec, err := passivelight.ScenarioPreset(name)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// legacyFlags carries the tuning flags of the legacy scenario names.
type legacyFlags struct {
	payload, receiver, car         string
	height, width, speed, speedKmh float64
	lux                            float64
	seed                           int64
}

// resolveSpec builds the scenario: from a spec file, a legacy alias
// plus its flags, or the registry.
func resolveSpec(specPath, name string, lf legacyFlags) (scenario.Spec, error) {
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return scenario.Spec{}, err
		}
		var spec scenario.Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return scenario.Spec{}, fmt.Errorf("parsing %s: %w", specPath, err)
		}
		return spec, nil
	}
	switch name {
	case "indoor":
		return scenario.BenchParams{
			Height:      lf.height,
			SymbolWidth: lf.width,
			Speed:       lf.speed,
			Payload:     lf.payload,
			Seed:        lf.seed,
		}.Spec()
	case "outdoor", "car":
		dev, err := frontend.ByName(lf.receiver)
		if err != nil {
			return scenario.Spec{}, err
		}
		model, err := scenario.CarByName(lf.car)
		if err != nil {
			return scenario.Spec{}, err
		}
		p := scenario.OutdoorParams{
			Payload:        lf.payload,
			SymbolWidth:    lf.width,
			SpeedKmh:       lf.speedKmh,
			ReceiverHeight: lf.height,
			NoiseFloorLux:  lf.lux,
			Receiver:       dev,
			Car:            model,
			Seed:           lf.seed,
		}
		if name == "car" {
			p.Payload = "" // bare car: shape signature only
		}
		return p.Spec()
	default:
		return passivelight.ScenarioPreset(name)
	}
}

func write(tr *trace.Trace, out string) error {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := tr.WriteCSV(w); err != nil {
		return err
	}
	if out != "" {
		st := tr.Stats()
		fmt.Fprintf(os.Stderr, "wrote %d samples (fs=%g Hz, rss %.0f..%.0f) to %s\n",
			tr.Len(), tr.Fs, st.Min, st.Max, out)
	}
	return nil
}
