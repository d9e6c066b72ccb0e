package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"passivelight/internal/decoder"
)

// TestMultiLinkDeterminism locks the fan-out guarantee: the same spec
// + seed compiles to bit-identical traces per receiver, while
// different receivers of one scenario see independent noise streams
// over the same world.
func TestMultiLinkDeterminism(t *testing.T) {
	spec, err := Get("rx-lanes")
	if err != nil {
		t.Fatal(err)
	}
	m1, trs1 := simulateLinks(t, spec)
	_, trs2 := simulateLinks(t, spec)
	if len(trs1) < 2 {
		t.Fatalf("rx-lanes compiled to %d links, want >= 2", len(trs1))
	}
	for i := range trs1 {
		identical(t, m1.Links[i].Name, trs1[i], trs2[i])
	}
	// Receivers must not share a noise stream: the two links render
	// the same world but digitize through independent electronics.
	same := true
	for i := range trs1[0].Samples {
		if trs1[0].Samples[i] != trs1[1].Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("both receivers produced the identical trace; per-receiver streams are not independent")
	}
	// Stream ids are stable and pack session<<32 | receiver.
	for i, l := range m1.Links {
		if l.StreamID != StreamID(0, i) || l.StreamID != uint64(i) {
			t.Fatalf("link %d stream id %d", i, l.StreamID)
		}
	}
	if id := StreamID(130, 3); id != 130<<32|3 {
		t.Fatalf("StreamID(130,3) = %#x, want %#x", id, uint64(130)<<32|3)
	}
}

// TestMultiLinkSingleReceiverParity: a single-receiver spec compiled
// through CompileMulti is bit-identical to the historical Compile
// path, for every single-receiver preset.
func TestMultiLinkSingleReceiverParity(t *testing.T) {
	for _, e := range Entries() {
		spec, err := e.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if len(spec.Receivers) > 0 {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			_, tr := simulateSpec(t, spec)
			m, trs := simulateLinks(t, spec)
			if len(trs) != 1 {
				t.Fatalf("single-receiver spec compiled to %d links", len(trs))
			}
			identical(t, e.Name, tr, trs[0])
			if m.Links[0].StreamID != 0 || m.Links[0].Index != 0 {
				t.Fatalf("single link keyed %d/%d", m.Links[0].Index, m.Links[0].StreamID)
			}
		})
	}
}

// TestMultiLinkJSONRoundTrip: the receivers list survives JSON and
// compiles to identical output (TestSpecJSONRoundTrip covers this for
// registry presets; this case adds per-receiver seed/noise overrides,
// which only a multi-receiver spec carries).
func TestMultiLinkJSONRoundTrip(t *testing.T) {
	spec, err := Get("rx-lanes")
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(99)
	spec.Receivers[1].Seed = &seed
	spec.Receivers[1].Noise = &NoiseSpec{Profile: "quiet", Fog: &FogSpec{Density: 0.2, ScatterLux: 100}}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Spec
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	_, want := simulateLinks(t, spec)
	_, got := simulateLinks(t, loaded)
	for i := range want {
		identical(t, "rx-lanes+overrides", want[i], got[i])
	}
}

// TestMultiLinkReceiverOverrides: per-receiver seed and noise
// overrides change that link only, and the single/multi receiver
// fields stay mutually exclusive.
func TestMultiLinkReceiverOverrides(t *testing.T) {
	spec, err := Get("rx-lanes")
	if err != nil {
		t.Fatal(err)
	}
	_, base := simulateLinks(t, spec)
	seed := int64(7)
	spec.Receivers[1].Seed = &seed
	_, reseeded := simulateLinks(t, spec)
	identical(t, "untouched link", base[0], reseeded[0])
	sameCount := 0
	for i := range base[1].Samples {
		if base[1].Samples[i] == reseeded[1].Samples[i] {
			sameCount++
		}
	}
	if sameCount == len(base[1].Samples) {
		t.Fatal("per-receiver seed override did not change the link's streams")
	}

	// Compile (single-link surface) refuses a multi-receiver spec.
	if _, err := spec.Compile(); err == nil || !strings.Contains(err.Error(), "CompileMulti") {
		t.Fatalf("Compile over 2 receivers: %v", err)
	}
	// Setting both forms is an error.
	spec.Receiver = ReceiverSpec{Device: "rx-led", HeightM: 0.75}
	if _, err := spec.CompileMulti(); err == nil {
		t.Fatal("receiver + receivers should not compile")
	}
}

// TestLoadExpandDeterministic: the same Load expands to the same
// staggered specs every time, the stagger is monotone, per-session
// seeds are distinct, and a JSON round-tripped Load compiles to
// bit-identical traces.
func TestLoadExpandDeterministic(t *testing.T) {
	load, err := GetLoad("fleet-load")
	if err != nil {
		t.Fatal(err)
	}
	load.Sessions = 6
	specs, err := load.Expand()
	if err != nil {
		t.Fatal(err)
	}
	again, err := load.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 || len(again) != 6 {
		t.Fatalf("expanded %d/%d sessions", len(specs), len(again))
	}
	seeds := map[int64]bool{}
	prevDelay := -1.0
	for k, spec := range specs {
		if seeds[spec.Seed] {
			t.Fatalf("session %d repeats seed %d", k, spec.Seed)
		}
		seeds[spec.Seed] = true
		delay := spec.Objects[0].Mobility.DelaySec
		if delay < float64(k)*load.StaggerSec {
			t.Fatalf("session %d delay %.3f under the stagger ramp", k, delay)
		}
		if delay <= prevDelay && load.StaggerSec > load.JitterSec {
			t.Fatalf("session %d delay %.3f not past session %d's %.3f", k, delay, k-1, prevDelay)
		}
		prevDelay = delay
	}
	// Bit-identical expansion and JSON round-trip, checked on a
	// sampled session (first and last).
	data, err := json.Marshal(load)
	if err != nil {
		t.Fatal(err)
	}
	var reloaded Load
	if err := json.Unmarshal(data, &reloaded); err != nil {
		t.Fatal(err)
	}
	respecs, err := reloaded.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 5} {
		_, want := simulateSpec(t, specs[k])
		_, fromSame := simulateSpec(t, again[k])
		_, fromJSON := simulateSpec(t, respecs[k])
		identical(t, "re-expansion", want, fromSame)
		identical(t, "json round trip", want, fromJSON)
	}
}

// TestLoadShiftsPinnedSeeds: a base spec that pins a stream's seed
// (spec-level noise override, per-receiver seed/noise overrides)
// still fans out to de-correlated sessions — the pins are shifted by
// each session's seed offset, with session 0 keeping the base values
// and the base spec itself left untouched.
func TestLoadShiftsPinnedSeeds(t *testing.T) {
	pin := int64(42)
	base, err := Get("rx-lanes")
	if err != nil {
		t.Fatal(err)
	}
	base.Noise.Seed = &pin
	rpin := int64(7)
	base.Receivers[0].Seed = &rpin
	base.Receivers[1].Noise = &NoiseSpec{Profile: "outdoor", Seed: &pin}
	load := Load{Base: &base, Sessions: 2}
	specs, err := load.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if *specs[0].Noise.Seed != pin || *specs[0].Receivers[0].Seed != rpin {
		t.Fatal("session 0 must keep the base's pinned seeds")
	}
	if *specs[1].Noise.Seed == pin || *specs[1].Receivers[0].Seed == rpin ||
		*specs[1].Receivers[1].Noise.Seed == pin {
		t.Fatalf("session 1 kept a pinned seed: noise=%d rx0=%d rx1noise=%d",
			*specs[1].Noise.Seed, *specs[1].Receivers[0].Seed, *specs[1].Receivers[1].Noise.Seed)
	}
	if *base.Noise.Seed != pin || *base.Receivers[0].Seed != rpin || base.Receivers[1].Noise.Seed != specs[0].Receivers[1].Noise.Seed {
		t.Fatal("expanding must not mutate the base spec")
	}
	// The pinned channel-noise stream must actually differ between
	// sessions now.
	_, trs0 := simulateLinks(t, specs[0])
	_, trs1 := simulateLinks(t, specs[1])
	same := true
	for i := range trs0[1].Samples {
		if trs0[1].Samples[i] != trs1[1].Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("pinned-seed receiver rendered bit-identically across sessions")
	}
}

// TestLoadValidation: the load layer fails loudly on bad shapes.
func TestLoadValidation(t *testing.T) {
	if _, err := (Load{Preset: "indoor-bench"}).Expand(); err == nil {
		t.Fatal("sessions < 1 should fail")
	}
	if _, err := (Load{Preset: "no-such", Sessions: 1}).Expand(); err == nil {
		t.Fatal("unknown preset should fail")
	}
	if _, err := (Load{Sessions: 1}).Expand(); err == nil {
		t.Fatal("load without a base should fail")
	}
	base := Spec{Name: "x"}
	if _, err := (Load{Preset: "indoor-bench", Base: &base, Sessions: 1}).Expand(); err == nil {
		t.Fatal("preset + base should fail")
	}
	if _, err := (Load{Preset: "indoor-bench", Sessions: 1, StaggerSec: -1}).Expand(); err == nil {
		t.Fatal("negative stagger should fail")
	}
	if _, err := GetLoad("no-such-load"); err == nil {
		t.Fatal("unknown load preset should fail")
	}
	if err := RegisterLoad("fleet-load", "dup", nil); err == nil {
		t.Fatal("duplicate load registration should fail")
	}
}

// TestStopAndGoDTWFallback is the decode lock for the stop-and-go
// preset: the paper's plain Sec. 4.1 threshold algorithm (fixed tau_t
// slicing, no timing recovery) cannot read the dwell-stretched
// packet, and the Sec. 4.2 DTW fallback classifies it correctly
// against the clean bench baselines.
func TestStopAndGoDTWFallback(t *testing.T) {
	spec, err := Get("stop-and-go")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Objects[0].Mobility.Kind != "stop-and-go" {
		t.Fatalf("preset mobility kind %q", spec.Objects[0].Mobility.Kind)
	}
	c, tr := simulateSpec(t, spec)
	want := c.Packets[0].Packet.BitString()

	// Phase 1: the plain threshold decoder trips over the dwell.
	res, err := decoder.Decode(tr, decoder.Options{
		ExpectedSymbols:       spec.Decode.ExpectedSymbols,
		DisableTimingRecovery: true,
	})
	thresholdOK := err == nil && res.ParseErr == nil && res.Packet.BitString() == want
	if thresholdOK {
		t.Fatalf("threshold decode read %q despite the mid-packet dwell; the preset no longer exercises the DTW fallback", want)
	}

	// Phase 2: DTW against the clean '00'/'10' baselines classifies
	// the distorted pass correctly.
	cls := newBenchClassifier(t)
	matches, err := cls.Classify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].Label != want {
		t.Fatalf("DTW classified %q, want %q (distances %v)", matches[0].Label, want, matches)
	}
}
