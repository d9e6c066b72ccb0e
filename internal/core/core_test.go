package core

import (
	"testing"

	"passivelight/internal/channel"
	"passivelight/internal/frontend"
	"passivelight/internal/noise"
	"passivelight/internal/optics"
	"passivelight/internal/scene"
)

// minimalLink hand-assembles the smallest valid link; the builder
// surface lives one layer up in internal/scenario.
func minimalLink(t *testing.T) *Link {
	t.Helper()
	fe, err := frontend.NewChain(frontend.PD(frontend.G1), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &Link{
		Scene:    scene.New(optics.Sun{Lux: 200}),
		Receiver: channel.Receiver{Height: 0.3},
		Frontend: fe,
		Noise:    noise.Model{}, // every impairment off
		Duration: 0.25,
	}
}

func TestLinkValidation(t *testing.T) {
	if _, err := (&Link{}).Simulate(); err == nil {
		t.Fatal("empty link should fail")
	}
	link := minimalLink(t)
	link.Duration = 0
	if _, err := link.Simulate(); err == nil {
		t.Fatal("zero duration should fail")
	}
}

func TestSimulateFogStage(t *testing.T) {
	clear := minimalLink(t)
	clearTr, err := clear.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	fogged := minimalLink(t)
	fogged.Fog = &noise.Fog{Transmission: 0.5, ScatterLevel: 0}
	fogTr, err := fogged.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if clearTr.Stats().Mean <= fogTr.Stats().Mean {
		t.Fatalf("fog should attenuate: clear mean %.1f, fogged mean %.1f",
			clearTr.Stats().Mean, fogTr.Stats().Mean)
	}
}
