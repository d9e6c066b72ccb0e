package core

// Calibration constants. The paper's absolute RSS values depend on
// their lab and parking lot; these constants pin the simulator so the
// *shape* of each result matches the paper (see DESIGN.md Sec. 5-6).
const (
	// IndoorLampLux is the illuminance directly under the bench LED
	// lamp at the IndoorRefHeight reference. With the receiver at
	// 20 cm this produces the clean near-binary signals of Fig. 5.
	IndoorLampLux = 350.0

	// IndoorRefHeight is the height at which IndoorLampLux is
	// calibrated; the lamp's luminous intensity is fixed, so higher
	// benches receive 1/h^2 less light.
	IndoorRefHeight = 0.20

	// IndoorFoVDeg is the effective FoV half-angle of the focused
	// indoor bench receiver. It sets the decodable-region slope of
	// Fig. 6(a): the footprint diameter 2*h*tan(psi) must stay
	// comparable to the symbol width, giving max height roughly
	// linear in width. 5 degrees yields a slope near the paper's
	// ~5.4 m height per meter of symbol width.
	IndoorFoVDeg = 5.0

	// CarSpeedKmh is the outdoor evaluation speed.
	CarSpeedKmh = 18.0

	// OutdoorSymbolWidth is the stripe width on the car roof (m).
	OutdoorSymbolWidth = 0.10

	// OutdoorFs is the outdoor sampling rate (samples/s).
	OutdoorFs = 2000.0
)
