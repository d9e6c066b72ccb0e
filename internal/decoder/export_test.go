package decoder

// GridSearchMismatch runs the decode pass over samples up to the
// timing search, scales the symbol-duration estimate by tauScale, and
// then runs both the bounded search and its exhaustive reference model
// on the result. searched is false when the pass stops before the
// search (no preamble, low contrast); rounds has a bit set for each
// search round the reference ran (see refineGridExhaustive); mismatch
// describes the first difference, empty when the two agree bit for
// bit.
func GridSearchMismatch(samples []float64, fs float64, opt Options, tauScale float64) (searched bool, rounds int, mismatch string) {
	opt = opt.withDefaults()
	sc := new(passScratch)
	g, err := prepareGrid(samples, fs, opt, sc)
	if err != nil {
		return false, 0, ""
	}
	rounds, mismatch = compareGridSearch(g.smooth, g.pts.AIndex, g.tauSamples*tauScale, g.decision, opt, sc)
	return true, rounds, mismatch
}
