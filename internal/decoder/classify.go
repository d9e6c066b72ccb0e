package decoder

import (
	"errors"
	"fmt"
	"sort"

	"passivelight/internal/dsp"
	"passivelight/internal/trace"
)

// Baseline is one clean reference waveform in the classifier database
// (obtained under ideal conditions, Sec. 4.1).
type Baseline struct {
	Label   string
	Samples []float64 // normalized, resampled to the classifier length
}

// Classifier matches distorted waveforms against a database of clean
// baselines using DTW (Sec. 4.2). Signals are min-max normalized and
// resampled to a common length before the DTW distance is computed;
// DTW then absorbs the *non-uniform* time warping that plain
// resampling cannot (e.g. the speed doubling of Fig. 8).
type Classifier struct {
	length    int
	baselines []Baseline
	// UseEuclidean switches the distance to point-wise L2; ablation
	// baseline showing why DTW is needed.
	UseEuclidean bool
}

// NewClassifier builds a classifier that resamples inputs to length
// samples. length <= 0 selects 256.
func NewClassifier(length int) *Classifier {
	if length <= 0 {
		length = 256
	}
	return &Classifier{length: length}
}

// AddBaseline registers a clean waveform under a label.
func (c *Classifier) AddBaseline(label string, tr *trace.Trace) error {
	if tr == nil || tr.Len() < 4 {
		return errors.New("decoder: baseline trace too short")
	}
	c.baselines = append(c.baselines, Baseline{
		Label:   label,
		Samples: c.prepare(tr.Samples),
	})
	return nil
}

func (c *Classifier) prepare(x []float64) []float64 {
	return dsp.ResampleLinear(dsp.NormalizeMinMax(x), c.length)
}

// Match is a classification candidate.
type Match struct {
	Label    string
	Distance float64
}

// Classify returns all baselines ordered by ascending distance to the
// trace. The paper's decision rule is the nearest baseline.
func (c *Classifier) Classify(tr *trace.Trace) ([]Match, error) {
	if len(c.baselines) == 0 {
		return nil, errors.New("decoder: classifier has no baselines")
	}
	if tr == nil || tr.Len() < 4 {
		return nil, errors.New("decoder: trace too short")
	}
	probe := c.prepare(tr.Samples)
	matches := make([]Match, 0, len(c.baselines))
	for _, b := range c.baselines {
		var d float64
		if c.UseEuclidean {
			d = dsp.EuclideanDistance(probe, b.Samples)
		} else {
			var err error
			d, err = dsp.DTWWith(probe, b.Samples, dsp.DTWOptions{})
			if err != nil {
				return nil, fmt.Errorf("decoder: DTW against %q: %w", b.Label, err)
			}
		}
		matches = append(matches, Match{Label: b.Label, Distance: d})
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].Distance < matches[j].Distance })
	return matches, nil
}

// SelfDistance computes the DTW distance of a trace against itself
// after independent normalization/resampling — the paper reports this
// (131 for Fig. 8) as the reference scale for its absolute distances.
// With identical preprocessing the self-distance is exactly 0, so we
// follow the paper and compare the *raw* trace against its *smoothed*
// self to expose the noise scale.
func (c *Classifier) SelfDistance(tr *trace.Trace) (float64, error) {
	if tr == nil || tr.Len() < 4 {
		return 0, errors.New("decoder: trace too short")
	}
	probe := c.prepare(tr.Samples)
	smooth := c.prepare(dsp.MovingAverage(tr.Samples, int(tr.Fs*0.01)+1))
	return dsp.DTWWith(probe, smooth, dsp.DTWOptions{})
}
