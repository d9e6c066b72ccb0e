package scene

import (
	"errors"
	"fmt"
	"math"
)

// LaneOffset staggers a trajectory in time: the object holds its
// start position for Delay seconds, then follows Inner shifted by
// Delay. It is how multi-lane scenarios (several tagged cars passing
// the same receiver one after another) are composed from per-lane
// trajectories without rewriting them.
type LaneOffset struct {
	Inner Trajectory
	// Delay in seconds before the inner trajectory starts.
	Delay float64
}

// PositionAt implements Trajectory.
func (l LaneOffset) PositionAt(t float64) float64 {
	if t <= l.Delay {
		return l.Inner.PositionAt(0)
	}
	return l.Inner.PositionAt(t - l.Delay)
}

// Stop is one dwell of a stop-and-go trajectory: the object halts at
// time At (seconds, measured on the trajectory clock) and stays put
// for Dwell seconds.
type Stop struct {
	At    float64
	Dwell float64
}

// StopAndGo builds the piecewise trajectory of urban traffic: cruise
// at speed, halt for each Stop in order, resume. Stops must be
// ordered, non-overlapping and strictly positive.
func StopAndGo(start, speed float64, stops []Stop) (PiecewiseSpeed, error) {
	if speed <= 0 {
		return PiecewiseSpeed{}, errors.New("scene: stop-and-go speed must be positive")
	}
	var segs []SpeedSegment
	prevEnd := 0.0
	for i, s := range stops {
		if s.At <= prevEnd {
			return PiecewiseSpeed{}, fmt.Errorf("scene: stop %d at %.3f s overlaps the previous one", i, s.At)
		}
		if s.Dwell <= 0 {
			return PiecewiseSpeed{}, fmt.Errorf("scene: stop %d dwell must be positive", i)
		}
		segs = append(segs,
			SpeedSegment{Until: s.At, Speed: speed},
			SpeedSegment{Until: s.At + s.Dwell, Speed: 0},
		)
		prevEnd = s.At + s.Dwell
	}
	segs = append(segs, SpeedSegment{Until: math.Inf(1), Speed: speed})
	return NewPiecewiseSpeed(start, segs)
}

// LaneCompose validates that objects can share one receiver FoV as
// lateral lanes: every lateral share in (0, 1] and the total within
// the FoV budget. SampleAt clamps overshoot at render time anyway;
// failing loudly here catches misconfigured scenario specs instead of
// silently flattening the last lane's contribution.
func LaneCompose(objs ...*Object) error {
	var total float64
	for _, o := range objs {
		if err := validShare(o.LateralShare); err != nil {
			return fmt.Errorf("object %q: %w", o.Name, err)
		}
		total += o.LateralShare
	}
	if total > 1+1e-9 {
		return fmt.Errorf("scene: lateral shares sum to %.3f > 1 across %d objects", total, len(objs))
	}
	return nil
}

// LaneShares splits the FoV budget into n distinct lane shares that
// sum to total: each lane is slightly wider than the next, so
// multi-object scenarios keep a dominance ordering (the paper's
// collision Case 1/2 structure generalized to n lanes).
func LaneShares(n int, total float64) []float64 {
	if n <= 0 {
		return nil
	}
	if total <= 0 || total > 1 {
		total = 1
	}
	// Arithmetic progression: share_i = base + (n-1-i)*step with
	// step = base/n keeps every share positive and distinct.
	out := make([]float64, n)
	base := total / float64(n)
	step := base / float64(n)
	// Sum of offsets (i from 0..n-1 of (n-1-i)*step) = step*n*(n-1)/2;
	// subtract its mean so the total is preserved exactly in intent.
	mean := step * float64(n-1) / 2
	for i := 0; i < n; i++ {
		out[i] = base + step*float64(n-1-i) - mean
	}
	return out
}
