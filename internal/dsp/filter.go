package dsp

// MovingAverage returns the centered moving average of x with the
// given window size (clamped at the edges). window <= 1 returns a
// copy of x.
func MovingAverage(x []float64, window int) []float64 {
	var s Smoother
	s.Bind(x)
	return s.MovingAverage(nil, window)
}

// Smoother serves repeated centered moving averages of one signal from
// a single prefix-sum pass: Bind computes the prefix sums of x, and
// each MovingAverage call after it evaluates one window size from
// them. Results are bit-identical to the package-level MovingAverage.
// Binding again, even the same slice with new contents, recomputes the
// sums; nothing is keyed on slice identity. Bind before the first
// MovingAverage. Not safe for concurrent use.
type Smoother struct {
	// x is the bound signal, kept only for the window <= 1 copy.
	x      []float64
	prefix []float64
}

// Bind computes the prefix sums of x for the MovingAverage calls that
// follow.
func (s *Smoother) Bind(x []float64) {
	s.x = x
	if cap(s.prefix) < len(x)+1 {
		s.prefix = make([]float64, len(x)+1)
	}
	prefix := s.prefix[:len(x)+1]
	prefix[0] = 0
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	s.prefix = prefix
}

// Sum returns the sum of the bound signal, accumulated in index order
// (the same value a plain loop over it produces).
func (s *Smoother) Sum() float64 { return s.prefix[len(s.prefix)-1] }

// MovingAverage writes the centered moving average of the bound
// signal (window clamped at the edges) into dst, growing it as needed,
// and returns it. window <= 1 copies the bound signal, which must then
// be unchanged since Bind and must not alias dst.
func (s *Smoother) MovingAverage(dst []float64, window int) []float64 {
	n := len(s.prefix) - 1
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	if window <= 1 {
		copy(dst, s.x)
		return dst
	}
	half := window / 2
	prefix := s.prefix
	edge := func(i int) {
		lo := max(0, i-half)
		hi := min(n-1, i+half)
		dst[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	// Unclamped windows share one divisor; the edges clamp.
	body := min(half, n)
	for i := 0; i < body; i++ {
		edge(i)
	}
	w := float64(2*half + 1)
	for i := body; i+half < n; i++ {
		dst[i] = (prefix[i+half+1] - prefix[i-half]) / w
	}
	for i := max(body, n-half); i < n; i++ {
		edge(i)
	}
	return dst
}
