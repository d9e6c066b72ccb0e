package dsp

import (
	"errors"
	"math"
	"sort"
)

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

// MedianFilter returns the sliding median of x with the given odd
// window size (clamped at the edges). It removes impulsive outliers
// (e.g. specular glints) without smearing symbol edges the way a
// moving average does.
func MedianFilter(x []float64, window int) []float64 {
	out := make([]float64, len(x))
	if window <= 1 {
		copy(out, x)
		return out
	}
	half := window / 2
	buf := make([]float64, 0, window)
	for i := range x {
		lo := max(0, i-half)
		hi := min(len(x)-1, i+half)
		buf = buf[:0]
		buf = append(buf, x[lo:hi+1]...)
		sort.Float64s(buf)
		m := len(buf)
		if m%2 == 1 {
			out[i] = buf[m/2]
		} else {
			out[i] = 0.5 * (buf[m/2-1] + buf[m/2])
		}
	}
	return out
}

// ExponentialMA returns the exponential moving average of x with
// smoothing factor alpha in (0, 1]; larger alpha tracks faster.
func ExponentialMA(x []float64, alpha float64) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	alpha = Clamp01(alpha)
	out[0] = x[0]
	for i := 1; i < len(x); i++ {
		out[i] = alpha*x[i] + (1-alpha)*out[i-1]
	}
	return out
}

// Clamp01 limits v to [0, 1].
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// FirstOrderLowpass models an RC low-pass with the given cutoff
// frequency, applied to samples at rate fs. The photodiode and RX-LED
// response times are modeled with this filter: a slow receiver cannot
// follow fast reflectance changes, which bounds the maximal supported
// object speed (paper Sec. 6, future work (3)).
type FirstOrderLowpass struct {
	alpha float64
	state float64
	init  bool
}

// NewFirstOrderLowpass builds the filter. cutoffHz <= 0 disables
// filtering (unity passthrough).
func NewFirstOrderLowpass(cutoffHz, fs float64) *FirstOrderLowpass {
	f := &FirstOrderLowpass{alpha: 1}
	if cutoffHz > 0 && fs > 0 {
		rc := 1 / (2 * math.Pi * cutoffHz)
		dt := 1 / fs
		f.alpha = dt / (rc + dt)
	}
	return f
}

// Step feeds one sample and returns the filtered value.
func (f *FirstOrderLowpass) Step(x float64) float64 {
	if !f.init {
		f.state = x
		f.init = true
		return x
	}
	f.state += f.alpha * (x - f.state)
	return f.state
}

// Reset clears the filter state.
func (f *FirstOrderLowpass) Reset() { f.init = false; f.state = 0 }

// Apply filters a whole slice, returning a new slice. The internal
// state is reset first.
func (f *FirstOrderLowpass) Apply(x []float64) []float64 {
	f.Reset()
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = f.Step(v)
	}
	return out
}

// Biquad is a direct-form-I second-order IIR section.
type Biquad struct {
	b0, b1, b2, a1, a2 float64
	x1, x2, y1, y2     float64
}

// NewLowpassBiquad designs a Butterworth-style low-pass biquad with
// cutoff f0 at sample rate fs and quality factor q (0.7071 for a
// maximally flat response).
func NewLowpassBiquad(f0, fs, q float64) (*Biquad, error) {
	if f0 <= 0 || fs <= 0 || f0 >= fs/2 {
		return nil, errors.New("dsp: biquad cutoff must be in (0, fs/2)")
	}
	if q <= 0 {
		q = math.Sqrt2 / 2
	}
	w0 := 2 * math.Pi * f0 / fs
	alpha := math.Sin(w0) / (2 * q)
	cosw := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 - cosw) / 2 / a0,
		b1: (1 - cosw) / a0,
		b2: (1 - cosw) / 2 / a0,
		a1: -2 * cosw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// NewHighpassBiquad designs a high-pass biquad (used to strip the DC
// ambient level before spectral analysis).
func NewHighpassBiquad(f0, fs, q float64) (*Biquad, error) {
	if f0 <= 0 || fs <= 0 || f0 >= fs/2 {
		return nil, errors.New("dsp: biquad cutoff must be in (0, fs/2)")
	}
	if q <= 0 {
		q = math.Sqrt2 / 2
	}
	w0 := 2 * math.Pi * f0 / fs
	alpha := math.Sin(w0) / (2 * q)
	cosw := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 + cosw) / 2 / a0,
		b1: -(1 + cosw) / a0,
		b2: (1 + cosw) / 2 / a0,
		a1: -2 * cosw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// Step feeds one sample through the section.
func (b *Biquad) Step(x float64) float64 {
	y := b.b0*x + b.b1*b.x1 + b.b2*b.x2 - b.a1*b.y1 - b.a2*b.y2
	b.x2, b.x1 = b.x1, x
	b.y2, b.y1 = b.y1, y
	return y
}

// Apply filters a whole slice with fresh state.
func (b *Biquad) Apply(x []float64) []float64 {
	b.x1, b.x2, b.y1, b.y2 = 0, 0, 0, 0
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = b.Step(v)
	}
	return out
}

// Convolve returns the full linear convolution of x and kernel
// (length len(x)+len(kernel)-1).
func Convolve(x, kernel []float64) []float64 {
	if len(x) == 0 || len(kernel) == 0 {
		return nil
	}
	out := make([]float64, len(x)+len(kernel)-1)
	for i, xv := range x {
		for j, kv := range kernel {
			out[i+j] += xv * kv
		}
	}
	return out
}

// ConvolveSame returns the "same"-size convolution: the central
// len(x) samples of the full convolution, aligned so that a symmetric
// kernel does not shift the signal.
func ConvolveSame(x, kernel []float64) []float64 {
	full := Convolve(x, kernel)
	if full == nil {
		return nil
	}
	start := (len(kernel) - 1) / 2
	out := make([]float64, len(x))
	copy(out, full[start:start+len(x)])
	return out
}

// SincLowpassKernel designs a windowed-sinc FIR low-pass kernel with
// the given normalized cutoff (cycles/sample, in (0, 0.5)) and odd
// length. The kernel is Hann-windowed and normalized to unit DC gain.
func SincLowpassKernel(cutoff float64, length int) ([]float64, error) {
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, errors.New("dsp: normalized cutoff must be in (0, 0.5)")
	}
	if length < 3 || length%2 == 0 {
		return nil, errors.New("dsp: kernel length must be odd and >= 3")
	}
	mid := length / 2
	k := make([]float64, length)
	var sum float64
	for i := range k {
		n := float64(i - mid)
		var s float64
		if n == 0 {
			s = 2 * cutoff
		} else {
			s = math.Sin(2*math.Pi*cutoff*n) / (math.Pi * n)
		}
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(length-1)))
		k[i] = s * w
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k, nil
}
