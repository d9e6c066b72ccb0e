package dsp

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// FFTPlan holds everything a radix-2 transform of one size needs but
// does not want to recompute per call: the twiddle-factor table and the
// bit-reversal permutation. Plans are immutable after construction and
// safe for concurrent use; per-call packing scratch comes from an
// internal pool.
//
// Plans are cached: PlanFFT returns the shared plan for a size, so
// PowerSpectrum on every collision segment pays the trigonometry once
// per size per process.
type FFTPlan struct {
	n       int
	twiddle []complex128 // exp(-2πik/n), k < n/2
	bitrev  []uint32
	buf     sync.Pool // *[]complex128 per-call scratch (real packing)
}

var fftPlans sync.Map // int -> *FFTPlan

// PlanFFT returns the cached plan for transforms of size n, which must
// be a power of two. Plans are immutable and safe for concurrent use.
func PlanFFT(n int) (*FFTPlan, error) {
	if n <= 0 {
		return nil, ErrEmptyInput
	}
	if !IsPowerOfTwo(n) {
		return nil, errors.New("dsp: FFT size must be a power of two")
	}
	if p, ok := fftPlans.Load(n); ok {
		return p.(*FFTPlan), nil
	}
	p := &FFTPlan{n: n, twiddle: twiddleTable(n), bitrev: bitrevTable(n)}
	actual, _ := fftPlans.LoadOrStore(n, p)
	return actual.(*FFTPlan), nil
}

// twiddleTable precomputes w[k] = exp(-2πik/n) for k < n/2.
func twiddleTable(n int) []complex128 {
	tw := make([]complex128, n/2)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	return tw
}

func bitrevTable(n int) []uint32 {
	rev := make([]uint32, n)
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := range rev {
		rev[i] = uint32(bits.Reverse64(uint64(i)) >> shift)
	}
	return rev
}

// transform is the radix-2 kernel: iterative Cooley-Tukey over the
// precomputed twiddle table. The first stage is peeled into a pure
// add/sub sweep (its only twiddle is 1+0i, and multiplying by exactly
// one is the identity), and the remaining stages run over per-block
// subslices with a 4-wide manual unroll — each butterfly touches a
// disjoint element pair and keeps its own operation order, so the
// output matches the plain triple loop.
func (p *FFTPlan) transform(x []complex128) {
	n := p.n
	for i, r := range p.bitrev {
		if j := int(r); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	if n < 2 {
		return
	}
	for start := 0; start+2 <= n; start += 2 {
		a, b := x[start], x[start+1]
		x[start], x[start+1] = a+b, a-b
	}
	tw := p.twiddle
	for size := 4; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			// Equal-length subslices of the block's two halves let the
			// compiler drop the bounds checks inside the butterfly.
			xa := x[start : start+half]
			xb := x[start+half : start+size]
			xa = xa[:len(xb)]
			ti := 0
			k := 0
			for ; k+4 <= len(xb); k += 4 {
				a0 := xa[k]
				b0 := xb[k] * tw[ti]
				xa[k], xb[k] = a0+b0, a0-b0
				a1 := xa[k+1]
				b1 := xb[k+1] * tw[ti+stride]
				xa[k+1], xb[k+1] = a1+b1, a1-b1
				a2 := xa[k+2]
				b2 := xb[k+2] * tw[ti+2*stride]
				xa[k+2], xb[k+2] = a2+b2, a2-b2
				a3 := xa[k+3]
				b3 := xb[k+3] * tw[ti+3*stride]
				xa[k+3], xb[k+3] = a3+b3, a3-b3
				ti += 4 * stride
			}
			for ; k < len(xb); k++ {
				a := xa[k]
				b := xb[k] * tw[ti]
				xa[k], xb[k] = a+b, a-b
				ti += stride
			}
		}
	}
}

func (p *FFTPlan) scratch(size int) []complex128 {
	if v := p.buf.Get(); v != nil {
		s := *(v.(*[]complex128))
		if cap(s) >= size {
			return s[:size]
		}
	}
	return make([]complex128, size)
}

func (p *FFTPlan) release(s []complex128) {
	p.buf.Put(&s)
}

// RealHalfSpectrum computes the first half+1 bins (k = 0..n/2) of the
// DFT of a real signal using one complex transform of half the plan
// size: the even/odd samples are packed into complex pairs,
// transformed with the n/2 sub-plan, and unpacked with the standard
// split. out must have room for n/2+1 bins; samples beyond len(re)
// are treated as zero (zero padding up to Size). This is what halves
// PowerSpectrum's work relative to a full complex FFT.
func (p *FFTPlan) RealHalfSpectrum(re []float64, out []complex128) error {
	n := p.n
	if n < 2 {
		return errors.New("dsp: real transform needs a plan size >= 2")
	}
	if len(re) > n {
		return errors.New("dsp: input longer than plan size")
	}
	if len(out) < n/2+1 {
		return errors.New("dsp: output needs n/2+1 bins")
	}
	h := n / 2
	half, err := PlanFFT(h)
	if err != nil {
		return err
	}
	z := p.scratch(h)
	defer p.release(z)
	for j := 0; 2*j < len(re); j++ {
		even := re[2*j]
		odd := 0.0
		if 2*j+1 < len(re) {
			odd = re[2*j+1]
		}
		z[j] = complex(even, odd)
	}
	// Zero padding beyond the input (the scratch is pooled, not fresh).
	for j := (len(re) + 1) / 2; j < h; j++ {
		z[j] = 0
	}
	if h == 1 {
		// Size-1 transform is the identity.
	} else {
		half.transform(z)
	}
	// Unpack: X[k] = Ze[k] + W^k * Zo[k] with
	// Ze[k] = (Z[k] + conj(Z[h-k]))/2, Zo[k] = -i*(Z[k] - conj(Z[h-k]))/2.
	out[0] = complex(real(z[0])+imag(z[0]), 0)
	out[h] = complex(real(z[0])-imag(z[0]), 0)
	for k := 1; k < h; k++ {
		zk := z[k]
		zc := cmplx.Conj(z[h-k])
		ze := (zk + zc) * 0.5
		zo := (zk - zc) * complex(0, -0.5)
		out[k] = ze + p.twiddle[k]*zo
	}
	return nil
}
