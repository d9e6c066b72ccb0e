package coding

import (
	"errors"
	"fmt"
)

// Codebook is a set of codewords with a guaranteed minimum pairwise
// Hamming distance. The paper (Sec. 4.2) notes that under channel
// distortion the system cannot use all 2^N codes; it must restrict
// itself to far fewer codes "making sure that their inter-Hamming
// distances are maximized". A Codebook provides exactly that restricted
// code set plus nearest-codeword decoding.
type Codebook struct {
	n       int // bits per codeword
	minDist int
	words   [][]Bit
}

// NewCodebook greedily selects codewords of length nBits whose pairwise
// Hamming distance is at least minDist, scanning the 2^n space in Gray
// order (adjacent candidates differ in one bit, which spreads selected
// words more evenly than natural order). maxWords <= 0 means no cap.
func NewCodebook(nBits, minDist, maxWords int) (*Codebook, error) {
	if nBits < 1 || nBits > 20 {
		return nil, errors.New("coding: codeword length must be in [1, 20]")
	}
	if minDist < 1 || minDist > nBits {
		return nil, fmt.Errorf("coding: min distance %d out of range [1, %d]", minDist, nBits)
	}
	cb := &Codebook{n: nBits, minDist: minDist}
	total := 1 << nBits
	for i := 0; i < total; i++ {
		g := i ^ (i >> 1) // Gray code
		w := wordFromUint(uint(g), nBits)
		ok := true
		for _, existing := range cb.words {
			if HammingDistance(w, existing) < minDist {
				ok = false
				break
			}
		}
		if ok {
			cb.words = append(cb.words, w)
			if maxWords > 0 && len(cb.words) == maxWords {
				break
			}
		}
	}
	if len(cb.words) == 0 {
		return nil, errors.New("coding: empty codebook")
	}
	return cb, nil
}

func wordFromUint(v uint, n int) []Bit {
	w := make([]Bit, n)
	for i := 0; i < n; i++ {
		if v&(1<<uint(n-1-i)) != 0 {
			w[i] = 1
		}
	}
	return w
}

// Len returns the number of codewords.
func (cb *Codebook) Len() int { return len(cb.words) }

// MinDistance returns the guaranteed minimum pairwise Hamming distance.
func (cb *Codebook) MinDistance() int { return cb.minDist }

// Word returns codeword i (a copy).
func (cb *Codebook) Word(i int) []Bit {
	w := make([]Bit, cb.n)
	copy(w, cb.words[i])
	return w
}

// Encode returns the codeword for message index idx.
func (cb *Codebook) Encode(idx int) ([]Bit, error) {
	if idx < 0 || idx >= len(cb.words) {
		return nil, fmt.Errorf("coding: message index %d out of range [0, %d)", idx, len(cb.words))
	}
	return cb.Word(idx), nil
}

// Decode maps received (possibly corrupted) bits to the nearest
// codeword index and its Hamming distance. With minimum distance d, up
// to floor((d-1)/2) bit errors are corrected unambiguously.
func (cb *Codebook) Decode(received []Bit) (idx, distance int) {
	best, bestDist := 0, HammingDistance(received, cb.words[0])
	for i := 1; i < len(cb.words); i++ {
		if d := HammingDistance(received, cb.words[i]); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// CorrectableErrors returns the number of bit errors the codebook can
// always correct: floor((minDist-1)/2).
func (cb *Codebook) CorrectableErrors() int { return (cb.minDist - 1) / 2 }

// VerifyDistances recomputes all pairwise distances and reports the
// true minimum; used by tests as an invariant check.
func (cb *Codebook) VerifyDistances() int {
	if len(cb.words) < 2 {
		return cb.n
	}
	min := cb.n + 1
	for i := 0; i < len(cb.words); i++ {
		for j := i + 1; j < len(cb.words); j++ {
			if d := HammingDistance(cb.words[i], cb.words[j]); d < min {
				min = d
			}
		}
	}
	return min
}
