package compress

import "fmt"

// Bytes-per-entry constants for compressed payload sizing.
const (
	// valueBytes is the wire size of one parameter value (float32).
	valueBytes = 4
	// indexBytes is the wire size of one parameter index (uint32).
	indexBytes = 4
	// headerBytes covers magic + counts.
	headerBytes = 12
)

// Sparse is a top-k sparsified model: the k largest-magnitude parameters as
// index–value pairs, plus the dense length for reconstruction.
type Sparse struct {
	// Len is the dense parameter count.
	Len int
	// Indices are the kept parameter positions, strictly increasing.
	Indices []int
	// Values are the kept parameter values, parallel to Indices.
	Values []float64
}

// K returns the number of retained parameters.
func (s *Sparse) K() int { return len(s.Indices) }

// WireSize returns the transmission size in bytes. When more than half the
// parameters are kept, a dense encoding (bitmap-free, full vector) is
// cheaper and is what the size accounts for — so WireSize is monotone in K
// and never exceeds the uncompressed size plus header.
func (s *Sparse) WireSize() int {
	sparse := headerBytes + s.K()*(indexBytes+valueBytes)
	dense := headerBytes + s.Len*valueBytes
	if sparse < dense {
		return sparse
	}
	return dense
}

// KForPsi returns the number of parameters to keep so that the compressed
// size is approximately ψ × the uncompressed size. ψ is clamped to [0, 1].
func KForPsi(numParams int, psi float64) int {
	if psi <= 0 {
		return 0
	}
	if psi >= 1 {
		return numParams
	}
	// Budget in bytes relative to the dense payload.
	budget := psi * float64(numParams*valueBytes)
	k := int(budget / float64(indexBytes+valueBytes))
	if k > numParams {
		k = numParams
	}
	if k < 1 {
		k = 1
	}
	return k
}

// TopK sparsifies a dense parameter vector to its k largest-magnitude
// entries. k is clamped to [0, len(flat)]. The cut is the k-th largest
// magnitude, found by O(n) selection (select.go): entries strictly above it
// are kept, then ties at it in index order until k entries are taken. NaN
// ranks below every magnitude and is never kept unless k = len(flat).
func TopK(flat []float64, k int) *Sparse {
	var sel selection
	sel.load(flat)
	return sel.sparse(flat, k)
}

// Dense reconstructs the dense vector, zero-filling dropped parameters —
// the standard biased top-k decompression.
func (s *Sparse) Dense() []float64 {
	out := make([]float64, s.Len)
	for i, idx := range s.Indices {
		out[idx] = s.Values[i]
	}
	return out
}

// ApplyAsUpdate reconstructs a dense vector using base for the dropped
// coordinates: kept coordinates take the transmitted values, dropped ones
// keep the receiver's own parameters. This is how a receiver materializes a
// compressed peer model for evaluation and aggregation without zero-holes.
// A malformed s — Values not parallel to Indices, an index outside
// [0, Len), or indices not strictly increasing — is an error, not a panic
// or a silent overwrite.
func (s *Sparse) ApplyAsUpdate(base []float64) ([]float64, error) {
	if len(base) != s.Len {
		return nil, fmt.Errorf("compress: base length %d != sparse length %d", len(base), s.Len)
	}
	if len(s.Values) != len(s.Indices) {
		return nil, fmt.Errorf("compress: %d values for %d indices", len(s.Values), len(s.Indices))
	}
	prev := -1
	for i, idx := range s.Indices {
		if idx <= prev || idx >= s.Len {
			return nil, fmt.Errorf("compress: index %d at position %d is out of order or outside [0, %d)", idx, i, s.Len)
		}
		prev = idx
	}
	out := append([]float64(nil), base...)
	for i, idx := range s.Indices {
		out[idx] = s.Values[i]
	}
	return out, nil
}
