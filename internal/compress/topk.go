package compress

// Bytes-per-entry constants for compressed payload sizing.
const (
	// valueBytes is the wire size of one parameter value (float32).
	valueBytes = 4
	// indexBytes is the wire size of one parameter index (uint32).
	indexBytes = 4
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
