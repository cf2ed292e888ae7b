package compress

import (
	"fmt"
	"math"

	"lbchat/internal/simrand"
)

// Quantized is a uniformly quantized parameter vector: each value is encoded
// as a level index in [0, 2^Bits) over the vector's dynamic range, with
// stochastic rounding so the encoding is unbiased (QSGD-style). It is the
// "quantization" alternative the paper notes can replace top-k
// sparsification in LbChat's exchanges.
type Quantized struct {
	// Bits is the per-value code width (1..16).
	Bits int
	// Lo and Hi bound the represented range; levels are spread uniformly
	// across it.
	Lo, Hi float64
	// Codes holds one level index per parameter.
	Codes []uint16
}

// MaxQuantBits bounds the supported code width.
const MaxQuantBits = 16

// Quantize encodes flat at the given bit width with stochastic rounding.
// rng drives the rounding; pass a derived stream for reproducibility.
func Quantize(flat []float64, bits int, rng *simrand.Rand) (*Quantized, error) {
	if bits < 1 || bits > MaxQuantBits {
		return nil, fmt.Errorf("compress: bit width %d outside [1, %d]", bits, MaxQuantBits)
	}
	q := &Quantized{Bits: bits, Codes: make([]uint16, len(flat))}
	if len(flat) == 0 {
		return q, nil
	}
	lo, hi := flat[0], flat[0]
	for _, v := range flat {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	q.Lo, q.Hi = lo, hi
	levels := float64(uint32(1)<<bits - 1)
	if hi == lo {
		return q, nil // all-equal vector: all codes zero, Dense returns lo
	}
	scale := levels / (hi - lo)
	for i, v := range flat {
		exact := (v - lo) * scale
		base := math.Floor(exact)
		frac := exact - base
		code := base
		// Stochastic rounding: round up with probability frac, making the
		// quantizer unbiased in expectation.
		if rng.Float64() < frac {
			code++
		}
		if code > levels {
			code = levels
		}
		q.Codes[i] = uint16(code)
	}
	return q, nil
}

// Dense reconstructs the quantized vector.
func (q *Quantized) Dense() []float64 {
	out := make([]float64, len(q.Codes))
	if len(q.Codes) == 0 {
		return out
	}
	levels := float64(uint32(1)<<q.Bits - 1)
	if q.Hi == q.Lo || levels == 0 {
		for i := range out {
			out[i] = q.Lo
		}
		return out
	}
	step := (q.Hi - q.Lo) / levels
	for i, c := range q.Codes {
		out[i] = q.Lo + float64(c)*step
	}
	return out
}

// WireSize returns the transmission size in bytes: packed codes plus the
// range header.
func (q *Quantized) WireSize() int {
	const header = 12 + 16 // magic+count+bits, two float64 bounds
	return header + (len(q.Codes)*q.Bits+7)/8
}
