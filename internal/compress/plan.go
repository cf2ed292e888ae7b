package compress

import "math"

// DeltaPlan holds one model's delta from a base vector, with the selection
// scratch and a reconstruction buffer, so the delta is computed once and
// then cut at any number of levels k without allocating. The zero value is
// ready to use; Fill reuses the plan's storage, so a long-lived plan costs
// nothing per model. A plan is not safe for concurrent use.
type DeltaPlan struct {
	base  []float64 // the caller's, not copied: must not change while the plan is in use
	delta []float64
	sel   selection
	out   []float64
}

// Fill loads the plan with delta = flat − base, replacing whatever model it
// held. flat and base must have equal length.
func (p *DeltaPlan) Fill(flat, base []float64) {
	n := len(flat)
	if cap(p.delta) < n {
		p.delta = make([]float64, n)
		p.out = make([]float64, n)
	}
	p.base, p.delta, p.out = base[:n], p.delta[:n], p.out[:n]
	for i, v := range flat {
		p.delta[i] = v - base[i]
	}
	p.sel.load(p.delta)
}

// Delta returns the filled delta. It aliases the plan's storage.
func (p *DeltaPlan) Delta() []float64 { return p.delta }

// TopK returns the delta's k largest-magnitude entries, as TopK(Delta(), k)
// would.
func (p *DeltaPlan) TopK(k int) *Sparse { return p.sel.sparse(p.delta, k) }

// Reconstruct materializes base + topk(delta) — what a receiver holding base
// rebuilds from TopK(k) — into the plan's own buffer. The result is valid
// until the next Reconstruct or Fill.
func (p *DeltaPlan) Reconstruct(k int) []float64 { return p.ReconstructInto(p.out, k) }

// ReconstructInto is Reconstruct into dst, whose length must be the model's.
func (p *DeltaPlan) ReconstructInto(dst []float64, k int) []float64 {
	n := len(p.delta)
	dst = dst[:n]
	switch {
	case k <= 0:
		copy(dst, p.base)
	case k >= n:
		for i, d := range p.delta {
			dst[i] = p.base[i] + d
		}
	default:
		c := p.sel.cut(k)
		for i, d := range p.delta {
			b := p.base[i]
			if c.keeps(math.Abs(d)) {
				b += d
			}
			dst[i] = b
		}
	}
	return dst
}
