package nn

import (
	"fmt"
	"math"

	"lbchat/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	t int
	// m and v hold the first and second moments of parameter i of the
	// ParamSet the first Step was given, at index i.
	m, v [][]float64
}

// NewAdam creates an Adam optimizer with the standard default moments
// (β1 = 0.9, β2 = 0.999, ε = 1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update using the parameters' current gradients. The
// first call binds the optimizer to params: its moments are kept by
// position, so every later call must pass a set of the same shape in the
// same order (the same set, in practice) and panics otherwise.
func (o *Adam) Step(params ParamSet) {
	if o.m == nil {
		o.m = make([][]float64, len(params))
		o.v = make([][]float64, len(params))
		for i, p := range params {
			o.m[i] = make([]float64, p.Value.Size())
			o.v[i] = make([]float64, p.Value.Size())
		}
	}
	if len(params) != len(o.m) {
		panic(fmt.Sprintf("nn: Adam is bound to a set of %d parameters, Step got %d", len(o.m), len(params)))
	}
	o.t++
	coef := tensor.AdamCoef{
		Decay: o.WeightDecay,
		Beta1: o.Beta1, OneMinusBeta1: 1 - o.Beta1,
		Beta2: o.Beta2, OneMinusBeta2: 1 - o.Beta2,
		BiasCorr1: 1 - math.Pow(o.Beta1, float64(o.t)),
		BiasCorr2: 1 - math.Pow(o.Beta2, float64(o.t)),
		LR:        o.LR, Eps: o.Eps,
	}
	for pi, p := range params {
		vd := p.Value.Data()
		if len(vd) != len(o.m[pi]) {
			panic(fmt.Sprintf("nn: Adam is bound to %d elements at parameter %d (%s), Step got %d",
				len(o.m[pi]), pi, p.Name, len(vd)))
		}
		tensor.AdamUpdate(vd, p.Grad.Data(), o.m[pi], o.v[pi], &coef)
	}
}

// DecayClipGradNorm adds decay·value to every gradient (decay == 0 adds
// nothing, not even a signed zero) and then rescales all gradients so their
// joint L2 norm is at most maxNorm (maxNorm <= 0 never rescales), returning
// the norm before rescaling. The decay and the norm share one pass, in the
// parameter and index order of a separate axpy followed by a separate sum of
// squares, so the bits are theirs.
func DecayClipGradNorm(params ParamSet, decay, maxNorm float64) float64 {
	var acc float64
	for _, p := range params {
		gd := p.Grad.Data()
		if decay == 0 {
			for _, g := range gd {
				acc += g * g
			}
			continue
		}
		vd := p.Value.Data()[:len(gd)]
		for i, v := range vd {
			g := gd[i] + decay*v
			gd[i] = g
			acc += g * g
		}
	}
	norm := math.Sqrt(acc)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.ScaleInPlace(scale)
		}
	}
	return norm
}
