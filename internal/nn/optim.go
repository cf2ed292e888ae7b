package nn

import (
	"fmt"
	"math"

	"lbchat/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// WeightDecay is added to each gradient times its value (L2 decay
	// through the gradient) as the step reads it.
	WeightDecay float64

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
		StepSize:     o.LR / (1 - math.Pow(o.Beta1, float64(o.t))),
		InvBiasCorr2: 1 / (1 - math.Pow(o.Beta2, float64(o.t))),
		Eps:          o.Eps,
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

// DecayClipGradNorm readies the gradients for an optimizer step under L2
// decay: each gradient as the step must read it is grad + decay·value
// (decay == 0 adds nothing, not even a signed zero), rescaled so that their
// joint L2 norm is at most maxNorm (maxNorm <= 0 never rescales). The norm
// that decides is the square root of one ordered sum of squares — parameter
// then index order, one accumulator, over the decayed gradients — but one
// read-only pass over every gradient and value first takes a packed sum of
// the same squares, and the ordered sum is taken only when that screen does
// not rule a clip out.
//
// It returns the parameters' L2 norm, read in the same pass (L2Norm, bit
// for bit), and the decay the step still has to add (Adam.WeightDecay):
// decay when no clip was needed, which leaves every gradient as it was, and
// 0 when the clip wrote (grad + decay·value)·maxNorm/norm into them.
func DecayClipGradNorm(params ParamSet, decay, maxNorm float64) (norm, pending float64) {
	var screen, sq float64
	for _, p := range params {
		d, v := tensor.DecaySumSquares(p.Grad.Data(), p.Value.Data(), decay)
		screen += d
		sq += v
	}
	norm, pending = math.Sqrt(sq), decay
	if maxNorm > 0 && !(screen < clipScreenLimit(maxNorm, params.NumElements())) && clipOrdered(params, decay, maxNorm) {
		pending = 0
	}
	return norm, pending
}

// clipOrdered rescales the decayed gradients when the square root of their
// ordered sum of squares — parameter then index order, one accumulator —
// exceeds maxNorm, writing (grad + decay·value)·maxNorm/norm into every
// gradient, and reports whether it did. Otherwise it writes nothing.
func clipOrdered(params ParamSet, decay, maxNorm float64) bool {
	var acc float64
	for _, p := range params {
		vd := p.Value.Data()
		for i, g := range p.Grad.Data() {
			if decay != 0 {
				g += decay * vd[i]
			}
			acc += g * g
		}
	}
	norm := math.Sqrt(acc)
	if !(norm > maxNorm) {
		return false
	}
	scale := maxNorm / norm
	for _, p := range params {
		gd, vd := p.Grad.Data(), p.Value.Data()
		for i, g := range gd {
			if decay != 0 {
				g += decay * vd[i]
			}
			gd[i] = g * scale
		}
	}
	return true
}

// clipScreenLimit is the screen sum below which n squares cannot clip at
// maxNorm. Any two sums of the same n non-negative terms lie within
// (n−1)·2⁻⁵³ of their exact sum, relative, so below maxNorm²·(1 − band),
// with band 4(n+1)·2⁻⁵³ covering both sums and the rounding of the limit
// itself, the ordered sum is below maxNorm² and its square root at most
// maxNorm. A maxNorm² that is not a normal float has no relative rounding
// bound and screens nothing.
func clipScreenLimit(maxNorm float64, n int) float64 {
	sq := maxNorm * maxNorm
	if sq < 0x1p-1022 || sq > math.MaxFloat64 {
		return 0
	}
	return sq * (1 - 4*float64(n+1)*0x1p-53)
}
