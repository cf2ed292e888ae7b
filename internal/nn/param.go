package nn

import (
	"fmt"
	"math"

	"lbchat/internal/tensor"
)

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Dense
	Grad  *tensor.Dense
}

// NewParam allocates a parameter and its gradient with the given shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// ParamSet is an ordered collection of parameters, typically all parameters
// of a network. The order is stable and defines the layout of the flat
// parameter vector.
type ParamSet []*Param

// NumElements returns the total number of scalar parameters.
func (ps ParamSet) NumElements() int {
	n := 0
	for _, p := range ps {
		n += p.Value.Size()
	}
	return n
}

// Flatten copies all parameter values into a single flat vector.
func (ps ParamSet) Flatten() []float64 {
	out := make([]float64, 0, ps.NumElements())
	for _, p := range ps {
		out = append(out, p.Value.Data()...)
	}
	return out
}

// LoadFlat copies a flat vector back into the parameter values. The vector
// length must equal NumElements.
func (ps ParamSet) LoadFlat(flat []float64) error {
	if len(flat) != ps.NumElements() {
		return fmt.Errorf("nn: flat vector length %d does not match parameter count %d", len(flat), ps.NumElements())
	}
	off := 0
	for _, p := range ps {
		n := p.Value.Size()
		copy(p.Value.Data(), flat[off:off+n])
		off += n
	}
	return nil
}

// ZeroGrad clears every gradient in the set.
func (ps ParamSet) ZeroGrad() {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// L2Norm returns the Euclidean norm of the whole parameter vector.
func (ps ParamSet) L2Norm() float64 {
	var acc float64
	for _, p := range ps {
		for _, v := range p.Value.Data() {
			acc += v * v
		}
	}
	return math.Sqrt(acc)
}
