package nn

import (
	"math"

	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// Layer is a differentiable module operating on batched activations shaped
// (batch, features). Forward caches whatever Backward needs; a layer instance
// therefore serves one forward/backward pair at a time and is not safe for
// concurrent use. The fleet trains in parallel by giving every vehicle its
// own layer instances (one Policy each), never by sharing layers.
//
// Layers return SCRATCH tensors from Forward and Backward: the returned
// tensor is owned by the layer and overwritten on its next call. Callers
// that need the values past the next Forward/Backward must copy them (the
// model layer's loss/prediction paths already do).
type Layer interface {
	// Forward computes the layer output for a batch of inputs.
	Forward(x *tensor.Dense) *tensor.Dense
	// Backward receives dLoss/dOutput and returns dLoss/dInput, accumulating
	// (+=, never overwriting) parameter gradients into each Param.Grad along
	// the way.
	Backward(grad *tensor.Dense) *tensor.Dense
	// BackwardParams is Backward for the layer nothing feeds: it leaves
	// every Param.Grad holding exactly the bits Backward would, and neither
	// computes nor touches the input gradient. A network's first layer takes
	// this call — its input gradient is the widest product of the backward
	// pass and has no reader.
	BackwardParams(grad *tensor.Dense)
	// Params returns the layer's trainable parameters (possibly empty).
	Params() ParamSet
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	In, Out int
	W, B    *Param

	// in is the cached input as rows: xs, Forward's input screened, or the
	// rows ForwardRows was given. BackwardParams takes dW from it, so the
	// input is screened once per forward/backward pair.
	in *tensor.Rows
	xs tensor.Rows
	// Scratch tensors reused across steps to keep the training hot path
	// allocation-free: the forward output and the input gradient. Reuse is
	// safe because each is fully overwritten per call and consumed before
	// the next Forward/Backward on this layer.
	out, dx *tensor.Dense
}

var _ Layer = (*Dense)(nil)

// NewDense creates a fully connected layer with He-uniform initialization
// drawn from rng. A nil rng draws nothing and leaves every weight zero, for
// a caller about to load the values from elsewhere.
func NewDense(name string, in, out int, rng *simrand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam(name+".W", in, out),
		B:   NewParam(name+".b", out),
	}
	if rng != nil {
		bound := math.Sqrt(6.0 / float64(in))
		wd := d.W.Value.Data()
		for i := range wd {
			wd[i] = rng.Uniform(-bound, bound)
		}
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Dense) *tensor.Dense {
	d.xs.SetDense(x)
	return d.ForwardRows(&d.xs)
}

// ForwardRows is Forward for an input held as sparse rows of In columns —
// the output is Forward's on the rows' dense form, bit for bit — and
// BackwardParams then takes dW from the same rows. x must stay unchanged
// until then.
func (d *Dense) ForwardRows(x *tensor.Rows) *tensor.Dense {
	d.in = x
	d.out = tensor.Reuse2D(d.out, x.NumRows(), d.Out)
	tensor.MatMulRowsInto(d.out, x, d.W.Value)
	d.out.AddToRows(d.B.Value.Data())
	return d.out
}

// BackwardParams implements Layer.
func (d *Dense) BackwardParams(grad *tensor.Dense) {
	// dW += xᵀ·grad
	tensor.AddMatMulTransARows(d.W.Grad, d.in, grad)
	// db += column sums of grad
	grad.SumRowsInto(d.B.Grad.Data())
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Dense) *tensor.Dense {
	d.BackwardParams(grad)
	// dx = grad·Wᵀ
	d.dx = tensor.Reuse2D(d.dx, grad.Shape()[0], d.In)
	tensor.MatMulTransBInto(d.dx, grad, d.W.Value)
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() ParamSet { return ParamSet{d.W, d.B} }

// ReLU is the rectified-linear activation.
type ReLU struct {
	mask []bool
	// out and gout are scratch tensors reused across steps (fully
	// overwritten per call).
	out, gout *tensor.Dense
}

var _ Layer = (*ReLU)(nil)

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Dense) *tensor.Dense {
	r.out = tensor.ReuseLike(r.out, x)
	out := r.out
	od := out.Data()
	xd := x.Data()
	if cap(r.mask) < len(od) {
		r.mask = make([]bool, len(od))
	}
	r.mask = r.mask[:len(od)]
	for i, v := range xd {
		if v > 0 {
			r.mask[i] = true
			od[i] = v
		} else {
			r.mask[i] = false
			od[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Dense) *tensor.Dense {
	r.gout = tensor.ReuseLike(r.gout, grad)
	out := r.gout
	od := out.Data()
	gd := grad.Data()
	for i, g := range gd {
		if r.mask[i] {
			od[i] = g
		} else {
			od[i] = 0
		}
	}
	return out
}

// BackwardParams implements Layer: a ReLU has no parameters.
func (r *ReLU) BackwardParams(*tensor.Dense) {}

// Params implements Layer.
func (r *ReLU) Params() ParamSet { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	// y is the cached forward output (doubles as the reused output
	// scratch); gout is the reused backward scratch.
	y, gout *tensor.Dense
}

var _ Layer = (*Tanh)(nil)

// NewTanh creates a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Dense) *tensor.Dense {
	t.y = tensor.ReuseLike(t.y, x)
	out := t.y
	od := out.Data()
	for i, v := range x.Data() {
		od[i] = math.Tanh(v)
	}
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *tensor.Dense) *tensor.Dense {
	t.gout = tensor.ReuseLike(t.gout, grad)
	out := t.gout
	od := out.Data()
	yd := t.y.Data()
	for i, g := range grad.Data() {
		od[i] = g * (1 - yd[i]*yd[i])
	}
	return out
}

// BackwardParams implements Layer: a Tanh has no parameters.
func (t *Tanh) BackwardParams(*tensor.Dense) {}

// Params implements Layer.
func (t *Tanh) Params() ParamSet { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential builds a sequential container from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Dense) *tensor.Dense {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Dense) *tensor.Dense {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// BackwardParams implements Layer: the gradient flows back through every
// layer but the first as in Backward, and the first — whose input is the
// network's input — accumulates its parameter gradients only.
func (s *Sequential) BackwardParams(grad *tensor.Dense) {
	if len(s.Layers) == 0 {
		return
	}
	for i := len(s.Layers) - 1; i >= 1; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	s.Layers[0].BackwardParams(grad)
}

// Params implements Layer.
func (s *Sequential) Params() ParamSet {
	var ps ParamSet
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
