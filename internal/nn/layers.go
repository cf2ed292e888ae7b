package nn

import (
	"math"

	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b, on batched activations
// shaped (batch, features).
//
// Forward caches what the backward pass needs, so a Dense (and a ReLU)
// serves one forward/backward pair at a time and is not safe for concurrent
// use: the fleet trains in parallel by giving every vehicle its own layers
// (one model.Policy each). Forward and Backward return scratch the layer
// owns and overwrites on its next call; a caller that needs the values
// longer copies them.
type Dense struct {
	In, Out int
	W, B    *Param

	// in is the cached input as rows: xs, Forward's input screened, or the
	// rows ForwardRows was given. BackwardParams takes dW from it, so the
	// input is screened once per forward/backward pair.
	in *tensor.Rows
	xs tensor.Rows
	// tb is Backward's scratch for the input gradient, allocated on the
	// first Backward: a layer that never trains, or is the first of its
	// network, holds none.
	tb *transBScratch
	// Scratch tensors reused across steps to keep the training hot path
	// allocation-free: the forward output and the input gradient. Reuse is
	// safe because each is fully overwritten per call and consumed before
	// the next Forward/Backward on this layer.
	out, dx *tensor.Dense
}

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

// Forward computes the layer output for a batch of inputs.
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

// BackwardParams receives dLoss/dOutput and writes dW and db into the
// parameters' Grad, all of both (a column of the input that no row lists
// writes a row of zeros). It is Backward for the layer nothing feeds: the
// input gradient — for a network's first layer the widest product of the
// backward pass — is neither computed nor touched.
func (d *Dense) BackwardParams(grad *tensor.Dense) {
	// dW = xᵀ·grad
	tensor.MatMulTransARowsInto(d.W.Grad, d.in, grad)
	// db = column sums of grad
	d.B.ZeroGrad()
	grad.SumRowsInto(d.B.Grad.Data())
}

// Backward is BackwardParams that also returns dLoss/dInput.
func (d *Dense) Backward(grad *tensor.Dense) *tensor.Dense {
	d.BackwardParams(grad)
	// dx = grad·Wᵀ, with MatMulTransBInto's bits: grad's survivors (the
	// ReLU-masked zeros skipped) gathered from the rows of Wᵀ, in scratch
	// the layer holds rather than the kernel's pool.
	if d.tb == nil {
		d.tb = new(transBScratch)
	}
	tb := d.tb
	tb.wt = tensor.Reuse2D(tb.wt, d.Out, d.In)
	wd, td := d.W.Value.Data(), tb.wt.Data()
	for c := 0; c < d.In; c++ {
		for o, v := range wd[c*d.Out : (c+1)*d.Out] {
			td[o*d.In+c] = v
		}
	}
	tb.gs.SetDense(grad)
	d.dx = tensor.Reuse2D(d.dx, tb.gs.NumRows(), d.In)
	tensor.MatMulRowsInto(d.dx, &tb.gs, tb.wt)
	return d.dx
}

// transBScratch holds what grad·Wᵀ is gathered from: grad screened, and W
// transposed this step.
type transBScratch struct {
	gs tensor.Rows
	wt *tensor.Dense
}

// Params returns the layer's weights and bias.
func (d *Dense) Params() ParamSet { return ParamSet{d.W, d.B} }

// ReLU is the rectified-linear activation.
type ReLU struct {
	// out and gout are scratch tensors reused across steps (fully
	// overwritten per call); out, the forward output, is also what Backward
	// reads which entries passed from (out > 0 exactly where the input was).
	out, gout *tensor.Dense
}

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(x, 0) elementwise: x where it is positive, +0
// elsewhere (NaN included).
func (r *ReLU) Forward(x *tensor.Dense) *tensor.Dense {
	r.out = tensor.ReuseLike(r.out, x)
	tensor.KeepPositive(r.out.Data(), x.Data(), x.Data())
	return r.out
}

// Backward receives dLoss/dOutput and returns dLoss/dInput: the gradient
// where Forward's input was positive, +0 elsewhere. Forward's output must be
// unchanged since.
func (r *ReLU) Backward(grad *tensor.Dense) *tensor.Dense {
	r.gout = tensor.ReuseLike(r.gout, grad)
	tensor.KeepPositive(r.gout.Data(), grad.Data(), r.out.Data())
	return r.gout
}
