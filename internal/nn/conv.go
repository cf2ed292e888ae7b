package nn

import (
	"math"

	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// Conv2D is a 2D convolution over CHW images flattened into rows of a
// (batch, C*H*W) activation tensor. Convolution is computed per sample via
// im2col + matmul.
type Conv2D struct {
	InC, InH, InW       int
	OutC                int
	Kernel, Stride, Pad int
	OutH, OutW          int

	W *Param // (OutC, InC*Kernel*Kernel)
	B *Param // (OutC)

	cols []*tensor.Dense // cached im2col matrices per sample (reused)
	// Scratch tensors reused across steps (fully overwritten or explicitly
	// zeroed per call).
	out, y, dx, g, dCols, dImg *tensor.Dense
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D creates a convolution layer with He-uniform initialization
// drawn from rng. A nil rng draws nothing and leaves every weight zero, as
// in NewDense.
func NewConv2D(name string, inC, inH, inW, outC, kernel, stride, pad int, rng *simrand.Rand) *Conv2D {
	c := &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC:   outC,
		Kernel: kernel, Stride: stride, Pad: pad,
		OutH: (inH+2*pad-kernel)/stride + 1,
		OutW: (inW+2*pad-kernel)/stride + 1,
		W:    NewParam(name+".W", outC, inC*kernel*kernel),
		B:    NewParam(name+".b", outC),
	}
	if rng != nil {
		fanIn := float64(inC * kernel * kernel)
		bound := math.Sqrt(6.0 / fanIn)
		wd := c.W.Value.Data()
		for i := range wd {
			wd[i] = rng.Uniform(-bound, bound)
		}
	}
	return c
}

// OutSize returns the flattened per-sample output size.
func (c *Conv2D) OutSize() int { return c.OutC * c.OutH * c.OutW }

// InSize returns the flattened per-sample input size.
func (c *Conv2D) InSize() int { return c.InC * c.InH * c.InW }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Dense) *tensor.Dense {
	batch := x.Shape()[0]
	c.out = tensor.Reuse2D(c.out, batch, c.OutSize())
	out := c.out
	for len(c.cols) < batch {
		c.cols = append(c.cols, nil)
	}
	spatial := c.OutH * c.OutW
	for s := 0; s < batch; s++ {
		img := tensor.FromSlice(x.Data()[s*c.InSize():(s+1)*c.InSize()], c.InC, c.InH, c.InW)
		c.cols[s] = tensor.Im2ColInto(c.cols[s], img, c.Kernel, c.Stride, c.Pad) // (spatial, inC*k*k)
		cols := c.cols[s]
		// y = cols · Wᵀ  → (spatial, outC), stored transposed as CHW.
		c.y = tensor.Reuse2D(c.y, spatial, c.OutC)
		y := c.y
		tensor.MatMulTransBInto(y, cols, c.W.Value)
		od := out.Data()[s*c.OutSize() : (s+1)*c.OutSize()]
		yd := y.Data()
		bd := c.B.Value.Data()
		for pos := 0; pos < spatial; pos++ {
			for ch := 0; ch < c.OutC; ch++ {
				od[ch*spatial+pos] = yd[pos*c.OutC+ch] + bd[ch]
			}
		}
	}
	return out
}

// gradMatrix reassembles sample s of the CHW-flattened grad as a
// (spatial, outC) matrix in scratch.
func (c *Conv2D) gradMatrix(grad *tensor.Dense, s int) *tensor.Dense {
	spatial := c.OutH * c.OutW
	gd := grad.Data()[s*c.OutSize() : (s+1)*c.OutSize()]
	c.g = tensor.Reuse2D(c.g, spatial, c.OutC)
	gdM := c.g.Data()
	for ch := 0; ch < c.OutC; ch++ {
		for pos := 0; pos < spatial; pos++ {
			gdM[pos*c.OutC+ch] = gd[ch*spatial+pos]
		}
	}
	return c.g
}

// BackwardParams implements Layer.
func (c *Conv2D) BackwardParams(grad *tensor.Dense) {
	batch := grad.Shape()[0]
	spatial := c.OutH * c.OutW
	bg := c.B.Grad.Data()
	for s := 0; s < batch; s++ {
		gd := grad.Data()[s*c.OutSize() : (s+1)*c.OutSize()]
		for ch := 0; ch < c.OutC; ch++ {
			for _, gv := range gd[ch*spatial : (ch+1)*spatial] {
				bg[ch] += gv
			}
		}
		// dW += gᵀ · cols → (outC, inC*k*k)
		tensor.AddMatMulTransA(c.W.Grad, c.gradMatrix(grad, s), c.cols[s])
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Dense) *tensor.Dense {
	c.BackwardParams(grad)
	batch := grad.Shape()[0]
	c.dx = tensor.Reuse2D(c.dx, batch, c.InSize())
	dx := c.dx
	spatial := c.OutH * c.OutW
	for s := 0; s < batch; s++ {
		// dCols = g · W → (spatial, inC*k*k), then scatter back to image.
		c.dCols = tensor.Reuse2D(c.dCols, spatial, c.InC*c.Kernel*c.Kernel)
		tensor.MatMulInto(c.dCols, c.gradMatrix(grad, s), c.W.Value)
		c.dImg = tensor.Col2ImInto(c.dImg, c.dCols, c.InC, c.InH, c.InW, c.Kernel, c.Stride, c.Pad)
		copy(dx.Data()[s*c.InSize():(s+1)*c.InSize()], c.dImg.Data())
	}
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() ParamSet { return ParamSet{c.W, c.B} }
