package nn

import "lbchat/internal/tensor"

// SplitTail wraps an inner layer so that the last Tail input columns bypass
// it: the inner layer processes columns [0, in−Tail) and the bypassed
// columns are concatenated after its output. Used to route the BEV through
// a convolutional front-end while the ego-speed scalar joins the dense
// trunk directly.
type SplitTail struct {
	Inner Layer
	Tail  int

	tailCache *tensor.Dense
	// Scratch tensors reused across steps (fully overwritten per call).
	head, out, innerGrad, dx *tensor.Dense
}

var _ Layer = (*SplitTail)(nil)

// NewSplitTail wraps inner with a tail bypass of the given width.
func NewSplitTail(inner Layer, tail int) *SplitTail {
	return &SplitTail{Inner: inner, Tail: tail}
}

// Forward implements Layer.
func (s *SplitTail) Forward(x *tensor.Dense) *tensor.Dense {
	batch, cols := x.Shape()[0], x.Shape()[1]
	headCols := cols - s.Tail
	s.head = tensor.Reuse2D(s.head, batch, headCols)
	head := s.head
	s.tailCache = tensor.Reuse2D(s.tailCache, batch, s.Tail)
	tail := s.tailCache
	for b := 0; b < batch; b++ {
		row := x.Data()[b*cols : (b+1)*cols]
		copy(head.Data()[b*headCols:(b+1)*headCols], row[:headCols])
		copy(tail.Data()[b*s.Tail:(b+1)*s.Tail], row[headCols:])
	}
	innerOut := s.Inner.Forward(head)
	outCols := innerOut.Shape()[1] + s.Tail
	s.out = tensor.Reuse2D(s.out, batch, outCols)
	out := s.out
	for b := 0; b < batch; b++ {
		copy(out.Data()[b*outCols:], innerOut.Data()[b*innerOut.Shape()[1]:(b+1)*innerOut.Shape()[1]])
		copy(out.Data()[b*outCols+innerOut.Shape()[1]:], tail.Data()[b*s.Tail:(b+1)*s.Tail])
	}
	return out
}

// innerGradOf copies the columns of grad that belong to the inner layer's
// output into scratch.
func (s *SplitTail) innerGradOf(grad *tensor.Dense) *tensor.Dense {
	batch, outCols := grad.Shape()[0], grad.Shape()[1]
	innerCols := outCols - s.Tail
	s.innerGrad = tensor.Reuse2D(s.innerGrad, batch, innerCols)
	for b := 0; b < batch; b++ {
		copy(s.innerGrad.Data()[b*innerCols:(b+1)*innerCols], grad.Data()[b*outCols:b*outCols+innerCols])
	}
	return s.innerGrad
}

// BackwardParams implements Layer.
func (s *SplitTail) BackwardParams(grad *tensor.Dense) {
	s.Inner.BackwardParams(s.innerGradOf(grad))
}

// Backward implements Layer.
func (s *SplitTail) Backward(grad *tensor.Dense) *tensor.Dense {
	batch, outCols := grad.Shape()[0], grad.Shape()[1]
	innerCols := outCols - s.Tail
	dHead := s.Inner.Backward(s.innerGradOf(grad))
	headCols := dHead.Shape()[1]
	inCols := headCols + s.Tail
	s.dx = tensor.Reuse2D(s.dx, batch, inCols)
	dx := s.dx
	for b := 0; b < batch; b++ {
		copy(dx.Data()[b*inCols:b*inCols+headCols], dHead.Data()[b*headCols:(b+1)*headCols])
		copy(dx.Data()[b*inCols+headCols:(b+1)*inCols], grad.Data()[b*outCols+innerCols:(b+1)*outCols])
	}
	return dx
}

// Params implements Layer.
func (s *SplitTail) Params() ParamSet { return s.Inner.Params() }
