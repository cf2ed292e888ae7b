package nn

import (
	"math"
	"testing"

	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// numericalGradCheck verifies analytic parameter gradients of a layer against
// central finite differences on a scalar loss L = 0.5·‖y‖².
func numericalGradCheck(t *testing.T, layer Layer, batch, in int, seed uint64) {
	t.Helper()
	rng := simrand.New(seed)
	x := tensor.New(batch, in)
	for i := range x.Data() {
		x.Data()[i] = rng.Normal(0, 1)
	}
	loss := func() float64 {
		y := layer.Forward(x)
		var acc float64
		for _, v := range y.Data() {
			acc += 0.5 * v * v
		}
		return acc
	}
	// Analytic gradients.
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	y := layer.Forward(x)
	layer.Backward(y.Clone()) // dL/dy = y
	const eps = 1e-6
	for _, p := range layer.Params() {
		data := p.Value.Data()
		grad := p.Grad.Data()
		// Check a subset of coordinates for speed.
		step := len(data)/7 + 1
		for i := 0; i < len(data); i += step {
			orig := data[i]
			data[i] = orig + eps
			up := loss()
			data[i] = orig - eps
			down := loss()
			data[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-grad[i]) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, grad[i], numeric)
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := simrand.New(1)
	numericalGradCheck(t, NewDense("d", 5, 3, rng), 4, 5, 2)
}

func TestConvGradients(t *testing.T) {
	rng := simrand.New(1)
	conv := NewConv2D("c", 2, 4, 4, 3, 3, 2, 1, rng)
	numericalGradCheck(t, conv, 2, conv.InSize(), 3)
}

func TestSequentialGradients(t *testing.T) {
	rng := simrand.New(5)
	seq := NewSequential(
		NewDense("a", 6, 5, rng.Derive("a")),
		NewReLU(),
		NewDense("b", 5, 2, rng.Derive("b")),
	)
	numericalGradCheck(t, seq, 3, 6, 7)
}

func TestSplitTailGradients(t *testing.T) {
	rng := simrand.New(9)
	inner := NewDense("i", 4, 3, rng)
	numericalGradCheck(t, NewSplitTail(inner, 2), 3, 6, 11)
}

func TestDenseInputGradient(t *testing.T) {
	// dL/dx from Backward must match finite differences on the input.
	rng := simrand.New(2)
	d := NewDense("d", 4, 3, rng)
	x := tensor.New(2, 4)
	for i := range x.Data() {
		x.Data()[i] = rng.Normal(0, 1)
	}
	loss := func() float64 {
		y := d.Forward(x)
		var acc float64
		for _, v := range y.Data() {
			acc += 0.5 * v * v
		}
		return acc
	}
	y := d.Forward(x)
	dx := d.Backward(y.Clone())
	const eps = 1e-6
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		up := loss()
		x.Data()[i] = orig - eps
		down := loss()
		x.Data()[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-dx.Data()[i]) > 1e-5*(1+math.Abs(numeric)) {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, dx.Data()[i], numeric)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2}, 1, 3)
	y := r.Forward(x)
	want := []float64{0, 0, 2}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Errorf("forward[%d] = %v", i, v)
		}
	}
	g := r.Backward(tensor.FromSlice([]float64{5, 5, 5}, 1, 3))
	wantG := []float64{0, 0, 5}
	for i, v := range g.Data() {
		if v != wantG[i] {
			t.Errorf("backward[%d] = %v", i, v)
		}
	}
}

func TestTanhRange(t *testing.T) {
	th := NewTanh()
	x := tensor.FromSlice([]float64{-10, 0, 10}, 1, 3)
	y := th.Forward(x)
	if y.Data()[0] > -0.99 || math.Abs(y.Data()[1]) > 1e-12 || y.Data()[2] < 0.99 {
		t.Errorf("tanh outputs: %v", y.Data())
	}
}

func TestParamSetFlattenRoundTrip(t *testing.T) {
	rng := simrand.New(3)
	d := NewDense("d", 3, 2, rng)
	ps := d.Params()
	flat := ps.Flatten()
	if len(flat) != ps.NumElements() {
		t.Fatalf("flat length %d != %d", len(flat), ps.NumElements())
	}
	for i := range flat {
		flat[i] += 0.5
	}
	if err := ps.LoadFlat(flat); err != nil {
		t.Fatal(err)
	}
	round := ps.Flatten()
	for i := range flat {
		if round[i] != flat[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
	if err := ps.LoadFlat(flat[:1]); err == nil {
		t.Error("LoadFlat accepted short vector")
	}
}

func TestAdamDescends(t *testing.T) {
	p := NewParam("w", 2)
	p.Value.Data()[0] = 3
	p.Value.Data()[1] = -7
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		p.Grad.Data()[0] = 2 * p.Value.Data()[0]
		p.Grad.Data()[1] = 20 * p.Value.Data()[1] // ill-conditioned
		opt.Step(ParamSet{p})
	}
	if math.Abs(p.Value.Data()[0]) > 1e-3 || math.Abs(p.Value.Data()[1]) > 1e-3 {
		t.Errorf("Adam did not converge: %v", p.Value.Data())
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 2)
	p.Grad.Data()[0] = 3
	p.Grad.Data()[1] = 4
	norm := DecayClipGradNorm(ParamSet{p}, 0, 1)
	if norm != 5 {
		t.Errorf("pre-clip norm = %v", norm)
	}
	var acc float64
	for _, g := range p.Grad.Data() {
		acc += g * g
	}
	if math.Abs(math.Sqrt(acc)-1) > 1e-9 {
		t.Errorf("post-clip norm = %v", math.Sqrt(acc))
	}
	// Below the bound: untouched.
	DecayClipGradNorm(ParamSet{p}, 0, 10)
	if math.Abs(math.Sqrt(acc)-1) > 1e-9 {
		t.Error("clip modified in-bound gradient")
	}
}

// TestDecayClipGradNormMatchesSeparatePasses: the fused pass leaves the bits
// of a separate axpy, then a sum of squares, then ScaleInPlace; decay 0 leaves a
// −0 gradient alone and maxNorm 0 never rescales.
func TestDecayClipGradNormMatchesSeparatePasses(t *testing.T) {
	build := func() ParamSet {
		rng := simrand.New(12)
		ps := ParamSet{NewParam("w", 4, 3), NewParam("b", 3)}
		for _, p := range ps {
			for i := range p.Value.Data() {
				p.Value.Data()[i] = rng.Normal(0, 1)
				p.Grad.Data()[i] = rng.Normal(0, 2)
			}
		}
		ps[1].Grad.Data()[0] = math.Copysign(0, -1)
		return ps
	}
	for _, c := range []struct{ decay, maxNorm float64 }{{2e-4, 5}, {2e-4, 0.5}, {2e-4, 0}, {0, 0.5}, {0, 0}} {
		got, want := build(), build()
		norm := DecayClipGradNorm(got, c.decay, c.maxNorm)
		var acc float64
		for _, p := range want {
			if c.decay != 0 {
				for i, v := range p.Value.Data() {
					p.Grad.Data()[i] += c.decay * v
				}
			}
			for _, g := range p.Grad.Data() {
				acc += g * g
			}
		}
		if wantNorm := math.Sqrt(acc); norm != wantNorm {
			t.Errorf("%+v: norm %v, separate passes %v", c, norm, wantNorm)
		}
		if c.maxNorm > 0 && norm > c.maxNorm {
			for _, p := range want {
				p.Grad.ScaleInPlace(c.maxNorm / norm)
			}
		}
		for pi := range want {
			for i, w := range want[pi].Grad.Data() {
				if g := got[pi].Grad.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%+v: %s.Grad[%d] = %v, separate passes %v", c, want[pi].Name, i, g, w)
				}
			}
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	flat := []float64{0, 1.5, -2.25, 1e-3}
	buf := Serialize(flat)
	if len(buf) != WireSize(len(flat)) {
		t.Fatalf("wire size %d != %d", len(buf), WireSize(len(flat)))
	}
	got, err := Deserialize(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if math.Abs(got[i]-flat[i]) > 1e-6 {
			t.Errorf("round trip [%d]: %v vs %v", i, got[i], flat[i])
		}
	}
}

func TestDeserializeRejectsCorrupt(t *testing.T) {
	if _, err := Deserialize([]byte{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
	buf := Serialize([]float64{1, 2})
	buf[0] ^= 0xFF
	if _, err := Deserialize(buf); err == nil {
		t.Error("bad magic accepted")
	}
	buf = Serialize([]float64{1, 2})
	if _, err := Deserialize(buf[:len(buf)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestSplitTailRouting(t *testing.T) {
	// Tail values must pass through untouched in forward and backward.
	rng := simrand.New(4)
	inner := NewDense("i", 2, 2, rng)
	st := NewSplitTail(inner, 1)
	x := tensor.FromSlice([]float64{1, 2, 42}, 1, 3)
	y := st.Forward(x)
	if y.Shape()[1] != 3 {
		t.Fatalf("out cols = %d", y.Shape()[1])
	}
	if y.Data()[2] != 42 {
		t.Errorf("tail not passed through: %v", y.Data())
	}
	g := st.Backward(tensor.FromSlice([]float64{0, 0, 7}, 1, 3))
	if g.Data()[2] != 7 {
		t.Errorf("tail gradient not passed through: %v", g.Data())
	}
}

func TestWeightDecayShrinksParams(t *testing.T) {
	p := NewParam("w", 1)
	p.Value.Data()[0] = 10
	opt := NewAdam(0.1)
	opt.WeightDecay = 0.5
	for i := 0; i < 50; i++ {
		p.ZeroGrad() // zero task gradient: only decay acts
		opt.Step(ParamSet{p})
	}
	if v := p.Value.Data()[0]; v >= 6 || v < 0 {
		t.Errorf("weight decay left %v", v)
	}
	// Without decay the parameter must not move under zero gradients.
	q := NewParam("q", 1)
	q.Value.Data()[0] = 10
	plain := NewAdam(0.1)
	plain.Step(ParamSet{q})
	if q.Value.Data()[0] != 10 {
		t.Error("zero gradient moved a parameter without decay")
	}
}
