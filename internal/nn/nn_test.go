package nn

import (
	"math"
	"testing"

	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// clone returns a deep copy of t.
func clone(t *tensor.Dense) *tensor.Dense {
	out := tensor.New(t.Shape()...)
	copy(out.Data(), t.Data())
	return out
}

// numericalGradCheck verifies the analytic parameter gradients of a network
// against central finite differences on a scalar loss L = 0.5·‖y‖²: forward
// runs the network, backward its backward pass from dL/dy, writing the
// gradients of params.
func numericalGradCheck(t *testing.T, forward func(*tensor.Dense) *tensor.Dense, backward func(*tensor.Dense), params ParamSet, batch, in int, seed uint64) {
	t.Helper()
	rng := simrand.New(seed)
	x := tensor.New(batch, in)
	for i := range x.Data() {
		x.Data()[i] = rng.Normal(0, 1)
	}
	loss := func() float64 {
		y := forward(x)
		var acc float64
		for _, v := range y.Data() {
			acc += 0.5 * v * v
		}
		return acc
	}
	// Analytic gradients.
	backward(clone(forward(x))) // dL/dy = y
	const eps = 1e-6
	for _, p := range params {
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
	d := NewDense("d", 5, 3, simrand.New(1))
	numericalGradCheck(t, d.Forward, func(g *tensor.Dense) { d.Backward(g) }, d.Params(), 4, 5, 2)
}

// TestSequentialGradients checks a hand-chained Dense → ReLU → Dense, the
// shape of the policy's trunk.
func TestSequentialGradients(t *testing.T) {
	rng := simrand.New(5)
	a, relu, b := NewDense("a", 6, 5, rng.Derive("a")), NewReLU(), NewDense("b", 5, 2, rng.Derive("b"))
	forward := func(x *tensor.Dense) *tensor.Dense { return b.Forward(relu.Forward(a.Forward(x))) }
	backward := func(g *tensor.Dense) { a.Backward(relu.Backward(b.Backward(g))) }
	numericalGradCheck(t, forward, backward, append(a.Params(), b.Params()...), 3, 6, 7)
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
	dx := d.Backward(clone(y))
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
	x := tensor.New(1, 3)
	copy(x.Data(), []float64{-1, 0, 2})
	y := r.Forward(x)
	want := []float64{0, 0, 2}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Errorf("forward[%d] = %v", i, v)
		}
	}
	dy := tensor.New(1, 3)
	copy(dy.Data(), []float64{5, 5, 5})
	g := r.Backward(dy)
	wantG := []float64{0, 0, 5}
	for i, v := range g.Data() {
		if v != wantG[i] {
			t.Errorf("backward[%d] = %v", i, v)
		}
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
	DecayClipGradNorm(ParamSet{p}, 0, 1)
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

// decayClip is DecayClipGradNorm followed by the decay it leaves pending,
// added to the gradients the way Adam reads them (nothing at all for 0): the
// gradients the optimizer steps on. It also requires the norm returned to be
// L2Norm's.
func decayClip(t *testing.T, params ParamSet, decay, maxNorm float64) {
	t.Helper()
	want := params.L2Norm()
	norm, pending := DecayClipGradNorm(params, decay, maxNorm)
	if math.Float64bits(norm) != math.Float64bits(want) {
		t.Fatalf("DecayClipGradNorm's norm %v, L2Norm %v", norm, want)
	}
	if pending != 0 && pending != decay {
		t.Fatalf("pending decay %v, want 0 or %v", pending, decay)
	}
	if pending == 0 {
		return
	}
	for _, p := range params {
		for i, v := range p.Value.Data() {
			p.Grad.Data()[i] += pending * v
		}
	}
}

// TestDecayClipGradNormMatchesSeparatePasses: the read-only pass, with the
// decay it leaves pending, steps on the bits of a separate axpy, then an
// ordered sum of squares deciding a rescale; decay 0 leaves a −0
// gradient alone and maxNorm 0 never rescales.
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
		decayClip(t, got, c.decay, c.maxNorm)
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
		if norm := math.Sqrt(acc); c.maxNorm > 0 && norm > c.maxNorm {
			for _, p := range want {
				scaleAll(p, c.maxNorm/norm)
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

// TestSerializeRoundTrip requires the decoded vector to be the encoded one
// bit for bit, values float32 cannot hold included.
func TestSerializeRoundTrip(t *testing.T) {
	flat := []float64{0, 1.5, -2.25, 1e-3, 0.1, 1e-300, math.Nextafter(1, 2)}
	buf := Serialize(flat)
	if want := headerBytes + BytesPerParam*len(flat); len(buf) != want {
		t.Fatalf("wire size %d != %d", len(buf), want)
	}
	got, err := Deserialize(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if math.Float64bits(got[i]) != math.Float64bits(flat[i]) {
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

// parentDecayClipGradNorm is DecayClipGradNorm as it stood before the packed
// screen: the decay and the ordered sum of squares in one scalar pass, then
// the clip. It is the oracle every gradient bit is held to.
func parentDecayClipGradNorm(params ParamSet, decay, maxNorm float64) float64 {
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
			scaleAll(p, scale)
		}
	}
	return norm
}

// TestDecayClipMatchesOrderedOracle plants the ordered sum of squares of the
// decayed gradients at maxNorm²·(1 ± 2⁻⁵⁰), at exactly maxNorm², inside and
// below the screen's band and far above it (a forced clip), and holds every
// gradient bit the optimizer steps on — the read-only screen's, with its
// pending decay added — to the parent's pass.
func TestDecayClipMatchesOrderedOracle(t *testing.T) {
	rng := simrand.New(14)
	clone := func(ps ParamSet) ParamSet {
		out := make(ParamSet, len(ps))
		for i, p := range ps {
			q := NewParam(p.Name, p.Value.Shape()...)
			copy(q.Value.Data(), p.Value.Data())
			copy(q.Grad.Data(), p.Grad.Data())
			out[i] = q
		}
		return out
	}
	// build draws a set whose ordered sum lands on target: the last gradient
	// absorbs what the others leave — its value is 0, so the decay does not
	// touch it — and is nudged an ulp at a time toward the exact target.
	build := func(decay, maxNorm, target float64) (ParamSet, bool) {
		ps := ParamSet{NewParam("w", 3, 5), NewParam("b", 5), NewParam("u", 6), NewParam("s", 1)}
		for _, p := range ps {
			for i := range p.Value.Data() {
				p.Value.Data()[i] = rng.Normal(0, 1)
				p.Grad.Data()[i] = rng.Normal(0, maxNorm/10)
			}
		}
		last := ps[len(ps)-1]
		last.Value.Data()[0], last.Grad.Data()[0] = 0, 0
		ordered := func() float64 {
			var acc float64
			for _, p := range ps {
				for i, g := range p.Grad.Data() {
					if decay != 0 {
						g += decay * p.Value.Data()[i]
					}
					acc += g * g
				}
			}
			return acc
		}
		rest := ordered()
		if target <= rest {
			return ps, false
		}
		g := math.Sqrt(target - rest)
		for step := 0; step < 200; step++ {
			last.Grad.Data()[0] = g
			switch s := ordered(); {
			case s == target:
				return ps, true
			case s < target:
				g = math.Nextafter(g, math.Inf(1))
			default:
				g = math.Nextafter(g, 0)
			}
		}
		return ps, false
	}
	var exact, clipped, kept int
	for _, maxNorm := range []float64{5, 1, 1e-3, 3e10} {
		sq := maxNorm * maxNorm
		for _, decay := range []float64{0, 2e-4, 0.5} {
			for _, target := range []float64{sq * (1 - 0x1p-50), sq, sq * (1 + 0x1p-50), sq * (1 - 0x1p-20), sq / 4, sq * 4} {
				for rep := 0; rep < 4; rep++ {
					got, hit := build(decay, maxNorm, target)
					want := clone(got)
					norm := parentDecayClipGradNorm(want, decay, maxNorm)
					decayClip(t, got, decay, maxNorm)
					if hit && target == sq {
						exact++
					}
					if norm > maxNorm {
						clipped++
					} else {
						kept++
					}
					for pi := range want {
						for i, w := range want[pi].Grad.Data() {
							if g := got[pi].Grad.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("maxNorm %v decay %v target %v: %s.Grad[%d] = %v, parent pass %v",
									maxNorm, decay, target, want[pi].Name, i, g, w)
							}
						}
					}
				}
			}
		}
	}
	if exact == 0 || clipped == 0 || kept == 0 {
		t.Fatalf("vacuous: %d sums planted exactly at maxNorm², %d clips, %d kept", exact, clipped, kept)
	}
}

// scaleAll multiplies every gradient element of p by s.
func scaleAll(p *Param, s float64) {
	for i := range p.Grad.Data() {
		p.Grad.Data()[i] *= s
	}
}
