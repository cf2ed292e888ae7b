package nn

import (
	"math"
	"strings"
	"testing"

	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// layer is what Dense and ReLU share.
type layer interface {
	Forward(*tensor.Dense) *tensor.Dense
	Backward(*tensor.Dense) *tensor.Dense
}

// chain is a hand-chained network under test: first is its first layer,
// rest the layers after it in order. backward runs the backward pass from
// dLoss/dOutput — Backward through rest, then Backward on first, or, when
// paramsOnly, BackwardParams on it as the policy's trunk does.
type chain struct {
	first  *Dense
	rest   []layer
	params ParamSet
}

func (c *chain) forward(x *tensor.Dense) *tensor.Dense {
	x = c.first.Forward(x)
	for _, l := range c.rest {
		x = l.Forward(x)
	}
	return x
}

func (c *chain) backward(grad *tensor.Dense, paramsOnly bool) {
	for i := len(c.rest) - 1; i >= 0; i-- {
		grad = c.rest[i].Backward(grad)
	}
	if paramsOnly {
		c.first.BackwardParams(grad)
	} else {
		c.first.Backward(grad)
	}
}

// gradBits runs one forward pass and then the backward pass on a freshly
// built chain, twice — the second pass writing over gradients the first left
// poisoned with NaN — and returns the bit patterns of every parameter
// gradient and whether the first layer's input-gradient scratch was written.
func gradBits(build func() *chain, in int, paramsOnly bool) (bits []uint64, firstDx bool) {
	c := build()
	rng := simrand.New(77)
	x := tensor.New(5, in)
	for i := range x.Data() {
		if rng.Bernoulli(0.6) { // sparse, like the BEV
			x.Data()[i] = rng.Normal(0, 1)
		}
	}
	for pass := 0; pass < 2; pass++ {
		c.backward(clone(c.forward(x)), paramsOnly)
		if pass == 0 {
			for _, p := range c.params {
				for i := range p.Grad.Data() {
					p.Grad.Data()[i] = math.NaN()
				}
			}
		}
	}
	for _, p := range c.params {
		for _, g := range p.Grad.Data() {
			bits = append(bits, math.Float64bits(g))
		}
	}
	return bits, c.first.dx != nil
}

// TestBackwardParamsMatchesBackward: BackwardParams on a network's first
// layer leaves the same parameter-gradient bits as Backward, alone and
// under a Dense → ReLU → Dense → ReLU → Dense chain, both write every
// gradient element (none of the poison survives), and the first layer's
// input-gradient scratch is never touched.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	cases := []struct {
		name  string
		in    int
		build func() *chain
	}{
		{"Dense", 7, func() *chain {
			d := NewDense("d", 7, 4, simrand.New(1))
			return &chain{first: d, params: d.Params()}
		}},
		{"Chain", 9, func() *chain {
			rng := simrand.New(4)
			a := NewDense("a", 9, 6, rng.Derive("a"))
			b := NewDense("b", 6, 5, rng.Derive("b"))
			c := NewDense("c", 5, 3, rng.Derive("c"))
			ps := append(append(a.Params(), b.Params()...), c.Params()...)
			return &chain{first: a, rest: []layer{NewReLU(), b, NewReLU(), c}, params: ps}
		}},
	}
	for _, c := range cases {
		want, _ := gradBits(c.build, c.in, false)
		got, firstDx := gradBits(c.build, c.in, true)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%s: %d gradient values, Backward gave %d", c.name, len(got), len(want))
		}
		for i := range want {
			if math.IsNaN(math.Float64frombits(want[i])) {
				t.Fatalf("%s: gradient %d still holds the poison after Backward", c.name, i)
			}
			if got[i] != want[i] {
				t.Fatalf("%s: gradient %d = %#x after BackwardParams, %#x after Backward", c.name, i, got[i], want[i])
			}
		}
		if firstDx {
			t.Errorf("%s: BackwardParams computed the first layer's input gradient", c.name)
		}
	}
}

// mapAdam is Adam as the seed wrote it — moments looked up per parameter in
// two maps — kept as the oracle for the positional Step. Its update is Step's
// form, with the bias corrections folded into two scalars per step: the
// test pins bookkeeping, not the association, which tensor's
// TestAdamUpdateCloseToTextbook bounds against the textbook form.
type mapAdam struct {
	LR, Beta1, Beta2, Eps, WeightDecay float64

	t    int
	m, v map[*Param][]float64
}

func (o *mapAdam) Step(params ParamSet) {
	if o.m == nil {
		o.m = make(map[*Param][]float64, len(params))
		o.v = make(map[*Param][]float64, len(params))
	}
	o.t++
	stepSize := o.LR / (1 - math.Pow(o.Beta1, float64(o.t)))
	invBiasCorr2 := 1 / (1 - math.Pow(o.Beta2, float64(o.t)))
	for _, p := range params {
		vd := p.Value.Data()
		gd := p.Grad.Data()
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = make([]float64, len(vd))
			v = make([]float64, len(vd))
			o.m[p] = m
			o.v[p] = v
		}
		for i := range vd {
			g := gd[i] + o.WeightDecay*vd[i]
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			vd[i] -= stepSize * m[i] / (math.Sqrt(v[i]*invBiasCorr2) + o.Eps)
		}
	}
}

func adamTestParams() ParamSet {
	rng := simrand.New(8)
	// Lengths 30, 5, 9, 1 and 3: whole vectors of the packed update plus every
	// tail length, and parameters that are all tail.
	ps := ParamSet{NewParam("w", 6, 5), NewParam("b", 5), NewParam("u", 3, 3), NewParam("s", 1), NewParam("t", 3)}
	for _, p := range ps {
		for i := range p.Value.Data() {
			p.Value.Data()[i] = rng.Normal(0, 1)
		}
	}
	return ps
}

// TestAdamPositionalMatchesMapOracle: 50 steps of the positional Adam leave
// the value bits the map-keyed one leaves (with and without weight decay;
// without it the first step's gradients are so small that every second
// moment is denormal), and a Step with a differently shaped set panics naming
// both lengths.
func TestAdamPositionalMatchesMapOracle(t *testing.T) {
	for _, decay := range []float64{0, 0.01} {
		got, want := adamTestParams(), adamTestParams()
		adam := NewAdam(1e-2)
		adam.WeightDecay = decay
		oracle := &mapAdam{LR: 1e-2, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: decay}
		rng := simrand.New(9)
		for step := 0; step < 50; step++ {
			for pi := range got {
				for i := range got[pi].Grad.Data() {
					g := rng.Normal(0, 1)
					if rng.Bernoulli(0.2) {
						g = math.Copysign(0, -1)
					}
					if step == 0 {
						g = math.Copysign(1e-160, g)
					}
					got[pi].Grad.Data()[i], want[pi].Grad.Data()[i] = g, g
				}
			}
			adam.Step(got)
			oracle.Step(want)
			if step == 0 && decay == 0 {
				for pi := range adam.v {
					for i, v := range adam.v[pi] {
						if v <= 0 || v >= 0x1p-1022 {
							t.Fatalf("%s: second moment [%d] = %v after the first step, want a denormal", got[pi].Name, i, v)
						}
					}
				}
			}
		}
		for pi := range want {
			for i, w := range want[pi].Value.Data() {
				if g := got[pi].Value.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("decay %v: %s[%d] = %v, map-keyed Adam %v", decay, want[pi].Name, i, g, w)
				}
			}
		}
	}

	mustPanic := func(name string, params ParamSet, mentions ...string) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			for _, m := range mentions {
				if !strings.Contains(msg, m) {
					t.Errorf("%s: panic %q does not mention %q", name, msg, m)
				}
			}
		}()
		adam := NewAdam(1e-2)
		adam.Step(adamTestParams())
		adam.Step(params)
	}
	mustPanic("shorter set", adamTestParams()[:2], "5 parameters", "got 2")
	reshaped := adamTestParams()
	reshaped[1] = NewParam("b", 4)
	mustPanic("reshaped parameter", reshaped, "5 elements", "got 4")
}
