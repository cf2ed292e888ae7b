package nn

import (
	"math"
	"strings"
	"testing"

	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// gradBits runs one forward pass and then backward (either Backward or
// BackwardParams) on a freshly built layer, twice — gradients accumulate —
// and returns the bit patterns of every parameter gradient.
func gradBits(build func() Layer, in int, paramsOnly bool) []uint64 {
	layer := build()
	rng := simrand.New(77)
	x := tensor.New(5, in)
	for i := range x.Data() {
		if rng.Bernoulli(0.6) { // sparse, like the BEV
			x.Data()[i] = rng.Normal(0, 1)
		}
	}
	var bits []uint64
	for pass := 0; pass < 2; pass++ {
		y := layer.Forward(x)
		grad := y.Clone()
		if paramsOnly {
			layer.BackwardParams(grad)
		} else {
			layer.Backward(grad)
		}
	}
	for _, p := range layer.Params() {
		for _, g := range p.Grad.Data() {
			bits = append(bits, math.Float64bits(g))
		}
	}
	return bits
}

// TestBackwardParamsMatchesBackward: BackwardParams leaves the same
// parameter-gradient bits as Backward for every layer kind and for a nested
// container, and the first layer's input-gradient scratch is never touched.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	var firstDense *Dense
	var firstConv *Conv2D
	cases := []struct {
		name  string
		in    int
		build func() Layer
	}{
		{"Dense", 7, func() Layer {
			firstDense = NewDense("d", 7, 4, simrand.New(1))
			return firstDense
		}},
		{"Conv2D", 2 * 5 * 5, func() Layer {
			firstConv = NewConv2D("c", 2, 5, 5, 3, 3, 2, 1, simrand.New(2))
			return firstConv
		}},
		{"SplitTail", 2*5*5 + 3, func() Layer {
			firstConv = NewConv2D("c", 2, 5, 5, 3, 3, 2, 1, simrand.New(3))
			return NewSplitTail(firstConv, 3)
		}},
		{"Sequential", 9, func() Layer {
			rng := simrand.New(4)
			firstDense = NewDense("a", 9, 6, rng.Derive("a"))
			return NewSequential(
				NewSequential(firstDense, NewTanh()),
				NewDense("b", 6, 5, rng.Derive("b")),
				NewReLU(),
				NewDense("c", 5, 3, rng.Derive("c")),
			)
		}},
	}
	for _, c := range cases {
		firstDense, firstConv = nil, nil
		want := gradBits(c.build, c.in, false)
		firstDense, firstConv = nil, nil
		got := gradBits(c.build, c.in, true)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%s: %d gradient values, Backward gave %d", c.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: gradient %d = %#x after BackwardParams, %#x after Backward", c.name, i, got[i], want[i])
			}
		}
		if firstDense != nil && firstDense.dx != nil {
			t.Errorf("%s: BackwardParams computed the first layer's input gradient", c.name)
		}
		if firstConv != nil && (firstConv.dx != nil || firstConv.dCols != nil || firstConv.dImg != nil) {
			t.Errorf("%s: BackwardParams computed the first layer's input gradient", c.name)
		}
	}
	NewSequential().BackwardParams(tensor.New(1, 1)) // an empty chain has nothing to do
}

// mapAdam is Adam as the seed wrote it — moments looked up per parameter in
// two maps — kept as the oracle for the positional Step.
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
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
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
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			vd[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
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
