package dataset

import (
	"math"
	"testing"

	"lbchat/internal/simrand"
)

func sample(cmd Command, speed float64) Sample {
	return Sample{
		BEV:     []uint8{0, 1, 0, 1},
		Command: cmd,
		Speed:   speed,
		NavDist: 1,
		Targets: []float64{0.1, 0, 0.2, 0},
	}
}

func TestCommandProperties(t *testing.T) {
	if NumCommands != 4 {
		t.Fatalf("NumCommands = %d", NumCommands)
	}
	for c := CmdFollow; c <= CmdStraight; c++ {
		if !c.Valid() {
			t.Errorf("%v invalid", c)
		}
		if c.Index() < 0 || c.Index() >= NumCommands {
			t.Errorf("%v index %d", c, c.Index())
		}
	}
	if Command(0).Valid() || Command(5).Valid() {
		t.Error("out-of-range command considered valid")
	}
	if CmdLeft.String() != "left" {
		t.Errorf("String = %q", CmdLeft.String())
	}
}

func TestSampleClone(t *testing.T) {
	s := sample(CmdLeft, 0.5)
	c := s.Clone()
	c.BEV[0] = 9
	c.Targets[0] = 9
	if s.BEV[0] == 9 || s.Targets[0] == 9 {
		t.Error("clone shares payloads")
	}
	if c.Command != s.Command || c.Speed != s.Speed || c.NavDist != s.NavDist {
		t.Error("clone dropped metadata")
	}
}

func TestSampleWireSize(t *testing.T) {
	s := sample(CmdFollow, 0)
	// 4 BEV bits → 1 byte, 1 command byte, 12 scalar bytes, 4×4 targets.
	if got := s.WireSize(); got != 1+1+12+16 {
		t.Errorf("WireSize = %d", got)
	}
}

func TestAddLenAt(t *testing.T) {
	d := New(0)
	d.Add(sample(CmdFollow, 0), 2)
	d.Add(sample(CmdLeft, 0), 3)
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.At(1).Weight != 3 {
		t.Errorf("At(1).Weight = %v", d.At(1).Weight)
	}
	if d.TotalWeight() != 5 {
		t.Errorf("TotalWeight = %v", d.TotalWeight())
	}
	d.SetWeight(0, 7)
	if d.At(0).Weight != 7 {
		t.Error("SetWeight")
	}
}

func TestAbsorbUniformWeights(t *testing.T) {
	a := New(0)
	a.Add(sample(CmdFollow, 0), 1)
	b := New(0)
	b.Add(sample(CmdLeft, 0), 99)
	b.Add(sample(CmdRight, 0), 42)
	a.Absorb(b, 1)
	if a.Len() != 3 {
		t.Fatalf("Len = %d", a.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i).Weight != 1 {
			t.Errorf("absorbed weight [%d] = %v, want uniform 1", i, a.At(i).Weight)
		}
	}
	// Absorbing must not mutate the source's weights.
	if b.At(0).Weight != 99 {
		t.Error("Absorb mutated the source dataset")
	}
}

func TestSampleBatchWeighted(t *testing.T) {
	d := New(0)
	d.Add(sample(CmdFollow, 0), 0.001)
	d.Add(sample(CmdLeft, 0), 100)
	rng := simrand.New(5)
	heavy := 0
	const n = 500
	for _, it := range d.SampleBatch(n, rng) {
		if it.Sample.Command == CmdLeft {
			heavy++
		}
	}
	if heavy < n*9/10 {
		t.Errorf("heavy sample drawn only %d/%d times", heavy, n)
	}
}

func TestSampleBatchEmpty(t *testing.T) {
	d := New(0)
	if got := d.SampleBatch(5, simrand.New(1)); got != nil {
		t.Errorf("empty dataset batch = %v", got)
	}
}

// legacySampleBatch is the pre-cache SampleBatch, kept as its oracle: a
// fresh weight vector and one rng.WeightedIndex — two linear passes — per
// draw, with the uniform fallback when no weight is positive.
func legacySampleBatch(d *Dataset, k int, rng *simrand.Rand) []Weighted {
	if len(d.items) == 0 || k <= 0 {
		return nil
	}
	weights := make([]float64, len(d.items))
	for i, it := range d.items {
		weights[i] = it.Weight
	}
	out := make([]Weighted, 0, k)
	for len(out) < k {
		idx := rng.WeightedIndex(weights)
		if idx < 0 {
			idx = rng.Intn(len(d.items))
		}
		out = append(out, d.items[idx])
	}
	return out
}

// TestSampleBatchMatchesWeightedIndexOracle drives random interleavings of
// Add, Absorb, SetWeight and SampleBatch over weights that include zero,
// negative, NaN and infinite values, and asserts after every batch that the
// cached draw picked the oracle's samples and left both random streams in
// the same state. The runs must reach every path: no positive weight
// (uniform Intn), a NaN weight (which poisons WeightedIndex's running sum for
// every later index), an infinite total (a target past every sum) and plain
// weights.
func TestSampleBatchMatchesWeightedIndexOracle(t *testing.T) {
	odd := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, 1e12}
	shapes := map[string]int{}
	for seed := uint64(1); seed <= 200; seed++ {
		ops := simrand.New(seed)
		// One run in five is mostly non-positive weights, so datasets with
		// none positive are common enough to test.
		pool, pOdd := odd, 0.3
		if seed%5 == 0 {
			pool, pOdd = odd[:2], 0.95
		}
		weight := func() float64 {
			if ops.Bernoulli(pOdd) {
				return pool[ops.Intn(len(pool))]
			}
			return ops.Uniform(0, 2)
		}
		id := 0
		next := func() Sample {
			id++
			return sample(CmdFollow, float64(id))
		}
		d := New(0)
		got, want := simrand.New(seed+1000), simrand.New(seed+1000)
		for step := 0; step < 80; step++ {
			switch ops.Intn(4) {
			case 0:
				d.Add(next(), weight())
			case 1:
				other := New(0)
				for i := ops.Intn(5); i >= 0; i-- {
					other.Add(next(), 1)
				}
				d.Absorb(other, weight())
			case 2:
				if d.Len() > 0 {
					d.SetWeight(ops.Intn(d.Len()), weight())
				}
			default:
				k := ops.Intn(20)
				g, w := d.SampleBatch(k, got), legacySampleBatch(d, k, want)
				if len(g) != len(w) {
					t.Fatalf("seed %d step %d: batch of %d, oracle %d", seed, step, len(g), len(w))
				}
				for i := range w {
					if g[i].Sample.Speed != w[i].Sample.Speed {
						t.Fatalf("seed %d step %d: draw %d took sample %g, oracle %g", seed, step, i, g[i].Sample.Speed, w[i].Sample.Speed)
					}
				}
				if a, b := got.Float64(), want.Float64(); a != b {
					t.Fatalf("seed %d step %d: random streams diverged after the batch", seed, step)
				}
				if len(w) == 0 {
					continue
				}
				shapes[weightShape(d)]++
			}
		}
	}
	for _, shape := range []string{"plain", "none positive", "NaN before a positive", "infinite total"} {
		if shapes[shape] < 20 {
			t.Errorf("oracle compared %d batches over %q weights, want ≥ 20 (all: %v)", shapes[shape], shape, shapes)
		}
	}
}

// weightShape names which of SampleBatch's paths d's weights exercise: the
// uniform fallback, the search bounded by a NaN weight, the fallback past an
// infinite total, or a plain search.
func weightShape(d *Dataset) string {
	var total float64
	positive, nan := false, false
	for _, it := range d.items {
		switch w := it.Weight; {
		case w > 0:
			total += w
			positive = true
			if nan {
				return "NaN before a positive"
			}
		case w != w:
			nan = true
		}
	}
	switch {
	case !positive:
		return "none positive"
	case math.IsInf(total, 1):
		return "infinite total"
	}
	return "plain"
}

// TestSampleBatchAllocatesOnlyTheBatch pins the cache's point: once the
// sums cover the dataset, a draw allocates the returned batch and nothing
// else.
func TestSampleBatchAllocatesOnlyTheBatch(t *testing.T) {
	d := New(0)
	for i := 0; i < 3000; i++ {
		d.Add(sample(CmdFollow, float64(i)), float64(i%7))
	}
	rng := simrand.New(3)
	d.SampleBatch(16, rng)
	if allocs := testing.AllocsPerRun(50, func() { d.SampleBatch(16, rng) }); allocs != 1 {
		t.Fatalf("SampleBatch allocated %v times per call, want 1 (the batch)", allocs)
	}
}

func TestSubset(t *testing.T) {
	d := New(0)
	for i := 0; i < 5; i++ {
		d.Add(sample(CmdFollow, float64(i)), float64(i))
	}
	s := d.Subset([]int{4, 0})
	if s.Len() != 2 || s.At(0).Weight != 4 || s.At(1).Weight != 0 {
		t.Errorf("subset wrong: %+v", s.Items())
	}
}

func TestFromWeightedShares(t *testing.T) {
	items := []Weighted{{Sample: sample(CmdFollow, 0), Weight: 1}}
	d := FromWeighted(items)
	if d.Len() != 1 {
		t.Fatal("length")
	}
	// Weights are copied by value: mutating the dataset must not change the
	// caller's slice.
	d.SetWeight(0, 5)
	if items[0].Weight != 1 {
		t.Error("FromWeighted aliases the input slice values")
	}
}

func TestDatasetWireSize(t *testing.T) {
	d := New(0)
	d.Add(sample(CmdFollow, 0), 1)
	d.Add(sample(CmdLeft, 0), 1)
	per := sample(CmdFollow, 0).WireSize() + 4
	if got := d.WireSize(); got != 2*per {
		t.Errorf("WireSize = %d, want %d", got, 2*per)
	}
}
