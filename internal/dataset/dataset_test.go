package dataset

import (
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
