package model

import (
	"testing"

	"lbchat/internal/dataset"
	"lbchat/internal/simrand"
)

// benchSet is the golden's sparse pool: bench-shaped rows, all four commands.
func benchSet(n int) (Config, []dataset.Weighted) {
	cfg := DefaultConfig()
	return cfg, sparseSet(cfg, n, simrand.New(41).Derive("pool"),
		dataset.CmdFollow, dataset.CmdLeft, dataset.CmdRight, dataset.CmdStraight)
}

// TestTrainStepAllocations pins the steady-state allocation counts of the
// three hot calls: everything they work in is policy- or layer-held scratch,
// and only results a caller keeps (PerSampleLosses' slice inside Loss, the
// weight and command columns Loss builds for the whole item list, Predict's
// returned waypoints) are allocated.
func TestTrainStepAllocations(t *testing.T) {
	cfg, data := benchSet(64)
	pol, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	batch, one := data[:16], data[0].Sample
	pol.TrainStep(batch) // warm-up: scratch grows to its steady size
	pol.Loss(data)
	for _, c := range []struct {
		name string
		most float64
		call func()
	}{
		{"TrainStep", 4, func() { pol.TrainStep(batch) }},
		{"Loss(64)", 4, func() { pol.Loss(data) }},
		{"Predict", 1, func() { pol.Predict(one.BEV, one.Speed, one.NavDist, one.RedDist, one.Command) }},
	} {
		if got := testing.AllocsPerRun(20, c.call); got > c.most {
			t.Errorf("%s: %v allocs per call, want at most %v", c.name, got, c.most)
		}
	}
}

// TestEvalScratchBounded checks that a large evaluation leaves no policy-held
// buffer larger than evalChunk rows, and that chunking does not change a bit
// of the result.
func TestEvalScratchBounded(t *testing.T) {
	cfg, data := benchSet(1000)
	pol, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := pol.PerSampleLosses(data)
	if len(got) != len(data) {
		t.Fatalf("%d losses for %d items", len(got), len(data))
	}
	for i := range data {
		if one := pol.PerSampleLosses(data[i : i+1]); one[0] != got[i] {
			t.Fatalf("item %d: %v alone, %v in the chunked walk", i, one[0], got[i])
		}
	}
	rows := func(name string, capacity, cols int) {
		t.Helper()
		if capacity > evalChunk*cols {
			t.Errorf("%s holds %d values, more than evalChunk=%d rows of %d", name, capacity, evalChunk, cols)
		}
	}
	// The input is held as rows (TestRowsScratchBounded bounds their
	// entries); without a conv front-end there is no dense input scratch.
	if pol.x != nil {
		t.Errorf("x holds %d values: a dense input without a conv front-end", cap(pol.x.Data()))
	}
	rows("rows.End", cap(pol.rows.End), 1)
	rows("y", cap(pol.y.Data()), cfg.TargetSize())
	rows("preds", cap(pol.preds.Data()), cfg.TargetSize())
	rows("cmds", cap(pol.cmds), 1)
	rows("weights", cap(pol.weights), 1)
	for h := range pol.headIn {
		if pol.headIn[h] != nil {
			rows("headIn", cap(pol.headIn[h].Data()), cfg.Hidden)
		}
		rows("byCmd", cap(pol.byCmd[h]), 1)
	}
}

// The three benchmarks below time the policy's hot calls on the golden's
// sparse set and start in milliseconds; the repository-root
// BenchmarkTrainStep measures the same call inside a bench-scale protocol
// run it has to set up first.

func BenchmarkTrainStep(b *testing.B) {
	cfg, data := benchSet(256)
	pol, err := New(cfg, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 16) % len(data)
		pol.TrainStep(data[lo : lo+16])
	}
}

func BenchmarkLoss64(b *testing.B) {
	cfg, data := benchSet(64)
	pol, err := New(cfg, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += pol.Loss(data)
	}
	_ = sink
}

func BenchmarkPredict(b *testing.B) {
	cfg, data := benchSet(1)
	pol, err := New(cfg, 7)
	if err != nil {
		b.Fatal(err)
	}
	s := data[0].Sample
	b.ReportAllocs()
	b.ResetTimer()
	var sink []float64
	for i := 0; i < b.N; i++ {
		sink = pol.Predict(s.BEV, s.Speed, s.NavDist, s.RedDist, s.Command)
	}
	_ = sink
}
