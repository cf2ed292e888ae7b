package model

import (
	"fmt"
	"math"
	"testing"

	"lbchat/internal/dataset"
	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// The dense first layer the policy ran before it read on-cells, kept as the
// oracle: every input row built in full by fillInputRow and fed to fc1's
// dense Forward (and so to the dense AddMatMulTransA in backward), the rest
// of the step as production runs it.

func denseInput(cfg Config, items []dataset.Weighted) *tensor.Dense {
	in := cfg.InputSize()
	x := tensor.New(len(items), in)
	for i, it := range items {
		s := it.Sample
		fillInputRow(x.Data()[i*in:(i+1)*in], s.BEV, s.Speed, s.NavDist, s.RedDist)
	}
	return x
}

func denseForward(p *Policy, items []dataset.Weighted) *tensor.Dense {
	p.buildBatch(items)
	return p.route(p.trunk.Forward(denseInput(p.cfg, items)))
}

func denseTrainStep(p *Policy, items []dataset.Weighted) float64 {
	if len(items) == 0 {
		return 0
	}
	return p.step(denseForward(p, items))
}

func densePerSampleLosses(p *Policy, items []dataset.Weighted) []float64 {
	out := make([]float64, len(items))
	for lo := 0; lo < len(items); lo += evalChunk {
		hi := min(lo+evalChunk, len(items))
		denseForward(p, items[lo:hi])
		p.meanSquaredErrors(out[lo:hi])
	}
	return out
}

// firstLayerSet is sparseSet's pool with its BEVs redrawn: binary, or
// arbitrary bytes; and, when hostile, every fifth sample's scalars set to
// zero, −0 or NaN.
func firstLayerSet(cfg Config, n int, binary, hostile bool) []dataset.Weighted {
	rng := simrand.New(29)
	data := sparseSet(cfg, n, rng.Derive("pool"),
		dataset.CmdFollow, dataset.CmdLeft, dataset.CmdRight, dataset.CmdStraight)
	for i := range data {
		s := &data[i].Sample
		for j := range s.BEV {
			s.BEV[j] = 0
			switch {
			case !rng.Bernoulli(0.17):
			case binary:
				s.BEV[j] = 1
			default:
				s.BEV[j] = uint8(1 + rng.Intn(255))
			}
		}
		if hostile && i%5 == 0 {
			odd := []float64{0, math.Copysign(0, -1), math.NaN()}
			s.Speed, s.NavDist, s.RedDist = odd[i%3], odd[(i+1)%3], odd[(i+2)%3]
		}
	}
	return data
}

// sameBitsOrNaN is sameBits with any NaN matching any NaN.
func sameBitsOrNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRowsFirstLayerMatchesDense runs a policy whose first layer reads
// on-cells beside a clone fed the dense input, and requires the same bits
// from both: the forward outputs, per-sample losses, every parameter's
// gradient and value after each of 50 train steps, and the losses. Batches
// of 1, 16, 64 and 65 rows (one past evalChunk) on binary and arbitrary-byte
// BEVs, with and without zero, −0 and NaN scalars.
func TestRowsFirstLayerMatchesDense(t *testing.T) {
	cfg := DefaultConfig()
	for _, binary := range []bool{true, false} {
		for _, hostile := range []bool{false, true} {
			data := firstLayerSet(cfg, 130, binary, hostile)
			for _, batch := range []int{1, 16, 64, 65} {
				t.Run(fmt.Sprintf("binary=%v/hostile=%v/batch=%d", binary, hostile, batch), func(t *testing.T) {
					rows, err := New(cfg, 7)
					if err != nil {
						t.Fatal(err)
					}
					dense := rows.Clone()
					items := data[:batch]
					rows.buildBatch(items)
					if got, want := rows.forward().Data(), denseForward(dense, items).Data(); !sameBitsOrNaN(got, want) {
						t.Fatal("forward outputs differ")
					}
					if got, want := rows.PerSampleLosses(items), densePerSampleLosses(dense, items); !sameBitsOrNaN(got, want) {
						t.Fatal("per-sample losses differ")
					}
					for step := 0; step < 50; step++ {
						lo := (step * batch) % (len(data) - batch + 1)
						items := data[lo : lo+batch]
						got, want := rows.TrainStep(items), denseTrainStep(dense, items)
						if !sameBitsOrNaN([]float64{got}, []float64{want}) {
							t.Fatalf("step %d: loss %v, dense oracle %v", step, got, want)
						}
						for i, q := range rows.Params() {
							o := dense.Params()[i]
							if !sameBitsOrNaN(q.Grad.Data(), o.Grad.Data()) {
								t.Fatalf("step %d: %s gradients differ", step, q.Name)
							}
							if !sameBitsOrNaN(q.Value.Data(), o.Value.Data()) {
								t.Fatalf("step %d: %s values differ", step, q.Name)
							}
						}
					}
				})
			}
		}
	}
}

// TestRowsScratchBounded: the input a policy holds is its largest batch's
// on-cells plus three scalars a row, with int32 indices — not rows × input
// width.
func TestRowsScratchBounded(t *testing.T) {
	cfg, data := benchSet(64)
	pol, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	pol.TrainStep(data[:16])
	pol.Loss(data)
	pol.TrainStep(data[16:32])
	on := 0
	for _, it := range data {
		on += tensor.CountNonzero(it.Sample.BEV)
	}
	var idx []int32 = pol.rows.Idx
	bound := on + 3*len(data)
	if cap(idx) > bound || cap(pol.rows.Val) > bound {
		t.Errorf("rows hold %d indices and %d values, more than %d on-cells + 3·%d rows",
			cap(idx), cap(pol.rows.Val), on, len(data))
	}
}
