package experiments

import (
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/eval"
)

// TestParallelRunDeterminism pins the PR's central contract: an LbChat run
// produces bit-identical results at every worker count. Loss-curve points
// (times and values), fleet receive stats, and every vehicle's final flat
// parameter vector must match exactly between workers=1 (the historical
// serial path, run twice to establish the baseline is itself stable) and
// workers=8 (real concurrency even on a single-core host).
func TestParallelRunDeterminism(t *testing.T) {
	env := getEnv(t)
	runAt := func(workers int) *ProtocolRun {
		run, err := env.RunProtocol(ProtoLbChat, false, func(c *core.Config) {
			c.Workers = workers
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return run
	}

	serial := runAt(1)
	for _, workers := range []int{1, 8} {
		got := runAt(workers)
		if len(got.Curve.Points) != len(serial.Curve.Points) {
			t.Fatalf("workers=%d: %d curve points, serial has %d",
				workers, len(got.Curve.Points), len(serial.Curve.Points))
		}
		for i, p := range got.Curve.Points {
			sp := serial.Curve.Points[i]
			if p.Time != sp.Time || p.Value != sp.Value {
				t.Errorf("workers=%d: curve[%d] = (%v, %v), serial (%v, %v)",
					workers, i, p.Time, p.Value, sp.Time, sp.Value)
			}
		}
		if got.Recv != serial.Recv {
			t.Errorf("workers=%d: receive stats %+v, serial %+v", workers, got.Recv, serial.Recv)
		}
		if len(got.Fleet) != len(serial.Fleet) {
			t.Fatalf("workers=%d: fleet size %d, serial %d", workers, len(got.Fleet), len(serial.Fleet))
		}
		for v := range got.Fleet {
			gf, sf := got.Fleet[v].Flat(), serial.Fleet[v].Flat()
			for i := range gf {
				if gf[i] != sf[i] {
					t.Fatalf("workers=%d: vehicle %d param[%d] = %v, serial %v",
						workers, v, i, gf[i], sf[i])
				}
			}
		}
	}
}

// TestParallelEvalDeterminism checks that fleet evaluation fans out without
// changing a single reported rate: EvalFleet at workers=6 must equal the
// serial workers=1 result exactly (integer success counts, order-independent;
// per-condition float averages reduced in sample order).
func TestParallelEvalDeterminism(t *testing.T) {
	env := getEnv(t)
	run, _ := goldenRun(t, ProtoLbChat, true)

	withWorkers := func(workers int) map[eval.Condition]float64 {
		e2 := *env
		e2.Scale.Workers = workers
		return e2.EvalFleet(run.Fleet)
	}
	serial := withWorkers(1)
	parallelRates := withWorkers(6)
	for cond, want := range serial {
		if got := parallelRates[cond]; got != want {
			t.Errorf("%v: parallel rate %v, serial %v", cond, got, want)
		}
	}
}
