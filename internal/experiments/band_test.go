package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"lbchat/internal/core"
)

const lossBandPath = "testdata/loss_band.json"

// bandSeeds are the engine seeds the band is taken over: four draws of every
// stream a run owns (initialisation, batches, coreset sampling) on the one
// test-scale env.
var bandSeeds = []uint64{1, 2, 3, 4}

// lossBand is the recorded file: for every golden protocol, lossy, the
// probe-loss curve of each band seed, point by point at the same times.
type lossBand struct {
	Seeds     []uint64                `json:"seeds"`
	Protocols map[string]bandProtocol `json:"protocols"`
}

type bandProtocol struct {
	Times  []float64   `json:"times"`
	Curves [][]float64 `json:"curves"` // one per seed, in Seeds order
}

// bandCurves runs every golden protocol, lossy, once per band seed.
func bandCurves(t *testing.T) lossBand {
	t.Helper()
	env := envWithSink(t, nil)
	band := lossBand{Seeds: bandSeeds, Protocols: map[string]bandProtocol{}}
	for _, name := range goldenProtocols {
		var bp bandProtocol
		for _, seed := range bandSeeds {
			run, err := env.RunProtocol(name, false, func(c *core.Config) { c.Seed = seed })
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			times, values := make([]float64, len(run.Curve.Points)), make([]float64, len(run.Curve.Points))
			for i, p := range run.Curve.Points {
				times[i], values[i] = p.Time, p.Value
			}
			if bp.Times == nil {
				bp.Times = times
			} else if !slices.Equal(bp.Times, times) {
				t.Fatalf("%s seed %d: probe times %v, seed %d's %v", name, seed, times, bandSeeds[0], bp.Times)
			}
			bp.Curves = append(bp.Curves, values)
		}
		band.Protocols[string(name)] = bp
	}
	return band
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is reordered.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// TestLossCurveBand holds this tree's probe-loss curves to the band a
// recorded tree drew: at every probe time, the median over the band seeds
// of this tree's fleet loss must lie between the least and the greatest loss
// any seed reached there when the band was recorded. The band is the seed
// spread of one tree, so a change that moves learning by less than a change
// of seed does stays inside it. A change that moves a curve out re-records
// the band explicitly (`go test ./internal/experiments -run LossCurveBand
// -update`) and says in its change log which curves left and why.
func TestLossCurveBand(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the band is recorded on amd64; fused multiply-add changes float bits elsewhere")
	}
	got := bandCurves(t)
	if *update {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lossBandPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(lossBandPath)
	if err != nil {
		t.Fatalf("reading the band (record it with -update): %v", err)
	}
	var want lossBand
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decoding %s: %v", lossBandPath, err)
	}
	if !slices.Equal(want.Seeds, bandSeeds) || len(want.Protocols) != len(got.Protocols) {
		t.Fatalf("%s holds seeds %v and %d protocols; this test runs seeds %v over %d",
			lossBandPath, want.Seeds, len(want.Protocols), bandSeeds, len(got.Protocols))
	}
	for _, name := range goldenProtocols {
		g, w := got.Protocols[string(name)], want.Protocols[string(name)]
		if !slices.Equal(g.Times, w.Times) {
			t.Errorf("%s: probe times %v, band %v", name, g.Times, w.Times)
			continue
		}
		var worst float64 // the largest excursion, in band widths
		for i, at := range g.Times {
			lo, hi, now := math.Inf(1), math.Inf(-1), make([]float64, len(g.Curves))
			for s := range w.Curves {
				lo, hi = math.Min(lo, w.Curves[s][i]), math.Max(hi, w.Curves[s][i])
				now[s] = g.Curves[s][i]
			}
			m := median(now)
			if !(m >= lo && m <= hi) {
				t.Errorf("%s: at t=%g s the median probe loss %.6g left the band [%.6g, %.6g]", name, at, m, lo, hi)
			}
			if width := hi - lo; width > 0 {
				worst = math.Max(worst, math.Max(lo-m, m-hi)/width)
			}
		}
		t.Logf("%s: %s", name, bandSummary(g, w, worst))
	}
}

// bandSummary reads one protocol's final point against the band's.
func bandSummary(g, w bandProtocol, worst float64) string {
	last := len(g.Times) - 1
	now, was := make([]float64, len(g.Curves)), make([]float64, len(w.Curves))
	for s := range g.Curves {
		now[s], was[s] = g.Curves[s][last], w.Curves[s][last]
	}
	return fmt.Sprintf("final median %.6g (band median %.6g), worst excursion %.2f band widths", median(now), median(was), worst)
}
