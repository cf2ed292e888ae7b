package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"lbchat/internal/tensor"
)

const specPath = "../../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// tinyRun measures one workload at the smoke-test scale.
func tinyRun(t *testing.T, name string, seed uint64, traced bool) *outcome {
	t.Helper()
	tensor.SetWorkers(1)
	sz := tinySizing()
	o := options{workload: name, seed: seed, tmpDir: t.TempDir(), log: io.Discard}
	w, err := newWorkload(name, sz, o)
	if err != nil {
		t.Fatal(err)
	}
	out, err := measure(w, sz, newRecorder(traced, name), o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, c := range out.checks {
		if !c.ok {
			t.Errorf("%s: check %s failed: %s", name, c.name, c.detail)
		}
	}
	return out
}

// TestSpecWellFormed holds BENCHMARK.json to the limits the acceptance
// driver enforces before it runs anything.
func TestSpecWellFormed(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	loads, gated := map[string]bool{}, map[string]bool{}
	for _, w := range sp.Workloads {
		name(w.Name)
		loads[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		gated[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	// Every per-layer metric says which end-to-end metric it feeds, on
	// which workloads.
	for _, m := range sp.PerLayer {
		name(m.Name)
		f, ok := feeds[m.Name]
		if !ok {
			t.Errorf("per-layer %s has no entry in feeds", m.Name)
			continue
		}
		if f.metric != exact && !gated[f.metric] {
			t.Errorf("%s feeds %q, which is no end-to-end metric", m.Name, f.metric)
		}
		for _, wl := range strings.Fields(f.on) {
			if !loads[wl] {
				t.Errorf("%s should move on %q, which is no workload", m.Name, wl)
			}
		}
		if f.on == "" {
			t.Errorf("%s names no workload to move on", m.Name)
		}
	}
	if len(feeds) != len(sp.PerLayer) {
		t.Errorf("feeds has %d entries, BENCHMARK.json %d per-layer metrics", len(feeds), len(sp.PerLayer))
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at a tiny scale and
// checks that the harness computes exactly the metrics BENCHMARK.json
// declares — nothing declared that no workload produces, nothing produced
// that the result line would drop — and that the layer timings nest.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		declared[m.Name] = true
	}
	produced := map[string]bool{}
	for _, wl := range sp.Workloads {
		out := tinyRun(t, wl.Name, 7, true)
		for k := range out.metrics {
			produced[k] = true
			if !declared[k] {
				t.Errorf("%s computes %q, which BENCHMARK.json does not declare", wl.Name, k)
			}
		}
		for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			res := out.result(list)
			if len(res.Metrics) != len(list) {
				t.Errorf("%s: %d metrics in the result, %d declared", wl.Name, len(res.Metrics), len(list))
			}
			for _, m := range list {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s: %s reported as %+v, want unit %q", wl.Name, m.Name, v, m.Unit)
				}
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", wl.Name, res.Correct, res.Attempted, res.Failed)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not encode: %v", wl.Name, err)
			}
		}
		for _, m := range sp.EndToEnd {
			if out.metrics[m.Name] <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", wl.Name, m.Name, out.metrics[m.Name])
			}
		}
		if run := out.metrics["core.run_s"]; run > 0 {
			if sum := out.metrics["core.ontick_s"] + out.metrics["model.train_s"]; sum > run {
				t.Errorf("%s: core.ontick_s + model.train_s = %v > core.run_s = %v", wl.Name, sum, run)
			}
		}
	}
	for name := range declared {
		if !produced[name] {
			t.Errorf("BENCHMARK.json declares %q, which no workload computes", name)
		}
	}
}

// TestSeedChangesOutputs checks the workload seed reaches the program: an
// untraced run at another seed ends at a different probe loss.
func TestSeedChangesOutputs(t *testing.T) {
	loss := func(seed uint64) float64 {
		sz := tinySizing()
		o := options{seed: seed}
		w, err := newWorkload("paper-lossy", sz, o)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if _, err := w.setUp(newRecorder(false, "")); err != nil {
			t.Fatal(err)
		}
		p, err := w.pass(newRecorder(false, ""))
		if err != nil {
			t.Fatal(err)
		}
		return p.exact["final_probe_loss"]
	}
	if a, b := loss(7), loss(8); a == b {
		t.Errorf("final_probe_loss is %v at seed 7 and at seed 8", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "t", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "r", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 115, 70, 130, 100, 95, 125, 75}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"slower", lower, steady, scale(steady, 1.2), "regressed"},
		{"faster", lower, steady, scale(steady, 0.8), "improved"},
		{"rate-down", higher, steady, scale(steady, 0.8), "regressed"},
		{"rate-up", higher, steady, scale(steady, 1.3), "improved"},
		{"within-bound", lower, steady, scale(steady, 1.05), "unchanged"},
		{"too-noisy", lower, noisy, noisy, "unresolved"},
		{"noisy-but-disjoint", lower, noisy, scale(noisy, 0.4), "improved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// sessionReport fabricates a ten-seed report: end-to-end timings f times
// slower than the base, quality and exact numbers as given.
func sessionReport(sp *spec, commit string, f, probeLoss, chats float64) *report {
	rep := &report{Header: map[string]string{"commit": commit}}
	for _, wl := range sp.Workloads {
		for seed := uint64(1); seed <= 10; seed++ {
			r := record{Workload: wl.Name, Seed: seed}
			r.Metrics = map[string]value{"final_probe_loss": {Value: probeLoss + float64(seed)/1e4, Unit: "loss"}}
			for _, m := range sp.EndToEnd {
				v := (100 + float64(seed%3)) * f
				if m.Better == "higher" {
					v = (100 + float64(seed%3)) / f
				}
				r.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
			}
			rep.Runs = append(rep.Runs, r)
		}
		rep.Runs = append(rep.Runs, record{Workload: wl.Name, Seed: 1, Trace: 1, result: result{
			Metrics: map[string]value{"chat.initiated": {Value: chats, Unit: "count"}},
		}})
	}
	return rep
}

// TestCompare drives -compare on fabricated sessions: timings against the
// declared bounds, quality against its own, and exact numbers to the bit
// within one commit only.
func TestCompare(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	base := sessionReport(sp, "c1", 1, 0.025, 45)
	for _, c := range []struct {
		name string
		b    *report
		code int
		want string
	}{
		{"itself", base, 0, "identical"},
		{"half as fast", sessionReport(sp, "c2", 1.5, 0.025, 45), 1, "regressed"},
		{"other commit, summation order moved the loss a little and one count", sessionReport(sp, "c2", 1, 0.0255, 44), 0, "within"},
		{"other commit, loss a tenth worse", sessionReport(sp, "c2", 1, 0.0275, 45), 1, "regressed"},
		{"same commit, one count differs", sessionReport(sp, "c1", 1, 0.025, 44), 1, "not deterministic"},
	} {
		var out bytes.Buffer
		if code := compareRuns(&out, sp, base, c.b); code != c.code || !bytes.Contains(out.Bytes(), []byte(c.want)) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}

	// And from files, as the command line does.
	path := filepath.Join(t.TempDir(), "r.json")
	if err := base.write(path); err != nil {
		t.Fatal(err)
	}
	if code := compareReports(io.Discard, io.Discard, sp, path, path); code != 0 {
		t.Errorf("a report file against itself exits %d", code)
	}
}

func TestApart(t *testing.T) {
	for _, c := range []struct {
		name              string
		ours, theirs      []float64
		reached, resolved bool
	}{
		{"same", []float64{10, 10.1, 9.9}, []float64{10, 10.1, 9.9}, false, false},
		{"beyond the limit but overlapping", []float64{10.5, 10.6, 9.9}, []float64{10, 10.1, 9.8}, true, false},
		{"beyond the limit and disjoint", []float64{10.5, 10.6, 10.7}, []float64{10, 10.1, 9.8}, true, true},
		{"disjoint but too few", []float64{10.5, 10.6}, []float64{10, 10.1}, true, false},
	} {
		if _, reached, resolved := apart(c.ours, c.theirs, 3, true); reached != c.reached || resolved != c.resolved {
			t.Errorf("%s: reached %v resolved %v, want %v %v", c.name, reached, resolved, c.reached, c.resolved)
		}
	}
	if diff, _, _ := apart([]float64{9}, []float64{10}, 3, false); diff != 10 {
		t.Errorf("unsigned difference = %v, want 10", diff)
	}
}

// TestSensorSlowdown feeds the sensor's arithmetic fixed samples: a phase
// whose reference loop took four times the fastest sample ran twice slower.
func TestSensorSlowdown(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &sensor{
		at:   []time.Time{at(0), at(40), at(80), at(120), at(160)},
		took: []float64{1e-3, 4e-3, 4e-3, 5e-3, 1e-3},
	}
	if f := s.slowdown(at(30), at(130)); f != 2 {
		t.Errorf("slowdown = %v, want 2", f)
	}
	if f := s.slowdown(at(200), at(300)); f != 1 {
		t.Errorf("slowdown of a phase without samples = %v, want 1", f)
	}
	live := startSensor()
	time.Sleep(3 * sensorPeriod)
	live.close()
	if f := live.slowdown(t0, time.Now()); f < 1 {
		t.Errorf("live slowdown = %v, want ≥ 1", f)
	}
}

func TestAppendSpans(t *testing.T) {
	one := []span{{Name: "a", Parent: -1}, {Name: "b", Parent: 0}}
	all := appendSpans(appendSpans(nil, one), one)
	if all[3].Parent != 2 || all[2].Parent != -1 || all[1].Parent != 0 {
		t.Errorf("merged parents = %d %d %d %d, want -1 0 -1 2", all[0].Parent, all[1].Parent, all[2].Parent, all[3].Parent)
	}
	if one[1].Parent != 0 {
		t.Error("appendSpans changed its input")
	}
}
