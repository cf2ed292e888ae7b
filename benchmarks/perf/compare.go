package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactUnits are the units of per-layer metrics the program determines
// exactly from the seed: two runs of one commit at one seed must agree on
// them to the last bit.
var exactUnits = map[string]bool{"count": true, "loss": true, "fraction": true, "points": true, "bytes": true}

// qualityBounds are what a run's outputs may lose between two commits
// before -compare calls it a regression: a change to float summation order
// or to tie-breaking moves these numbers without being wrong, a change that
// buys speed with accuracy moves them further. Relative bounds are a share
// of a's median, absolute ones in the metric's unit.
var qualityBounds = []struct {
	name     string
	bound    float64
	relative bool
}{
	{"final_probe_loss", 0.05, true},
	{"model_recv_rate", 0.05, false},
	{"success_rate_mean", 10, false},
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// loss is the share of a's median by which b's median is worse.
func loss(m specMetric, a, b []float64) float64 {
	l := ratio(median(b)-median(a), median(a))
	if m.Better == "higher" {
		return -l
	}
	return l
}

// verdict applies the benchmark's own rule to one (metric, workload) row:
// a is the parent's runs, b the change's, paired in run order.
//
//   - regressed: b's median is worse than a's by more than the bound.
//   - unresolved: either side's quartile spread is wider than the bound, so
//     the medians cannot say — unless every run of one side beats every run
//     of the other.
//   - improved: b wins at least nine tenths of the pairs, ties counting for
//     neither, and the medians differ by more than a's own quartile spread.
//   - unchanged: none of the above.
func verdict(m specMetric, a, b []float64) string {
	worse := func(x, y float64) bool { // x is worse than y
		if m.Better == "higher" {
			return x < y
		}
		return x > y
	}
	medA, medB := median(a), median(b)
	q1A, q3A := quartiles(a)
	q1B, q3B := quartiles(b)
	spreadA, spreadB := ratio(q3A-q1A, medA), ratio(q3B-q1B, medB)
	loA, hiA := minMax(a)
	loB, hiB := minMax(b)
	allBetter := (m.Better == "higher" && loB > hiA) || (m.Better != "higher" && hiB < loA)
	allWorse := (m.Better == "higher" && hiB < loA) || (m.Better != "higher" && loB > hiA)
	lost := loss(m, a, b)
	if spreadA > m.Bound || spreadB > m.Bound {
		switch {
		case allBetter:
			return "improved"
		case allWorse && lost > m.Bound:
			return "regressed"
		}
		return "unresolved"
	}
	if lost > m.Bound {
		return "regressed"
	}
	wins, losses := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case worse(a[i], b[i]):
			wins++
		case worse(b[i], a[i]):
			losses++
		}
	}
	gap := medB - medA
	if gap < 0 {
		gap = -gap
	}
	if worse(medA, medB) && wins+losses > 0 && float64(wins) >= 0.9*float64(wins+losses) && gap > q3A-q1A {
		return "improved"
	}
	return "unchanged"
}

// compareReports prints the summaries of two -out files and compares them;
// see compareRuns.
func compareReports(stdout, stderr io.Writer, sp *spec, pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	printSummary(stdout, sp, "a = "+pathA, a)
	printSummary(stdout, sp, "b = "+pathB, b)
	fmt.Fprintln(stdout)
	return compareRuns(stdout, sp, a, b)
}

// compareRuns prints one row per (end-to-end metric, workload) with both
// sides' medians and quartiles and the verdict; then one row per (quality
// metric, workload) over the same untraced runs, held to qualityBounds; then
// how many exact per-layer metrics of traced runs at the same seed agree.
// Two reports of one known commit must agree on every exact number to the
// last bit. It returns non-zero on a regressed or unresolved row, a quality
// loss beyond its bound, or a mismatch within one commit.
func compareRuns(stdout io.Writer, sp *spec, a, b *report) int {
	sameCommit := a.Header["commit"] == b.Header["commit"] && a.Header["commit"] != unknownCommit && a.Header["commit"] != ""
	fmt.Fprintf(stdout, "a: commit %s   b: commit %s\n", a.Header["commit"], b.Header["commit"])
	bad := 0
	fmt.Fprintf(stdout, "%-12s %-18s %-6s | %11s %11s %11s | %11s %11s %11s | %7s %6s  %s\n",
		"workload", "metric", "better", "a.median", "a.q1", "a.q3", "b.median", "b.q1", "b.q3", "b vs a", "bound", "verdict")
	row := func(wl string, m specMetric, xa, xb []float64, bound, v string) {
		q1A, q3A := quartiles(xa)
		q1B, q3B := quartiles(xb)
		fmt.Fprintf(stdout, "%-12s %-18s %-6s | %11.5g %11.5g %11.5g | %11.5g %11.5g %11.5g | %+6.1f%% %6s  %s\n",
			wl, m.Name, m.Better, median(xa), q1A, q3A, median(xb), q1B, q3B,
			100*ratio(median(xb)-median(xa), median(xa)), bound, v)
	}
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			xa, xb := collect(a.Runs, wl.Name, m.Name, 0), collect(b.Runs, wl.Name, m.Name, 0)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(stdout, "%-12s %-18s missing on one side\n", wl.Name, m.Name)
				bad++
				continue
			}
			v := verdict(m, xa, xb)
			if v == "regressed" || v == "unresolved" {
				bad++
			}
			row(wl.Name, m, xa, xb, fmt.Sprintf("%.0f%%", 100*m.Bound), v)
		}
	}

	// Quality: every untraced run carries these, so they are compared over
	// all seeds, by median.
	for _, wl := range sp.Workloads {
		for _, q := range qualityBounds {
			m, ok := sp.perLayer(q.name)
			xa, xb := collect(a.Runs, wl.Name, q.name, 0), collect(b.Runs, wl.Name, q.name, 0)
			if !ok || len(xa) == 0 || len(xb) == 0 {
				continue
			}
			// b's median is worse than a's by this much, in the metric's unit.
			lost, bound := median(xb)-median(xa), fmt.Sprintf("%g", q.bound)
			if m.Better == "higher" {
				lost = -lost
			}
			if q.relative {
				lost, bound = ratio(lost, median(xa)), fmt.Sprintf("%.0f%%", 100*q.bound)
			}
			v := "within"
			switch {
			case equal(xa, xb):
				v = "identical"
			case lost > q.bound:
				v = "regressed"
				bad++
			}
			row(wl.Name, m, xa, xb, bound, v)
		}
	}

	// Exact metrics: pair the traced runs by workload and seed.
	compared, differ := 0, 0
	for _, ra := range a.Runs {
		if ra.Trace != 1 {
			continue
		}
		for _, rb := range b.Runs {
			if rb.Trace != 1 || rb.Workload != ra.Workload || rb.Seed != ra.Seed {
				continue
			}
			for _, m := range sp.PerLayer {
				if !exactUnits[m.Unit] {
					continue
				}
				compared++
				if va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value; va != vb {
					differ++
					fmt.Fprintf(stdout, "exact metric differs: %s seed=%d %s: a=%v b=%v\n", ra.Workload, ra.Seed, m.Name, va, vb)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "exact per-layer metrics: %d compared, %d differ", compared, differ)
	switch {
	case sameCommit && differ > 0:
		fmt.Fprintln(stdout, " — within one commit: the program is not deterministic")
		bad++
	case sameCommit:
		fmt.Fprintln(stdout, " (one commit: they must not)")
	default:
		fmt.Fprintln(stdout, " (two commits: informational; the quality rows decide)")
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
