// Command perf is the repository's end-to-end benchmark. It runs four named
// workloads against the public API of lbchat/internal/..., prints every
// metric declared in BENCHMARK.json by name with its unit, checks that the
// outputs are correct, and — in a separate traced run — times the calls
// into each layer from outside to produce the per-layer ledger.
//
//	perf -workload paper-lossy -seed 7 -seconds 20 -trace 0   one run, one result line
//	perf -runs 10 -out a.json                                  every workload, own child process each
//	perf -runs 10 -pair other/perf -out a.json -pair-out b.json   two binaries, seed by seed, compared
//	perf -compare a.json b.json                                verdict per (metric, workload)
//
// See benchmarks/README.md for the workloads, the metrics and the ground
// rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"lbchat/internal/tensor"
)

// spec mirrors BENCHMARK.json: the one place metric names, units,
// directions and bounds are declared. The harness emits exactly what it
// lists.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no workloads or metrics", path)
	}
	return &s, nil
}

// perLayer finds a per-layer metric's declaration by name.
func (s *spec) perLayer(name string) (specMetric, bool) {
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a single-workload run prints last on standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as -out stores it. Its metrics are everything the run
// computed: an untraced run's hold the end-to-end metrics and the counts and
// quality numbers every pass yields, not only what its result line printed.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// report is the -out file: the header that identifies the machine and
// commit, then every run.
type report struct {
	Header map[string]string `json:"header"`
	Runs   []record          `json:"runs"`
}

func (r *report) write(path string) error {
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	runs     int
	out      string
	pair     string
	pairOut  string
	traceOut string
	specPath string
	tmpDir   string
	compare  bool
	// log receives a run's human-readable lines.
	log io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this one workload in-process; empty runs all, each in its own child process")
	fs.Uint64Var(&o.seed, "seed", 7, "the workload input: model init, bandwidths, batch order, radio draws, trial traffic, the fleet-scan fleet")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured-phase budget per run; 0 takes run_seconds from the spec")
	fs.IntVar(&o.trace, "trace", 0, "0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	fs.IntVar(&o.runs, "runs", 1, "all-workloads mode: runs per workload, at seeds seed, seed+1, ...")
	fs.StringVar(&o.out, "out", "", "write every run, with all it computed, to this JSON file")
	fs.StringVar(&o.pair, "pair", "", "all-workloads mode: a second perf binary (another commit's, or this one for the repeatability check) run seed by seed beside this one, the two taking turns to go first")
	fs.StringVar(&o.pairOut, "pair-out", "", "all-workloads mode: write the -pair binary's runs to this JSON file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this JSON file at exit")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark declaration to emit and compare against")
	fs.StringVar(&o.tmpDir, "tmpdir", ".bench_build", "directory for the fleet-scan trace file")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files: perf -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perf: -compare takes two report files")
			return 2
		}
		return compareReports(stdout, stderr, sp, fs.Arg(0), fs.Arg(1))
	case o.workload == "":
		return runAll(stdout, stderr, sp, o)
	default:
		return runOne(stdout, stderr, sp, o)
	}
}

// unknownCommit is the header's commit when the binary carries no VCS
// stamp: it was built outside a git work tree.
const unknownCommit = "unknown"

// header identifies what produced a set of numbers. The commit is the one
// the Go toolchain stamped into the binary, marked when the work tree had
// uncommitted changes.
func header(o options) map[string]string {
	commit := unknownCommit
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && commit != unknownCommit {
			commit += "+dirty"
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       fmt.Sprint(o.seed),
		"seconds":    fmt.Sprint(o.seconds),
	}
}

func printHeader(w io.Writer, h map[string]string) {
	fmt.Fprintf(w, "# lbchat perf  nproc=%s GOMAXPROCS=%s %s commit=%s seed=%s seconds=%s workers=1\n",
		h["nproc"], h["gomaxprocs"], h["go"], h["commit"], h["seed"], h["seconds"])
}

// runOne executes one workload in this process and prints its result line
// last. It exits non-zero when a correctness check failed.
func runOne(stdout, stderr io.Writer, sp *spec, o options) int {
	// One worker everywhere: the numbers measure the program, not the
	// scheduler of a shared two-core box.
	tensor.SetWorkers(1)
	o.log = stdout
	sz := benchSizing()
	w, err := newWorkload(o.workload, sz, o)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	head := header(o)
	printHeader(stdout, head)
	rec := newRecorder(o.trace == 1, o.workload)
	out, err := measure(w, sz, rec, o)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, rec.spans); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	declared := sp.EndToEnd
	if o.trace == 1 {
		declared = sp.PerLayer
	}
	res := out.result(declared)
	fmt.Fprintf(stdout, "%-34s %16s %-8s %s\n", "metric", "value", "unit", "feeds")
	for _, m := range declared {
		fmt.Fprintf(stdout, "%-34s %16.6g %-8s %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit, feeds[m.Name].metric)
	}
	for _, c := range out.checks {
		if !c.ok || strings.HasPrefix(c.detail, "unresolved") {
			fmt.Fprintf(stdout, "CHECK %s: %s\n", c.name, c.detail)
		}
	}
	if o.out != "" {
		// The record keeps everything the run computed, not only the list
		// its result line is held to.
		all := res
		all.Metrics = map[string]value{}
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			if v, ok := out.metrics[m.Name]; ok {
				all.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
			}
		}
		rep := report{Header: head, Runs: []record{{Workload: o.workload, Seed: o.seed, Trace: o.trace, result: all}}}
		if err := rep.write(o.out); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// side is one binary of an all-workloads session and the runs it made.
type side struct {
	exe, out string
	rep      report
}

// runAll runs every declared workload — untraced at each seed, traced at
// the first — each run in its own child process so peak RSS and GC state do
// not leak between them, one after the other so they do not compete for
// the two cores. With -pair a second binary makes the same runs, seed by
// seed beside this one and going first every other seed, so that the box's
// drift falls on both sides alike; the two sets are then compared.
func runAll(stdout, stderr io.Writer, sp *spec, o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	sides := []*side{{exe: self, out: o.out}}
	if o.pair != "" {
		sides = append(sides, &side{exe: o.pair, out: o.pairOut})
	}
	for _, sd := range sides {
		// The session's own header; each child adds the commit of its binary.
		sd.rep.Header = header(o)
		sd.rep.Header["runs"] = fmt.Sprint(o.runs)
		sd.rep.Header["commit"] = unknownCommit
	}
	printHeader(stdout, header(o))
	var spans []span
	failed := 0
	for _, wl := range sp.Workloads {
		for i := 0; i < o.runs; i++ {
			seed := o.seed + uint64(i)
			traces := []int{0}
			if i == 0 {
				traces = []int{0, 1}
			}
			for _, tr := range traces {
				for k := range sides {
					sd := sides[(k+i)%len(sides)]
					r, got, err := runChild(stdout, stderr, sd.exe, wl.Name, seed, tr, o, sd == sides[0] && o.traceOut != "")
					if err != nil {
						fmt.Fprintf(stderr, "perf: %s seed=%d trace=%d: %v\n", wl.Name, seed, tr, err)
						failed++
						continue
					}
					failed += r.Runs[0].Failed
					sd.rep.Header["commit"] = r.Header["commit"]
					sd.rep.Runs = append(sd.rep.Runs, r.Runs...)
					spans = appendSpans(spans, got)
				}
			}
		}
	}
	for _, sd := range sides {
		if sd.rep.Header["commit"] == unknownCommit {
			fmt.Fprintf(stderr, "perf: warning: %s carries no VCS stamp (built outside a git work tree): these numbers name no commit\n", sd.exe)
		}
		printSummary(stdout, sp, sd.exe, &sd.rep)
		if sd.out != "" {
			if err := sd.rep.write(sd.out); err != nil {
				fmt.Fprintln(stderr, "perf:", err)
				return 1
			}
		}
	}
	if len(sides) == 2 {
		fmt.Fprintf(stdout, "\n== a = %s, b = %s ==\n", sides[0].exe, sides[1].exe)
		if compareRuns(stdout, sp, &sides[0].rep, &sides[1].rep) != 0 {
			failed++
		}
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, spans); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "\nops_failed=%d\n", failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// runChild makes one run in a child process, echoes what it printed and
// returns the record — and, when asked, the spans — it wrote.
func runChild(stdout, stderr io.Writer, exe, workload string, seed uint64, tr int, o options, wantSpans bool) (*report, []span, error) {
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		return nil, nil, err
	}
	part, err := os.CreateTemp(o.tmpDir, "run-*.json")
	if err != nil {
		return nil, nil, err
	}
	part.Close()
	defer os.Remove(part.Name())
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(tr),
		"-spec", o.specPath, "-tmpdir", o.tmpDir, "-out", part.Name(),
	}
	spansPath := part.Name() + ".spans"
	if tr == 1 && wantSpans {
		args = append(args, "-trace-out", spansPath)
		defer os.Remove(spansPath)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	printed, runErr := cmd.Output()
	fmt.Fprintf(stdout, "\n== %s seed=%d trace=%d %s ==\n%s", workload, seed, tr, exe, printed)
	r, err := loadReport(part.Name())
	if err != nil || len(r.Runs) != 1 {
		return nil, nil, fmt.Errorf("no result (%v): %v", runErr, err)
	}
	var got []span
	if tr == 1 && wantSpans {
		raw, err := os.ReadFile(spansPath)
		if err == nil {
			err = json.Unmarshal(raw, &got)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("reading spans: %w", err)
		}
	}
	return r, got, nil
}

// printSummary prints one row per (end-to-end metric, workload) — median,
// quartiles, extremes and n over the untraced runs — and then the traced
// runs' per-layer values, one column per workload, each with the end-to-end
// metric it feeds and the workloads it should move it on.
func printSummary(w io.Writer, sp *spec, from string, rep *report) {
	runs := rep.Runs
	fmt.Fprintf(w, "\n== %s: commit %s, %s runs from seed %s ==\n", from, rep.Header["commit"], rep.Header["runs"], rep.Header["seed"])
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %12s %12s %12s %3s %s\n", "workload", "metric", "median", "q1", "q3", "min", "max", "n", "unit")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			xs := collect(runs, wl.Name, m.Name, 0)
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			lo, hi := minMax(xs)
			fmt.Fprintf(w, "%-14s %-14s %12.5g %12.5g %12.5g %12.5g %12.5g %3d %s\n", wl.Name, m.Name, median(xs), q1, q3, lo, hi, len(xs), m.Unit)
		}
	}
	fmt.Fprintf(w, "\n%-32s", "per-layer, traced run")
	for _, wl := range sp.Workloads {
		fmt.Fprintf(w, " %13s", wl.Name)
	}
	fmt.Fprintf(w, " %-8s %s\n", "unit", "feeds (on)")
	for _, m := range sp.PerLayer {
		fmt.Fprintf(w, "%-32s", m.Name)
		for _, wl := range sp.Workloads {
			if xs := collect(runs, wl.Name, m.Name, 1); len(xs) > 0 {
				fmt.Fprintf(w, " %13.6g", xs[0])
			} else {
				fmt.Fprintf(w, " %13s", "-")
			}
		}
		fmt.Fprintf(w, " %-8s %s (%s)\n", m.Unit, feeds[m.Name].metric, feeds[m.Name].on)
	}
}

// collect returns one metric's values over the runs of a workload, in run
// order.
func collect(runs []record, workload, metric string, trace int) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}
