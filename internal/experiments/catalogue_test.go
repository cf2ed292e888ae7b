package experiments

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lbchat/internal/eval"
	"lbchat/internal/metrics"
	"lbchat/internal/telemetry"
)

func mustLookup(t *testing.T, name string) *Experiment {
	t.Helper()
	x, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestCatalogueWellFormed(t *testing.T) {
	env := getEnv(t)
	seen := map[string]bool{}
	for i := range Catalogue {
		x := &Catalogue[i]
		if x.Name == "" || seen[x.Name] {
			t.Errorf("entry %d: name %q is empty or repeated", i, x.Name)
		}
		seen[x.Name] = true
		if x.Title == "" {
			t.Errorf("%s has no title", x.Name)
		}
		if x.report == nil {
			t.Errorf("%s has no reporter", x.Name)
		}
		if fixed := x.Name != ExpProtocol; fixed != (len(x.Arms) > 0) {
			t.Errorf("%s has %d arms", x.Name, len(x.Arms))
		}
		for _, a := range x.Arms {
			if a.Label == "" {
				t.Errorf("%s: unlabelled arm %+v", x.Name, a)
			}
			if _, err := env.newProtocol(a.Protocol); err != nil {
				t.Errorf("%s arm %q: %v", x.Name, a.Label, err)
			}
		}
	}
}

// TestCatalogueRunKeys resolves every arm of the catalogue against the test
// env. Entries that read one lineup share its arm slice; its 44 arms are
// 36 runs. The seven arms that are the default LbChat run under another
// label land on fig2a's or fig2b's LbChat key, fig3's SCO is Table VII's
// lossless arm, and every other arm is a run of its own.
func TestCatalogueRunKeys(t *testing.T) {
	env := getEnv(t)
	lossless := env.runKey(Arm{Protocol: ProtoLbChat, Lossless: true})
	lossy := env.runKey(Arm{Protocol: ProtoLbChat})
	want := map[string]string{
		"fig2a/LbChat": lossless, "fig2b/LbChat": lossy,
		"fig3/LbChat": lossless, "routeshare/LbChat": lossy, "methods/layered": lossless,
		"adaptive/fixed |C|": lossless, "hetero/20-31 Mbps": lossless, "quant/top-k": lossless,
		"faultsweep/no faults/LbChat": lossy,
		"fig3/SCO":                    env.runKey(Arm{Protocol: ProtoSCO, Lossless: true}),
	}
	arms, keys := map[*Arm]bool{}, map[string]bool{}
	for _, x := range Catalogue {
		for i, a := range x.Arms {
			arms[&x.Arms[i]] = true
			key := env.runKey(a)
			keys[key] = true
			name := x.Name + "/" + a.Label
			if x.Name == "faultsweep" {
				name += "/" + string(a.Protocol)
			}
			if w, ok := want[name]; ok && key != w {
				t.Errorf("%s does not resolve to the run it repeats", name)
			}
		}
	}
	if len(arms) != 44 || len(keys) != 36 {
		t.Errorf("catalogue: %d arms resolve to %d distinct runs, want 44 and 36", len(arms), len(keys))
	}
}

// TestRunKeyCoversConfigAndScale perturbs every field of core.Config (one
// level into its nested structs) and of Scale: each must change the key but
// the sink, or a field added later could alias two different runs.
func TestRunKeyCoversConfigAndScale(t *testing.T) {
	base := getEnv(t)
	arm := Arm{Protocol: ProtoLbChat}
	want := base.runKey(arm)
	check := func(name string, mutate func(e *Env)) {
		e := *base
		e.Cfg.PsiSamples = slices.Clone(e.Cfg.PsiSamples)
		mutate(&e)
		if changed := e.runKey(arm) != want; changed != (name != "Telemetry") {
			t.Errorf("perturbing %s: key changed = %v", name, changed)
		}
	}
	fields := func(v reflect.Value) []string {
		var names []string
		for i := 0; i < v.NumField(); i++ {
			names = append(names, v.Type().Field(i).Name)
		}
		return names
	}
	perturbAll := func(prefix string, root func(e *Env) reflect.Value) {
		for _, name := range fields(root(base)) {
			if f := root(base).FieldByName(name); f.Kind() == reflect.Struct {
				for _, sub := range fields(f) {
					check(prefix+name+"."+sub, func(e *Env) { perturb(t, root(e).FieldByName(name).FieldByName(sub)) })
				}
				continue
			}
			check(prefix+name, func(e *Env) { perturb(t, root(e).FieldByName(name)) })
		}
	}
	perturbAll("", func(e *Env) reflect.Value { return reflect.ValueOf(&e.Cfg).Elem() })
	perturbAll("Scale.", func(e *Env) reflect.Value { return reflect.ValueOf(&e.Scale).Elem() })
	check("user sink", func(e *Env) { e.Telemetry = telemetry.NewMemorySink() })
	for _, a := range []Arm{{Protocol: ProtoSCO}, {Protocol: ProtoLbChat, Lossless: true}} {
		if base.runKey(a) == want {
			t.Errorf("arm %+v shares the lossy LbChat key", a)
		}
	}
}

// perturb sets a settable field to a value other than its own.
func perturb(t *testing.T, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int:
		f.SetInt(f.Int() + 1)
	case reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.5)
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Slice:
		f.Index(0).SetFloat(f.Index(0).Float() + 0.5)
	case reflect.Interface:
		f.Set(reflect.ValueOf(telemetry.NewMemorySink()))
	default:
		t.Fatalf("no perturbation for a %s field", f.Kind())
	}
}

// The parity oracle: the hand-written table assembly each experiment had
// before the catalogue, kept as the reference the catalogue's reporters are
// compared against cell for cell and label for label.

// paperLineup is the oracle's own spelling of the Fig. 2 lineup.
var paperLineup = []ProtocolName{ProtoProxSkip, ProtoRSUL, ProtoDFLDDS, ProtoDP, ProtoLbChat}

func oracleSuccessTable(title string, order []ProtocolName, rates map[ProtocolName]map[eval.Condition]float64) *metrics.Table {
	cols := make([]string, len(order))
	for i, n := range order {
		cols[i] = string(n)
	}
	tbl := metrics.NewTable(title, cols...)
	for _, cond := range eval.Conditions {
		vals := make([]float64, len(order))
		for i, n := range order {
			vals[i] = rates[n][cond]
		}
		tbl.AddRow(cond.String(), vals...)
	}
	return tbl
}

// oracleBenchmarkTable is how lbchat-bench assembled Tables II/III from the
// shared Fig. 2 runs.
func oracleBenchmarkTable(e *Env, runs []*ProtocolRun) *metrics.Table {
	rates := make(map[ProtocolName]map[eval.Condition]float64, len(runs))
	for _, r := range runs {
		rates[r.Name] = e.EvalFleet(r.Fleet)
	}
	return oracleSuccessTable("", paperLineup, rates)
}

func oracleAblationTable(e *Env, title string, runs []*ProtocolRun) *metrics.Table {
	wo, w := e.EvalFleet(runs[0].Fleet), e.EvalFleet(runs[1].Fleet)
	tbl := metrics.NewTable(title, "W/O wireless loss", "W wireless loss")
	for _, cond := range eval.Conditions {
		tbl.AddRow(cond.String(), wo[cond], w[cond])
	}
	return tbl
}

func oracleRouteSharing(runs []*ProtocolRun) *metrics.Table {
	withPrio, without := runs[0], runs[1]
	tbl := metrics.NewTable("Route-sharing ablation (W wireless loss)",
		"LbChat", "LbChat-NoPrio")
	tbl.AddRow("final probe loss (x1000)", 1000*withPrio.Curve.Final(), 1000*without.Curve.Final())
	tbl.AddRow("model receive rate (%)", 100*withPrio.Recv.Rate(), 100*without.Recv.Rate())
	tbl.AddRow("transfers attempted", float64(withPrio.Recv.Attempts), float64(without.Recv.Attempts))
	return tbl
}

func oracleCoresetMethods(runs []*ProtocolRun) *metrics.Table {
	finals := make([]float64, len(runs))
	rates := make([]float64, len(runs))
	for i, run := range runs {
		finals[i] = 1000 * run.Curve.Final()
		rates[i] = 100 * run.Recv.Rate()
	}
	tbl := metrics.NewTable("Coreset construction methods (LbChat)",
		"layered", "sensitivity", "clustering", "uniform")
	tbl.AddRow("final probe loss (x1000)", finals...)
	tbl.AddRow("model receive rate (%)", rates...)
	return tbl
}

func oracleFaultSweep(runs []*ProtocolRun) *metrics.Table {
	labels := []string{"no faults", "light bursts", "heavy bursts",
		"light bursts + churn", "heavy bursts + churn"}
	tbl := metrics.NewTable("FaultSweep: final probe loss (x1000), W wireless loss",
		"LbChat", "LbChat-NoResume")
	for i, label := range labels {
		lb, nr := runs[2*i], runs[2*i+1]
		tbl.AddRow(label, 1000*lb.Curve.Final(), 1000*nr.Curve.Final())
	}
	return tbl
}

func oracleReceiveRates(runs []*ProtocolRun) string {
	rates := make(map[ProtocolName]float64, len(runs))
	for _, r := range runs {
		rates[r.Name] = 100 * r.Recv.Rate()
	}
	out := "Successful model receiving rate (%)\n"
	for _, name := range paperLineup {
		if r, ok := rates[name]; ok {
			out += fmt.Sprintf("  %-10s %5.1f\n", name, r)
		}
	}
	return out
}

func oraclePlot(runs []*ProtocolRun) string {
	curves := make([]*metrics.Curve, len(runs))
	for i := range runs {
		curves[i] = &runs[i].Curve
	}
	return metrics.PlotCurves(72, 18, curves...)
}

func oracleFig2(runs []*ProtocolRun) string {
	out := oraclePlot(runs)
	for _, r := range runs {
		out += r.Curve.Render() + "\n"
	}
	return out
}

func oracleFig3(runs []*ProtocolRun) (text string, ratio float64) {
	lb, sco := runs[0], runs[1]
	ratio = ConvergenceRatio(&lb.Curve, &sco.Curve)
	return oraclePlot(runs) + lb.Curve.Render() + sco.Curve.Render() +
		fmt.Sprintf("SCO convergence slowdown vs LbChat: %.2fx (paper: 1.5-1.8x)\n", ratio), ratio
}

// memoisedRuns returns goldenRun's memoised run for every arm of an entry
// whose arms all train the environment's own config — the runs Run would
// train, without training them again.
func memoisedRuns(t *testing.T, x *Experiment) []*ProtocolRun {
	t.Helper()
	runs := make([]*ProtocolRun, len(x.Arms))
	for i, a := range x.Arms {
		if a.Config != nil {
			t.Fatalf("%s arm %q mutates the config; goldenRun has no such run", x.Name, a.Label)
		}
		runs[i], _ = goldenRun(t, a.Protocol, a.Lossless)
	}
	return runs
}

// sameTable compares title, column labels, row labels and the bits of every
// cell.
func sameTable(t *testing.T, name string, got, want *metrics.Table) {
	t.Helper()
	if got.Title != want.Title || !slices.Equal(got.Columns, want.Columns) || !slices.Equal(got.Rows(), want.Rows()) {
		t.Fatalf("%s: catalogue table differs from the oracle\n--- catalogue\n%s--- oracle\n%s", name, got.Render(), want.Render())
	}
	for _, row := range want.Rows() {
		for _, col := range want.Columns {
			if g, w := got.Value(row, col), want.Value(row, col); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: cell (%s, %s) = %v, oracle %v", name, row, col, g, w)
			}
		}
	}
}

// TestCatalogueMatchesOracle checks one entry or more of every reporter
// shape against the pre-catalogue assembly, on runs the package has already
// trained. Tables II/III never ran through Run before the catalogue; here
// they equal what lbchat-bench computed from the shared Fig. 2 runs.
func TestCatalogueMatchesOracle(t *testing.T) {
	env := getEnv(t)

	// Conditions × arms.
	for _, name := range []string{"tab2", "tab3"} {
		x := mustLookup(t, name)
		runs := memoisedRuns(t, x)
		res := x.Report(env, runs)
		sameTable(t, name, res.Table, oracleBenchmarkTable(env, runs))
		if res.Text != res.Table.Render() {
			t.Errorf("%s: text is not the rendered table", name)
		}
	}
	x := mustLookup(t, "tab5")
	runs := memoisedRuns(t, x)
	sameTable(t, "tab5", x.Report(env, runs).Table,
		oracleAblationTable(env, "Table V: driving success rate with equal comp. ratio (%)", runs))

	// Scalar rows × arms, through Run.
	res := entryResult(t, "routeshare")
	sameTable(t, "routeshare", res.Table, oracleRouteSharing(res.Runs))
	res = entryResult(t, "methods")
	sameTable(t, "methods", res.Table, oracleCoresetMethods(res.Runs))

	// Cells × protocols pivot. The reporter reads only each run's final
	// loss, so synthetic runs stand in for ten co-simulations.
	x = mustLookup(t, "faultsweep")
	runs = make([]*ProtocolRun, len(x.Arms))
	for i := range runs {
		runs[i] = &ProtocolRun{}
		runs[i].Curve.Add(0, 1)
		runs[i].Curve.Add(100, 0.01*float64(i+1))
	}
	sameTable(t, "faultsweep", x.Report(env, runs).Table, oracleFaultSweep(runs))

	// Receive rates and curves: the text is the artefact.
	x = mustLookup(t, "recvrate")
	runs = memoisedRuns(t, x)
	res = x.Report(env, runs)
	if want := oracleReceiveRates(runs); res.Text != want {
		t.Errorf("recvrate text:\n%s\noracle:\n%s", res.Text, want)
	}
	for _, r := range runs {
		if got := res.Table.Value("model receive rate (%)", string(r.Name)); r.Recv.Attempts > 0 && got != 100*r.Recv.Rate() {
			t.Errorf("recvrate table cell for %s = %v, want %v", r.Name, got, 100*r.Recv.Rate())
		}
	}
	x = mustLookup(t, "fig2b")
	if got, want := x.Report(env, runs).Text, oracleFig2(runs); got != want {
		t.Errorf("fig2b text differs from the oracle:\n%s\noracle:\n%s", got, want)
	}
	x = mustLookup(t, "fig3")
	runs = memoisedRuns(t, x)
	res = x.Report(env, runs)
	wantText, ratio := oracleFig3(runs)
	if res.Text != wantText {
		t.Errorf("fig3 text differs from the oracle:\n%s\noracle:\n%s", res.Text, wantText)
	}
	if got := res.Table.Value("convergence slowdown vs LbChat (x)", "SCO"); !math.IsNaN(ratio) && got != ratio {
		t.Errorf("fig3 slowdown cell = %v, want %v", got, ratio)
	}
	if got := res.Table.Value("final probe loss (x1000)", "LbChat"); got != 1000*runs[0].Curve.Final() {
		t.Errorf("fig3 LbChat final loss cell = %v", got)
	}
}

// The experiment names a doc lists: the first cell of every row of
// DESIGN.md §5's table, and every name on README's -exp lines.
var (
	designRow  = regexp.MustCompile("(?m)^\\| `([a-z0-9]+)` \\|")
	readmeExp  = regexp.MustCompile("-exp ([a-z0-9,]+)")
	designSect = regexp.MustCompile(`(?s)\n## 5\. .*?\n## 6\. `)
)

// TestDocsListCatalogue pins the two hand-written lists that remain — the
// DESIGN.md §5 experiment index and README's -exp lines — to the catalogue:
// DESIGN names every entry, README every entry lbchat-bench accepts (all but
// the single-protocol run), and neither names anything else.
func TestDocsListCatalogue(t *testing.T) {
	var all, bench []string
	for _, x := range Catalogue {
		all = append(all, x.Name)
		if x.Name != ExpProtocol {
			bench = append(bench, x.Name)
		}
	}
	slices.Sort(all)
	slices.Sort(bench)

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range designRow.FindAllStringSubmatch(designSect.FindString(string(design)), -1) {
		got = append(got, m[1])
	}
	slices.Sort(got)
	if !slices.Equal(got, all) {
		t.Errorf("DESIGN.md §5 lists %v\ncatalogue has %v", got, all)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range readmeExp.FindAllStringSubmatch(string(readme), -1) {
		for _, tok := range strings.Split(m[1], ",") {
			if tok != "all" && tok != "" {
				seen[tok] = true
			}
		}
	}
	got = metrics.SortedKeys(seen)
	if !slices.Equal(got, bench) {
		t.Errorf("README -exp lines list %v\nlbchat-bench accepts %v", got, bench)
	}
}
