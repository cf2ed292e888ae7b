package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"lbchat/internal/core"
	"lbchat/internal/coreset"
	"lbchat/internal/eval"
	"lbchat/internal/faults"
	"lbchat/internal/metrics"
	"lbchat/internal/parallel"
)

// ExpProtocol is the one catalogue entry Run treats by name: it trains one
// fleet under Spec.Protocol and Spec.Lossless (the default experiment; what
// lbchat-sim runs). Every other entry is arms plus a reporter.
const ExpProtocol = "protocol"

// Arm is one training run of an experiment: a protocol in a wireless regime
// under one engine-config mutation.
type Arm struct {
	// Label names the arm in the experiment's table.
	Label    string
	Protocol ProtocolName
	Lossless bool
	// Config, when non-nil, adjusts the run's copy of the environment's
	// engine config.
	Config func(*core.Config)
}

// Experiment is one catalogue entry: the arms it trains and how their runs
// are reported.
type Experiment struct {
	// Name is the lbchat-bench -exp token and the Spec.Experiment value.
	Name string
	// Title heads the experiment's output; Caption is the first line of its
	// table (empty where the paper layout has none).
	Title, Caption string
	// Paper marks the artefacts of the paper's §IV: what "-exp all" means.
	Paper bool
	// Arms are the training runs, in table order. Empty for ExpProtocol,
	// whose one arm is the Spec's.
	Arms []Arm

	report reporter
}

// The Fig. 2 / §IV-C / Tables II–III lineup, in the paper's column order:
// fig2a and tab2 read the lossless runs, fig2b, recvrate and tab3 the lossy.
var (
	armsLossy    = protocols(ProtoProxSkip, ProtoRSUL, ProtoDFLDDS, ProtoDP, ProtoLbChat)
	armsLossless = lossless(armsLossy)
)

// protocols returns one lossy default-config arm per protocol, labelled by
// its name.
func protocols(names ...ProtocolName) []Arm {
	arms := make([]Arm, len(names))
	for i, name := range names {
		arms[i] = Arm{Label: string(name), Protocol: name}
	}
	return arms
}

// lossless returns the arms with the wireless loss model off.
func lossless(arms []Arm) []Arm {
	arms = slices.Clone(arms)
	for i := range arms {
		arms[i].Lossless = true
	}
	return arms
}

// lbchat returns the arms with LbChat as their protocol: the studies that
// vary one engine-config knob under it.
func lbchat(arms []Arm) []Arm {
	for i := range arms {
		arms[i].Protocol = ProtoLbChat
	}
	return arms
}

// bothRegimes is the arm pair of Tables V–VII: one variant with and without
// wireless loss.
func bothRegimes(name ProtocolName) []Arm {
	return []Arm{
		{Label: "W/O wireless loss", Protocol: name, Lossless: true},
		{Label: "W wireless loss", Protocol: name},
	}
}

func coresetTimes10(c *core.Config) { c.CoresetSize *= 10 }
func coresetTenth(c *core.Config)   { c.CoresetSize = max(c.CoresetSize/10, 2) }

func coresetMethods(methods ...coreset.Method) []Arm {
	arms := make([]Arm, len(methods))
	for i, m := range methods {
		arms[i] = Arm{Label: m.String(), Config: func(c *core.Config) { c.CoresetMethod = m }}
	}
	return arms
}

// faultSweepArms is the robustness grid in row-major order: each fault
// setting trains full LbChat (session resumption on) against the
// restart-on-reencounter arm (Variant.NoResumption), so the table isolates
// what the DESIGN.md §9 resilience machinery buys as conditions degrade.
// Each arm sets its own fault config, overriding the env's Cfg.Faults.
func faultSweepArms() []Arm {
	noChurn := func(c faults.Config) faults.Config {
		c.ChurnPerHour, c.AwayMeanSecs = 0, 0
		return c
	}
	cells := []struct {
		label string
		cfg   faults.Config
	}{
		{"no faults", faults.Config{}},
		{"light bursts", noChurn(faults.Light())},
		{"heavy bursts", noChurn(faults.Heavy())},
		{"light bursts + churn", faults.Light()},
		{"heavy bursts + churn", faults.Heavy()},
	}
	var arms []Arm
	for _, cell := range cells {
		for _, p := range []ProtocolName{ProtoLbChat, ProtoNoResume} {
			arms = append(arms, Arm{Label: cell.label, Protocol: p,
				Config: func(c *core.Config) { c.Faults = cell.cfg }})
		}
	}
	return arms
}

// Catalogue lists every experiment, in the order lbchat-bench runs a
// selection: the paper's evaluation (§IV) as published, then the extension
// studies, the scale workload and the single-protocol run. It is the only
// spelling of that list — Run, lbchat-bench, the root benchmarks and the
// DESIGN.md §5 index (TestDocsListCatalogue) all read it.
var Catalogue = []Experiment{
	{Name: "fig2a", Paper: true, Title: "Figure 2(a): training loss vs time, W/O wireless loss",
		Arms: armsLossless, report: reportCurves},
	{Name: "fig2b", Paper: true, Title: "Figure 2(b): training loss vs time, W wireless loss",
		Arms: armsLossy, report: reportCurves},
	// The paper reports LbChat 87% vs 51–60% for the benchmarks.
	{Name: "recvrate", Paper: true, Title: "§IV-C: successful model receiving rate",
		Caption: "Successful model receiving rate (%)",
		Arms:    armsLossy, report: reportReceiveRates},
	{Name: "tab2", Paper: true, Title: "Table II (driving success rate, W/O wireless loss)",
		Arms: armsLossless, report: reportConditions},
	{Name: "tab3", Paper: true, Title: "Table III (driving success rate, W wireless loss)",
		Arms: armsLossy, report: reportConditions},
	// LbChat with coreset sizes 10× and 1/10 the default, in both regimes;
	// columns follow the paper.
	{Name: "tab4", Paper: true, Title: "Table IV (coreset-size sweep)",
		Caption: "Table IV: driving success rate with different coreset size (%)",
		Arms: lbchat([]Arm{
			{Label: "1500 (W/O)", Lossless: true, Config: coresetTimes10},
			{Label: "15 (W/O)", Lossless: true, Config: coresetTenth},
			{Label: "1500 (W)", Config: coresetTimes10},
			{Label: "15 (W)", Config: coresetTenth}}),
		report: reportConditions},
	// Table V masks Eq. (7), Table VI masks Eq. (8), Table VII shares
	// coresets only.
	{Name: "tab5", Paper: true, Title: "Table V (equal compression ablation)",
		Caption: "Table V: driving success rate with equal comp. ratio (%)",
		Arms:    bothRegimes(ProtoEqualComp), report: reportConditions},
	{Name: "tab6", Paper: true, Title: "Table VI (average aggregation ablation)",
		Caption: "Table VI: driving success rate with avg. aggregation (%)",
		Arms:    bothRegimes(ProtoAvgAgg), report: reportConditions},
	{Name: "tab7", Paper: true, Title: "Table VII (sharing coreset only)",
		Caption: "Table VII: driving success rate with sharing coreset only (%)",
		Arms:    bothRegimes(ProtoSCO), report: reportConditions},
	// The paper highlights that SCO takes 1.5–1.8× longer to converge.
	{Name: "fig3", Paper: true, Title: "Figure 3 (LbChat vs SCO)",
		Arms: lossless(protocols(ProtoLbChat, ProtoSCO)), report: reportSlowdown},

	// The paper credits route-sharing for LbChat's 87% receiving rate; the
	// ablation shows how much of that margin the Eq. (5) priority score
	// carries.
	{Name: "routeshare", Title: "Extension: route-sharing (Eq. 5) ablation",
		Caption: "Route-sharing ablation (W wireless loss)",
		Arms:    protocols(ProtoLbChat, ProtoNoPrio), report: reportScalars(finalLoss, recvRate, attempts)},
	// All methods share the identical workload, radio, and budget |C|.
	{Name: "methods", Title: "Extension: coreset construction methods (§V)",
		Caption: "Coreset construction methods (LbChat)",
		Arms: lossless(lbchat(coresetMethods(coreset.MethodLayered,
			coreset.MethodSensitivity, coreset.MethodClustering, coreset.MethodUniform))),
		report: reportScalars(finalLoss, recvRate)},
	// "Adaptive tuning the size of coreset will be our future work."
	{Name: "adaptive", Title: "Extension: adaptive coreset sizing (future work)",
		Caption: "Adaptive coreset sizing",
		Arms: []Arm{
			{Label: "fixed |C|", Protocol: ProtoLbChat, Lossless: true},
			{Label: "adaptive |C|", Protocol: ProtoAdaptive, Lossless: true},
		},
		report: reportScalars(finalLoss, recvRate)},
	// Footnote 1 defers heterogeneous communication capabilities to future
	// work: the fleet's bandwidths are spread over a wide range instead of
	// the near-homogeneous default, and the Eq. (5)/Eq. (7) machinery —
	// which already negotiates min{B_i, B_j} — is measured under the
	// imbalance.
	{Name: "hetero", Title: "Extension: bandwidth heterogeneity (footnote 1 future work)",
		Caption: "Bandwidth heterogeneity (LbChat)",
		Arms: lossless(lbchat([]Arm{
			{Label: "20-31 Mbps"},
			{Label: "5-31 Mbps", Config: func(c *core.Config) { c.BandwidthMinBps = 5e6 }}})),
		report: reportScalars(finalLoss, recvRate, attempts)},
	// §III-C: "other biased/unbiased model compression methods can also be
	// applied, such as quantization" — unbiased stochastic quantization
	// against the default top-k delta sparsification.
	{Name: "quant", Title: "Extension: compression schemes (top-k vs quantization)",
		Caption: "Compression schemes (LbChat)",
		Arms: lossless(lbchat([]Arm{
			{Label: "top-k"},
			{Label: "quantization", Config: func(c *core.Config) { c.CompressionScheme = core.SchemeQuantize }}})),
		report: reportScalars(finalLoss, recvRate, attempts)},
	{Name: "faultsweep", Title: "Robustness: fault sweep (burst loss x churn, with vs without resumption)",
		Caption: "FaultSweep: final probe loss (x1000), W wireless loss",
		Arms:    faultSweepArms(), report: reportPivot(finalLoss)},
	{Name: ExpProtocol, Title: "One protocol, one regime", report: reportCurves},
}

// Lookup returns the catalogue entry with the given name; the error for an
// unknown one lists every known name.
func Lookup(name string) (*Experiment, error) {
	names := make([]string, len(Catalogue))
	for i := range Catalogue {
		if Catalogue[i].Name == name {
			return &Catalogue[i], nil
		}
		names[i] = Catalogue[i].Name
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", name, strings.Join(names, " "))
}

// Train runs the experiment's arms. They are fully independent — each gets
// its own engine, fresh dataset clones, and seed-derived random streams — so
// they execute concurrently; results come back in arm order, and buffered
// telemetry streams drain into the Env's user sink in that same order, so a
// shared sink sees a deterministic stream at any worker count. An arm whose
// run the Env's memo holds is neither trained nor streamed again.
func (x *Experiment) Train(ctx context.Context, e *Env) ([]*ProtocolRun, error) {
	runs := make([]*ProtocolRun, len(x.Arms))
	keys := make([]string, len(x.Arms))
	var todo []int // the first arm of each key the memo lacks
	for i, a := range x.Arms {
		keys[i] = e.runKey(a)
		if runs[i] = e.memo[keys[i]]; runs[i] == nil && slices.Index(keys, keys[i]) == i {
			todo = append(todo, i)
		}
	}
	fresh, err := parallel.MapErr(parallel.Resolve(e.Scale.Workers), len(todo), func(j int) (*ProtocolRun, error) {
		a := x.Arms[todo[j]]
		return e.runProtocol(ctx, a.Protocol, a.Lossless, a.Config)
	})
	if err != nil {
		return nil, err
	}
	e.flushRuns(fresh...)
	shared := map[string]int{} // how many catalogue arms resolve to each key
	for _, y := range Catalogue {
		for _, a := range y.Arms {
			shared[e.runKey(a)]++
		}
	}
	for j, i := range todo {
		if runs[i] = fresh[j]; !runs[i].Canceled && shared[keys[i]] > 1 {
			e.memo[keys[i]] = runs[i]
		}
	}
	for i := range runs {
		if runs[i] == nil {
			runs[i] = runs[slices.Index(keys, keys[i])]
		}
	}
	return runs, nil
}

// Report turns the runs of the experiment's arms into its Result. A
// canceled training phase skips evaluation: the partial runs come back with
// a nil table.
func (x *Experiment) Report(e *Env, runs []*ProtocolRun) *Result {
	res := &Result{Runs: runs, Canceled: slices.ContainsFunc(runs, func(r *ProtocolRun) bool { return r.Canceled })}
	if res.Canceled {
		return res
	}
	res.Table, res.Text = x.report(e, x, runs)
	if res.Text == "" {
		res.Text = res.Table.Render()
	}
	return res
}

// A reporter builds an experiment's table from its runs (one per arm, in
// arm order) and, where the artefact is not that table, the text
// lbchat-bench prints instead.
type reporter func(e *Env, x *Experiment, runs []*ProtocolRun) (*metrics.Table, string)

// armTable starts the experiment's table with one column per arm.
func (x *Experiment) armTable() *metrics.Table {
	cols := make([]string, len(x.Arms))
	for i, a := range x.Arms {
		cols[i] = a.Label
	}
	return metrics.NewTable(x.Caption, cols...)
}

// reportConditions is the shape of Tables II–VII: each arm's final fleet is
// evaluated on the driving benchmark, one row per condition.
func reportConditions(e *Env, x *Experiment, runs []*ProtocolRun) (*metrics.Table, string) {
	rates := make([]map[eval.Condition]float64, len(runs))
	for i, r := range runs {
		rates[i] = e.EvalFleet(r.Fleet)
	}
	tbl := x.armTable()
	for _, cond := range eval.Conditions {
		vals := make([]float64, len(runs))
		for i := range runs {
			vals[i] = rates[i][cond]
		}
		tbl.AddRow(cond.String(), vals...)
	}
	return tbl, ""
}

// scalar is one per-run quantity a study reports.
type scalar struct {
	label string
	of    func(*ProtocolRun) float64
}

var (
	finalLoss = scalar{"final probe loss (x1000)", func(r *ProtocolRun) float64 { return 1000 * r.Curve.Final() }}
	recvRate  = scalar{"model receive rate (%)", func(r *ProtocolRun) float64 { return 100 * r.Recv.Rate() }}
	attempts  = scalar{"transfers attempted", func(r *ProtocolRun) float64 { return float64(r.Recv.Attempts) }}
)

func (s scalar) each(runs []*ProtocolRun) []float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = s.of(r)
	}
	return vals
}

// scalarTable is the shape of the extension studies: one row per scalar,
// one column per arm.
func (x *Experiment) scalarTable(runs []*ProtocolRun, rows ...scalar) *metrics.Table {
	tbl := x.armTable()
	for _, s := range rows {
		tbl.AddRow(s.label, s.each(runs)...)
	}
	return tbl
}

func reportScalars(rows ...scalar) reporter {
	return func(_ *Env, x *Experiment, runs []*ProtocolRun) (*metrics.Table, string) {
		return x.scalarTable(runs, rows...), ""
	}
}

// reportPivot is the fault sweep's shape: arms in row-major (label ×
// protocol) order become one row per label and one column per protocol.
func reportPivot(s scalar) reporter {
	return func(_ *Env, x *Experiment, runs []*ProtocolRun) (*metrics.Table, string) {
		var cols []string
		for _, a := range x.Arms {
			if !slices.Contains(cols, string(a.Protocol)) {
				cols = append(cols, string(a.Protocol))
			}
		}
		tbl := metrics.NewTable(x.Caption, cols...)
		for i := 0; i < len(runs); i += len(cols) {
			tbl.AddRow(x.Arms[i].Label, s.each(runs[i:i+len(cols)])...)
		}
		return tbl, ""
	}
}

// reportReceiveRates is the §IV-C comparison, printed as the paper's
// one-line-per-protocol list.
func reportReceiveRates(_ *Env, x *Experiment, runs []*ProtocolRun) (*metrics.Table, string) {
	text := x.Caption + "\n"
	for i, r := range runs {
		text += fmt.Sprintf("  %-10s %5.1f\n", x.Arms[i].Label, recvRate.of(r))
	}
	return x.scalarTable(runs, recvRate), text
}

// plotCurves draws the runs' loss curves on one ASCII chart and lists them
// in aligned columns for plotting, each listing followed by sep.
func plotCurves(runs []*ProtocolRun, sep string) string {
	curves := make([]*metrics.Curve, len(runs))
	for i := range runs {
		curves[i] = &runs[i].Curve
	}
	text := metrics.PlotCurves(72, 18, curves...)
	for _, c := range curves {
		text += c.Render() + sep
	}
	return text
}

// reportCurves is the shape of Fig. 2: the artefact is the loss curves, the
// table their end points.
func reportCurves(_ *Env, x *Experiment, runs []*ProtocolRun) (*metrics.Table, string) {
	return x.scalarTable(runs, finalLoss), plotCurves(runs, "\n")
}

// reportSlowdown is Fig. 3: the curves of a fast and a slow arm, plus how
// much longer the slow one takes to converge.
func reportSlowdown(_ *Env, x *Experiment, runs []*ProtocolRun) (*metrics.Table, string) {
	fast, slow := x.Arms[0].Label, x.Arms[1].Label
	ratio := ConvergenceRatio(&runs[0].Curve, &runs[1].Curve)
	tbl := x.scalarTable(runs, finalLoss)
	tbl.AddRow("convergence slowdown vs "+fast+" (x)", 1, ratio)
	return tbl, plotCurves(runs, "") +
		fmt.Sprintf("%s convergence slowdown vs %s: %.2fx (paper: 1.5-1.8x)\n", slow, fast, ratio)
}

// ConvergenceRatio returns how much longer the second curve takes to reach
// a common loss threshold (NaN when either never reaches it). The threshold
// is the loss both curves eventually reach, placed at 10% above the slower
// curve's best.
func ConvergenceRatio(fast, slow *metrics.Curve) float64 {
	threshold := 1.10 * math.Max(fast.Min(), slow.Min())
	tFast := fast.TimeToReach(threshold)
	tSlow := slow.TimeToReach(threshold)
	if math.IsNaN(tFast) || math.IsNaN(tSlow) || tFast <= 0 {
		return math.NaN()
	}
	return tSlow / tFast
}
