package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"lbchat/internal/bev"
	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
	"lbchat/internal/radio"
	"lbchat/internal/simrand"
	"lbchat/internal/trace"
	"lbchat/internal/world"
)

func TestAggregationWeights(t *testing.T) {
	// Corrected semantics: the better (lower-loss) model gets the larger
	// weight.
	wSelf, wPeer := AggregationWeights(0.1, 0.3)
	if wSelf <= wPeer {
		t.Errorf("better self model under-weighted: %v vs %v", wSelf, wPeer)
	}
	if math.Abs(wSelf+wPeer-1) > 1e-12 {
		t.Errorf("weights do not sum to 1: %v + %v", wSelf, wPeer)
	}
	if math.Abs(wSelf-0.75) > 1e-12 {
		t.Errorf("wSelf = %v, want 0.75", wSelf)
	}
	// Degenerate zero losses fall back to plain averaging.
	wSelf, wPeer = AggregationWeights(0, 0)
	if wSelf != 0.5 || wPeer != 0.5 {
		t.Errorf("zero-loss weights = %v, %v", wSelf, wPeer)
	}
	// Negative inputs are clamped, not propagated.
	wSelf, wPeer = AggregationWeights(-1, 0.5)
	if wSelf < 0 || wSelf > 1 || wPeer < 0 || wPeer > 1 {
		t.Errorf("negative-loss weights escaped [0,1]: %v, %v", wSelf, wPeer)
	}
}

func TestGreedyMatchDisjointAndOrdered(t *testing.T) {
	pairs := []CandidatePair{
		{A: 0, B: 1, Score: 0.5},
		{A: 1, B: 2, Score: 0.9},
		{A: 2, B: 3, Score: 0.8},
		{A: 0, B: 3, Score: 0.7},
	}
	got := new(Engine).GreedyMatch(pairs)
	// Highest score (1,2) first; then (0,3) — (2,3) and (0,1) conflict.
	if len(got) != 2 {
		t.Fatalf("matched %d pairs: %v", len(got), got)
	}
	if got[0].A != 1 || got[0].B != 2 {
		t.Errorf("first match = %+v", got[0])
	}
	if got[1].A != 0 || got[1].B != 3 {
		t.Errorf("second match = %+v", got[1])
	}
}

func TestGreedyMatchDeterministicTies(t *testing.T) {
	pairs := []CandidatePair{
		{A: 2, B: 3, Score: 1},
		{A: 0, B: 1, Score: 1},
	}
	eng := new(Engine)
	a := eng.GreedyMatch(pairs)
	b := eng.GreedyMatch([]CandidatePair{pairs[1], pairs[0]})
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] {
		t.Errorf("tie-breaking not deterministic: %v vs %v", a, b)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.TickSeconds = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.TimeBudget = -1 },
		func(c *Config) { c.CoresetSize = 0 },
		func(c *Config) { c.BandwidthMinBps = 0 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("invalid config accepted: %+v", cfg)
		}
	}
}

// tinyEnv builds a minimal engine world for protocol tests.
func tinyEnv(t *testing.T, vehicles int, lossless bool) (*Engine, Config) {
	return tinyEnvWith(t, vehicles, lossless, nil)
}

// tinyEnvWith is tinyEnv with a config hook, for tests that adjust the
// engine config (a telemetry sink, fault profiles) before construction.
func tinyEnvWith(t *testing.T, vehicles int, lossless bool, mutate func(*Config)) (*Engine, Config) {
	t.Helper()
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(m, world.SpawnConfig{Experts: vehicles, BackgroundCars: 6, Pedestrians: 15}, simrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CoresetSize = 30
	cfg.LayeringSample = 96
	cfg.EvalSubset = 32
	if mutate != nil {
		mutate(&cfg)
	}
	ras := bev.NewRasterizer(bev.DefaultConfig(), m)
	datasets := world.CollectDataset(w, ras, cfg.Model.NumWaypoints, 200, 0.5)
	tr := trace.Record(w, 1000, 0.5)
	probe := datasets[0].Items()[:32]
	eng, err := NewEngine(cfg, tr, datasets, radio.NewModel(lossless), probe)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cfg
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []float64 {
		eng, _ := tinyEnv(t, 3, true)
		if err := eng.Run(NewLbChat(), 300); err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, 0, len(eng.LossCurve.Points))
		for _, p := range eng.LossCurve.Points {
			vals = append(vals, p.Value)
		}
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("curve lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at point %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEngineRejectsMismatchedInputs(t *testing.T) {
	eng, cfg := tinyEnv(t, 3, true)
	short := []*dataset.Dataset{eng.Vehicles[0].Data}
	if _, err := NewEngine(cfg, eng.Trace, short, eng.Radio, eng.Probe); err == nil {
		t.Error("dataset/trace count mismatch accepted")
	}
	var all []*dataset.Dataset
	for _, v := range eng.Vehicles {
		all = append(all, v.Data)
	}
	for _, set := range []func(*radio.Params){
		func(p *radio.Params) { p.MaxRangeMeters = 0 },
		func(p *radio.Params) { p.MaxTransmissions = 0 },
	} {
		rm := *eng.Radio
		set(&rm.Params)
		if _, err := NewEngine(cfg, eng.Trace, all, &rm, eng.Probe); err == nil || !strings.HasPrefix(err.Error(), "radio: ") {
			t.Errorf("radio %+v: error %v, want the radio's", rm.Params, err)
		}
	}
	// A trace without ticks is refused by its tick count, checked before its
	// vehicles are compared with the datasets.
	for _, vehicles := range []int{len(all), 2} {
		_, err := NewEngine(cfg, trace.New(eng.Trace.DT(), vehicles), all, eng.Radio, eng.Probe)
		if err == nil || !strings.Contains(err.Error(), "0 ticks") {
			t.Errorf("%d-vehicle empty trace: error %v, want one naming its 0 ticks", vehicles, err)
		}
	}
	cfg.BandwidthMinBps = eng.Radio.Params.MaxBandwidthBps + 1
	if _, err := NewEngine(cfg, eng.Trace, all, eng.Radio, eng.Probe); err == nil {
		t.Error("minimum bandwidth above the radio's peak accepted")
	}
}

func TestEnsureCoresetBuildsAndCaches(t *testing.T) {
	eng, cfg := tinyEnv(t, 2, true)
	v := eng.Vehicles[0]
	cs, err := eng.EnsureCoreset(v)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != cfg.CoresetSize {
		t.Errorf("coreset size = %d, want %d", cs.Len(), cfg.CoresetSize)
	}
	// The coreset represents the FULL dataset's weight even though layering
	// used a subsample.
	if math.Abs(cs.TotalWeight()-v.Data.TotalWeight()) > 1e-6*v.Data.TotalWeight() {
		t.Errorf("coreset weight %v, dataset weight %v", cs.TotalWeight(), v.Data.TotalWeight())
	}
	// Cached until coresetRefresh elapses.
	again, err := eng.EnsureCoreset(v)
	if err != nil {
		t.Fatal(err)
	}
	if again != cs {
		t.Error("fresh coreset rebuilt before refresh interval")
	}
}

func TestAbsorbCoresetExpandsDataset(t *testing.T) {
	eng, cfg := tinyEnv(t, 2, true)
	va, vb := eng.Vehicles[0], eng.Vehicles[1]
	csB, err := eng.EnsureCoreset(vb)
	if err != nil {
		t.Fatal(err)
	}
	before := va.Data.Len()
	if _, err := eng.EnsureCoreset(va); err != nil {
		t.Fatal(err)
	}
	if err := eng.AbsorbCoreset(va, csB); err != nil {
		t.Fatal(err)
	}
	if va.Data.Len() != before+csB.Len() {
		t.Errorf("dataset %d -> %d after absorbing %d", before, va.Data.Len(), csB.Len())
	}
	// Absorbed samples carry the uniform local weight.
	for i := before; i < va.Data.Len(); i++ {
		if va.Data.At(i).Weight != localWeight {
			t.Fatalf("absorbed weight = %v", va.Data.At(i).Weight)
		}
	}
	// The vehicle's own coreset stayed at budget after merge-reduce.
	if va.Core.Len() != cfg.CoresetSize {
		t.Errorf("coreset size after absorb = %d", va.Core.Len())
	}
}

func TestCompressDeltaReconstruct(t *testing.T) {
	eng, _ := tinyEnv(t, 2, true)
	v := eng.Vehicles[0]
	// Train a little so the delta is nonzero.
	for i := 0; i < 10; i++ {
		v.Policy.TrainStep(v.Data.SampleBatch(8, v.RNG()))
	}
	flat := v.Policy.Flat()
	full := eng.CompressDelta(flat, 1)
	rec := scatterOnInit(eng, full)
	for i := range flat {
		if math.Abs(rec[i]-flat[i]) > 1e-12 {
			t.Fatal("ψ=1 reconstruction differs from original")
		}
	}
	// Moderate compression keeps the model closer to the original than the
	// shared initialization is.
	half := scatterOnInit(eng, eng.CompressDelta(flat, 0.5))
	var dHalf, dInit float64
	for i := range flat {
		dHalf += (half[i] - flat[i]) * (half[i] - flat[i])
		dInit += (eng.initFlat[i] - flat[i]) * (eng.initFlat[i] - flat[i])
	}
	if dHalf >= dInit {
		t.Errorf("ψ=0.5 reconstruction no better than init: %v vs %v", dHalf, dInit)
	}
}

func TestPayloadSizes(t *testing.T) {
	eng, _ := tinyEnv(t, 2, true)
	if eng.ModelWireBytes() != 52_000_000 {
		t.Errorf("model wire bytes = %d", eng.ModelWireBytes())
	}
	if got := eng.CompressedModelBytes(0.5); got != 26_000_000 {
		t.Errorf("half-compressed bytes = %d", got)
	}
	if eng.CompressedModelBytes(0) != 0 || eng.CompressedModelBytes(2) != 52_000_000 {
		t.Error("compressed-bytes clamping broken")
	}
	if got := eng.CoresetWireBytes(150); got != 150*paperFrameBytes {
		t.Errorf("coreset wire bytes = %d", got)
	}
}

// TestQuantizedBytesFollowTheWidth: under quantization the bytes billed are
// the code width's, and the width is what reconstructPlan ships. ψ = 0.5,
// 0.75 and 1 all ship the 16-bit ceiling and so cost the same; 0.2 ships 6
// bits (rounded down, never over the ψ·bytes a plan budgets); and the 1-bit
// floor is billed at 1 bit.
func TestQuantizedBytesFollowTheWidth(t *testing.T) {
	eng, _ := tinyEnv(t, 2, true)
	eng.Cfg.CompressionScheme = SchemeQuantize
	perBit := paperModelBytes / 32
	for _, c := range []struct {
		psi  float64
		bits int
	}{{0.5, 16}, {0.75, 16}, {1, 16}, {2, 16}, {0.2, 6}, {0.56, 16}, {0.01, 1}} {
		if got := quantBits(c.psi); got != c.bits {
			t.Errorf("ψ=%v ships %d bits, want %d", c.psi, got, c.bits)
		}
		if got := eng.CompressedModelBytes(c.psi); got != c.bits*perBit {
			t.Errorf("ψ=%v billed %d bytes, want %d bits' %d", c.psi, got, c.bits, c.bits*perBit)
		}
		if c.psi <= 1 && c.psi >= 1.0/32 && eng.CompressedModelBytes(c.psi) > int(c.psi*paperModelBytes) {
			t.Errorf("ψ=%v billed more than the ψ·bytes a plan budgets", c.psi)
		}
	}
	if a, b := eng.CompressedModelBytes(0.5), eng.CompressedModelBytes(1); a != b {
		t.Errorf("ψ 0.5 and 1 ship the same width but are billed %d and %d bytes", a, b)
	}
}

func TestFitWindowPsi(t *testing.T) {
	// 15 s × 31 Mbps / 8 bits ≈ 58 MB of air time; two 52 MB models need
	// ψ ≈ 0.56.
	psi := FitWindowPsi(15, 31e6, 52_000_000)
	if psi < 0.5 || psi > 0.62 {
		t.Errorf("fit-window ψ = %v", psi)
	}
	if FitWindowPsi(0, 31e6, 52_000_000) != 0 {
		t.Error("zero window should not transfer")
	}
	if FitWindowPsi(1000, 31e6, 1000) != 1 {
		t.Error("huge window should cap ψ at 1")
	}
}

func TestMergeModelsBlends(t *testing.T) {
	eng, _ := tinyEnv(t, 2, true)
	v := eng.Vehicles[0]
	selfFlat := v.Policy.Flat()
	peer := make([]float64, len(selfFlat))
	for i := range peer {
		peer[i] = selfFlat[i] + 1
	}
	if err := MergeModels(v, peer, 0.75, 0.25); err != nil {
		t.Fatal(err)
	}
	got := v.Policy.Flat()
	for i := range got {
		want := selfFlat[i] + 0.25
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("blend[%d] = %v, want %v", i, got[i], want)
		}
	}
	if err := MergeModels(v, peer[:3], 0.5, 0.5); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSCORunSharesDataNotModels(t *testing.T) {
	eng, _ := tinyEnv(t, 3, true)
	sizeBefore := eng.Vehicles[0].Data.Len()
	if err := eng.Run(NewLbChatVariant(SCO), 400); err != nil {
		t.Fatal(err)
	}
	stats := eng.FleetReceiveStats()
	if stats.Attempts != 0 {
		t.Errorf("SCO attempted %d model transfers", stats.Attempts)
	}
	grew := false
	for _, v := range eng.Vehicles {
		if v.Data.Len() > sizeBefore {
			grew = true
		}
	}
	if !grew {
		t.Error("SCO never expanded any local dataset")
	}
}

// TestVariantsRun runs every arm but full LbChat (which most other tests
// run) and checks that it learns.
func TestVariantsRun(t *testing.T) {
	for v := fullLbChat + 1; int(v) < len(variantNames); v++ {
		eng, _ := tinyEnv(t, 3, true)
		if err := eng.Run(NewLbChatVariant(v), 300); err != nil {
			t.Fatalf("%v failed: %v", v, err)
		}
		if eng.LossCurve.Final() >= eng.LossCurve.Points[0].Value {
			t.Errorf("%v did not learn", v)
		}
	}
}

func TestLossyRegimeRuns(t *testing.T) {
	eng, _ := tinyEnv(t, 3, false)
	if err := eng.Run(NewLbChat(), 300); err != nil {
		t.Fatal(err)
	}
	if eng.LossCurve.Final() >= eng.LossCurve.Points[0].Value {
		t.Error("lossy run did not learn")
	}
}

// TestMarkChattedSetsCooldowns pins both cooldowns MarkChatted stamps, in
// either argument order: the two vehicles are busy and then cooling down,
// and once both are free again the pair itself stays blocked until
// PairCooldown has passed since the chat. Each probe time is one at which
// the pair is in radio range, so only the pair cooldown can empty the
// candidate list.
func TestMarkChattedSetsCooldowns(t *testing.T) {
	const busy = 42.0
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		t.Run(fmt.Sprintf("MarkChatted(%d,%d)", order[0], order[1]), func(t *testing.T) {
			eng, cfg := tinyEnv(t, 2, true)
			end := eng.Trace.Duration()
			// firstInRange is the first tick in [lo, hi) at which the pair is
			// in radio range, or NaN.
			firstInRange := func(lo, hi float64) float64 {
				for at := lo; at < hi; at += cfg.TickSeconds {
					if eng.Trace.Distance(0, 1, at) <= eng.Radio.Params.MaxRangeMeters {
						return at
					}
				}
				return math.NaN()
			}
			// Chat at the first tick after which the pair is in range both
			// between the end of the chat cooldowns and the end of the pair
			// cooldown, and past the pair cooldown.
			start, blocked, back := 0.0, math.NaN(), math.NaN()
			for ; start < end; start += cfg.TickSeconds {
				blocked = firstInRange(start+busy+cfg.ChatCooldown, start+cfg.PairCooldown)
				back = firstInRange(start+cfg.PairCooldown, end)
				if !math.IsNaN(blocked) && !math.IsNaN(back) {
					break
				}
			}
			if start >= end {
				t.Fatal("the trace never puts the pair in range inside and after a pair cooldown")
			}

			eng.now = start
			eng.MarkChatted(order[0], order[1], start+busy)
			va, vb := eng.Vehicles[0], eng.Vehicles[1]
			if va.BusyUntil != start+busy || vb.BusyUntil != start+busy {
				t.Errorf("busy-until = %v, %v; want %v", va.BusyUntil, vb.BusyUntil, start+busy)
			}
			if want := start + busy + cfg.ChatCooldown; va.NextChatAt != want || vb.NextChatAt != want {
				t.Errorf("chat cooldown ends %v, %v; want %v", va.NextChatAt, vb.NextChatAt, want)
			}

			one := func(a, b int) float64 { return 1 }
			eng.now = blocked
			if pairs := eng.CandidatePairs(one); len(pairs) != 0 {
				t.Errorf("t=%g: pair re-matched %gs after its chat, inside the %gs pair cooldown: %v",
					blocked, blocked-start, cfg.PairCooldown, pairs)
			}
			eng.now = back
			want := []CandidatePair{{A: 0, B: 1, Score: 1}}
			if pairs := eng.CandidatePairs(one); !reflect.DeepEqual(pairs, want) {
				t.Errorf("t=%g: CandidatePairs %v once the pair cooldown passed, want %v", back, pairs, want)
			}
		})
	}
}

func TestNoPrioritizationVariantRuns(t *testing.T) {
	eng, _ := tinyEnv(t, 3, false)
	proto := NewLbChatVariant(NoPrioritization)
	if err := eng.Run(proto, 300); err != nil {
		t.Fatal(err)
	}
	if eng.LossCurve.Final() >= eng.LossCurve.Points[0].Value {
		t.Error("no-prioritization variant did not learn")
	}
}

func TestAdaptiveCoresetSizing(t *testing.T) {
	eng, _ := tinyEnv(t, 3, true)
	proto := NewLbChatVariant(AdaptiveCoresetSize)
	if err := eng.Run(proto, 400); err != nil {
		t.Fatal(err)
	}
	// At least one vehicle should have chatted and tuned its budget.
	tuned := 0
	for _, v := range eng.Vehicles {
		if v.CoresetSizeOverride > 0 {
			tuned++
			if v.CoresetSizeOverride < 15 || v.CoresetSizeOverride > 1500 {
				t.Errorf("override %d outside [15, 1500]", v.CoresetSizeOverride)
			}
			if v.ContactEMA <= 0 {
				t.Error("contact EMA not tracked")
			}
		}
	}
	if tuned == 0 {
		t.Error("no vehicle adapted its coreset size")
	}
}

func TestCoresetMethodOverride(t *testing.T) {
	eng, cfg := tinyEnv(t, 2, true)
	cfg.CoresetMethod = coreset.MethodUniform
	eng.Cfg = cfg
	cs, err := eng.EnsureCoreset(eng.Vehicles[0])
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != cfg.CoresetSize {
		t.Errorf("uniform-method coreset size = %d", cs.Len())
	}
}

func TestRunInvariants(t *testing.T) {
	eng, cfg := tinyEnv(t, 4, false)
	initial := make([]int, len(eng.Vehicles))
	for i, v := range eng.Vehicles {
		initial[i] = v.Data.Len()
	}
	if err := eng.Run(NewLbChat(), 500); err != nil {
		t.Fatal(err)
	}
	for i, v := range eng.Vehicles {
		if v.Data.Len() < initial[i] {
			t.Errorf("vehicle %d dataset shrank: %d -> %d", i, initial[i], v.Data.Len())
		}
		if v.Core != nil && v.Core.Len() > cfg.CoresetSize {
			t.Errorf("vehicle %d coreset %d exceeds budget %d", i, v.Core.Len(), cfg.CoresetSize)
		}
		if v.Recv.Successes > v.Recv.Attempts {
			t.Errorf("vehicle %d: %d successes > %d attempts", i, v.Recv.Successes, v.Recv.Attempts)
		}
		if v.BusyUntil < 0 || v.NextChatAt < 0 {
			t.Errorf("vehicle %d has negative cooldown state", i)
		}
		for _, it := range v.Data.Items() {
			if it.Weight <= 0 {
				t.Fatalf("vehicle %d holds a non-positive sample weight %v", i, it.Weight)
			}
		}
	}
}

func TestQuantizationSchemeRuns(t *testing.T) {
	eng, cfg := tinyEnv(t, 3, true)
	cfg.CompressionScheme = SchemeQuantize
	eng.Cfg = cfg
	if err := eng.Run(NewLbChat(), 400); err != nil {
		t.Fatal(err)
	}
	if eng.LossCurve.Final() >= eng.LossCurve.Points[0].Value {
		t.Error("quantization-scheme run did not learn")
	}
}

func TestCompressReconstructSchemes(t *testing.T) {
	eng, _ := tinyEnv(t, 2, true)
	v := eng.Vehicles[0]
	for i := 0; i < 10; i++ {
		v.Policy.TrainStep(v.Data.SampleBatch(8, v.RNG()))
	}
	flat := v.Policy.Flat()
	if eng.CompressReconstruct(flat, 0) != nil {
		t.Error("ψ=0 should reconstruct nothing")
	}
	topk := eng.CompressReconstruct(flat, 0.5)
	if len(topk) != len(flat) {
		t.Fatalf("topk reconstruction length %d", len(topk))
	}
	eng.Cfg.CompressionScheme = SchemeQuantize
	quant := eng.CompressReconstruct(flat, 0.5)
	if len(quant) != len(flat) {
		t.Fatalf("quant reconstruction length %d", len(quant))
	}
	// Both schemes must produce something closer to the model than init.
	var dQ, dInit float64
	for i := range flat {
		dQ += (quant[i] - flat[i]) * (quant[i] - flat[i])
		dInit += (eng.initFlat[i] - flat[i]) * (eng.initFlat[i] - flat[i])
	}
	if dQ >= dInit {
		t.Errorf("quantized reconstruction worse than init: %v vs %v", dQ, dInit)
	}
}

// TestAggregationWeightsProperty draws loss pairs from finite magnitudes
// across the whole range and the edge values — 0, denormals, MaxFloat64,
// ±Inf, NaN, a negative — and checks Eq. (8)'s invariant: the weights are
// finite, non-negative and sum to one within 2⁻⁵¹, and a model whose loss is
// not a number gets weight 0. A NaN peer then leaves the receiver's bits as
// they were.
func TestAggregationWeightsProperty(t *testing.T) {
	rng := simrand.New(8)
	edges := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1022 / 3, 1, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -2}
	draw := func() float64 {
		if rng.Bernoulli(0.5) {
			return edges[rng.Intn(len(edges))]
		}
		return math.Exp(rng.Uniform(-740, 709))
	}
	for i := 0; i < 20000; i++ {
		lossSelf, lossPeer := draw(), draw()
		wSelf, wPeer := AggregationWeights(lossSelf, lossPeer)
		if !isFinite(wSelf) || !isFinite(wPeer) || wSelf < 0 || wPeer < 0 || math.Abs(wSelf+wPeer-1) > 0x1p-51 {
			t.Fatalf("AggregationWeights(%v, %v) = (%v, %v)", lossSelf, lossPeer, wSelf, wPeer)
		}
		if (!isFinite(lossSelf) && wSelf != 0 && isFinite(lossPeer)) || (!isFinite(lossPeer) && wPeer != 0) {
			t.Fatalf("AggregationWeights(%v, %v) = (%v, %v): a non-finite loss kept weight", lossSelf, lossPeer, wSelf, wPeer)
		}
	}

	eng, _ := tinyEnv(t, 2, true)
	v := eng.Vehicles[0]
	before := v.Policy.Flat()
	peer := make([]float64, len(before))
	for i := range peer {
		peer[i] = math.NaN()
	}
	wSelf, wPeer := AggregationWeights(0.3, math.NaN())
	if err := MergeModels(v, peer, wSelf, wPeer); err != nil {
		t.Fatal(err)
	}
	if !bitEqual(v.Policy.Flat(), before) {
		t.Fatal("merging a NaN peer moved the receiver's parameters")
	}
}
