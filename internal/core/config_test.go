package core

import (
	"reflect"
	"testing"
)

// harnessPinned is the reason a field no production caller varies still
// stands: benchmarks/perf reads it, and that harness changes only in its own
// PR (ROADMAP item 13(d)).
const harnessPinned = "read by benchmarks/perf → ROADMAP item 13(d)"

// configFieldReasons accounts for every Config field: the non-test caller
// that sets it to a second value, or why it is a field although none does.
// A setting nobody varies is a constant.
var configFieldReasons = map[string]string{
	"Seed":              "-seed (cmd/internal/cli) through experiments.BuildEnv",
	"TickSeconds":       harnessPinned,
	"BatchSize":         harnessPinned,
	"RecordInterval":    harnessPinned,
	"TimeBudget":        harnessPinned,
	"ContactHorizon":    harnessPinned,
	"CoresetSize":       "tab4's coreset-size arms",
	"CoresetMethod":     "methods",
	"LayeringSample":    harnessPinned,
	"EvalSubset":        harnessPinned,
	"PsiSamples":        harnessPinned,
	"LambdaC":           harnessPinned,
	"ChatCooldown":      "chat-dense (benchmarks/perf)",
	"PairCooldown":      "chat-dense (benchmarks/perf)",
	"BandwidthMinBps":   "hetero",
	"CompressionScheme": "quant",
	"LogChats":          "lbchat-sim -log-chats (ROADMAP item 5 replaces it)",
	"Workers":           "-workers through experiments.BuildEnv",
	"Telemetry":         "-telemetry-out and the experiment harness",
	"Faults":            "-faults and faultsweep",
	"Model":             "fleet-scan's tiny models (benchmarks/perf)",
}

// TestConfigFieldsAccountedFor holds Config to configFieldReasons: a new
// field fails until its setter is named there, and a removed one until its
// entry goes.
func TestConfigFieldsAccountedFor(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		if configFieldReasons[name] == "" {
			t.Errorf("Config.%s has no entry in configFieldReasons: name the non-test caller that varies it, or make it a constant", name)
		}
	}
	for name := range configFieldReasons {
		if !fields[name] {
			t.Errorf("configFieldReasons names Config.%s, which is not a field", name)
		}
	}
}
