package model

import (
	"reflect"
	"testing"
)

// tinyModels is the reason the architecture fields stand: the fleet-scan
// workload sets them to a two-unit model so that 4096 policies cost nothing.
const tinyModels = "fleet-scan's tiny models (benchmarks/perf)"

// configFieldReasons accounts for every Config field: the non-test caller
// that sets it to a second value, or why it is a field although none does.
// A setting nobody varies is a constant (l2Penalty, entropyPenalty).
var configFieldReasons = map[string]string{
	"BEVChannels":  tinyModels,
	"BEVHeight":    tinyModels,
	"BEVWidth":     tinyModels,
	"Hidden":       tinyModels,
	"NumWaypoints": tinyModels,
	"LR":           "read by benchmarks/perf/kernels.go (mc.LR) → ROADMAP item 13(d)",
	"UseConv":      "assigned by benchmarks/perf/workload_fleet.go; deleted with that line by ROADMAP item 13(d)",
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
