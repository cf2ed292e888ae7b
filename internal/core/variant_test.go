package core_test

import (
	"slices"
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/experiments"
)

// TestVariantNamesAreProtocols: every LbChat arm's name is a protocol the
// harness runs, and the protocol built for the arm reports that name.
func TestVariantNamesAreProtocols(t *testing.T) {
	for v := core.Variant(0); int(v) < core.NumVariants; v++ {
		name := v.String()
		if !slices.Contains(experiments.Protocols, experiments.ProtocolName(name)) {
			t.Errorf("Variant %d is %q, not one of experiments.Protocols %v", v, name, experiments.Protocols)
		}
		if got := core.NewLbChatVariant(v).Name(); got != name {
			t.Errorf("NewLbChatVariant(%q).Name() = %q", name, got)
		}
	}
	if got := core.NewLbChat().Name(); got != "LbChat" {
		t.Errorf("NewLbChat().Name() = %q, want LbChat", got)
	}
}
