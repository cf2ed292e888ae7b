package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lbchat/internal/experiments"
)

func selected(t *testing.T, exp string) []string {
	t.Helper()
	sel, err := selection(exp)
	if err != nil {
		t.Fatalf("selection(%q): %v", exp, err)
	}
	out := make([]string, len(sel))
	for i, x := range sel {
		out[i] = x.Name
	}
	return out
}

func TestSelection(t *testing.T) {
	var paper, order []string
	for _, x := range experiments.Catalogue {
		order = append(order, x.Name)
		if x.Paper {
			paper = append(paper, x.Name)
		}
	}
	if got := selected(t, "all"); !slices.Equal(got, paper) {
		t.Errorf("all selects %v, want the Paper entries %v", got, paper)
	}
	// Order follows the catalogue, not the flag; duplicates and blanks around
	// commas collapse.
	got := selected(t, "quant, tab3,fig2a,tab3,quant")
	want := []string{"fig2a", "tab3", "quant"}
	if !slices.Equal(got, want) {
		t.Errorf("selection = %v, want %v", got, want)
	}
	if !slices.IsSortedFunc(got, func(a, b string) int {
		return slices.Index(order, a) - slices.Index(order, b)
	}) {
		t.Errorf("selection %v is not in catalogue order", got)
	}
	// all plus an extension keeps both.
	if got := selected(t, "hetero,all"); !slices.Equal(got, append(slices.Clone(paper), "hetero")) {
		t.Errorf("hetero,all selects %v", got)
	}
}

func TestFleetScanAloneBuildsNoEnvironment(t *testing.T) {
	sel, err := selection(experiments.ExpFleetScan)
	if err != nil || len(sel) != 1 {
		t.Fatalf("selection: %v, %v", sel, err)
	}
	if slices.ContainsFunc(sel, trains) {
		t.Error("fleetscan alone would build the environment")
	}
	sel, err = selection("fleetscan,tab4")
	if err != nil || !slices.ContainsFunc(sel, trains) {
		t.Errorf("fleetscan,tab4: no entry asks for the environment (%v)", err)
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	for _, exp := range []string{"tab8", "fig2a,tabb3", "tab8,nope", "", "fig2a,", experiments.ExpProtocol} {
		sel, err := selection(exp)
		if err == nil {
			t.Errorf("selection(%q) accepted: %v", exp, sel)
			continue
		}
		for _, x := range experiments.Catalogue {
			if x.Name != experiments.ExpProtocol && !strings.Contains(err.Error(), x.Name) {
				t.Errorf("selection(%q) error %q does not list %s", exp, err, x.Name)
			}
		}
	}
}

// TestBadFaultsKeepsTelemetryFile pins the flag order: a -faults value that
// does not resolve fails the command before -telemetry-out is created, so a
// previous recording at that path survives byte for byte.
func TestBadFaultsKeepsTelemetryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	old := []byte(`{"type":"loss_recorded","time":0,"loss":1}` + "\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("lbchat-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := run(fs, []string{"-scale", "test", "-exp", "tab4", "-faults", "bogus", "-telemetry-out", path})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("-faults bogus: error %v, want the unknown profile named", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
		t.Errorf("-telemetry-out file changed by a failed run: %q, want %q", got, old)
	}
}
