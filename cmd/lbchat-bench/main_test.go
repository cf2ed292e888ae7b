package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lbchat/internal/experiments"
	"lbchat/internal/telemetry"
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

func TestUnknownExperimentRejected(t *testing.T) {
	for _, exp := range []string{"tab8", "fig2a,tabb3", "tab8,nope", "", "fig2a,", experiments.ExpProtocol, "fleetscan"} {
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

// TestRemovedFlagsRejected: -vehicles and -duration sized the removed
// synthetic fleet scan; no entry reads them, so they fail to parse rather
// than being accepted and ignored.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{{"-vehicles", "10"}, {"-duration", "60"}} {
		fs := flag.NewFlagSet("lbchat-bench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := run(fs, append([]string{"-scale", "test", "-exp", "tab4"}, args...)); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: error %v, want an undefined flag", args, err)
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

// lbchatCurve is the printed listing of an entry's LbChat loss curve.
var lbchatCurve = regexp.MustCompile(`(?m)^# LbChat\n(?:^ +\d+  \d\.\d{6}\n)+`)

// TestSharedArmsTrainOnce walks fig2a, tab2 and fig3 with a telemetry
// stream: tab2 reads fig2a's runs and fig3's LbChat is fig2a's, so the
// stream holds the five fig2a runs and fig3's SCO — six runs, not seven —
// and fig3 prints fig2a's LbChat curve, whose end is the streamed final
// loss.
func TestSharedArmsTrainOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	stdout, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer func(old *os.File) { os.Stdout = old }(os.Stdout)
	os.Stdout = stdout
	fs := flag.NewFlagSet("lbchat-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err = run(fs, []string{"-scale", "test", "-exp", "fig2a,tab2,fig3", "-telemetry-out", path})
	stdout.Close()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	var started []string
	var lbchatFinal []float64
	for _, ev := range events {
		switch ev := ev.(type) {
		case telemetry.RunStarted:
			started = append(started, ev.Protocol)
		case telemetry.RunFinished:
			if ev.Protocol == string(experiments.ProtoLbChat) {
				lbchatFinal = append(lbchatFinal, ev.FinalLoss)
			}
		}
	}
	if want := []string{"ProxSkip", "RSU-L", "DFL-DDS", "DP", "LbChat", "SCO"}; !slices.Equal(started, want) {
		t.Fatalf("stream starts runs %v, want %v", started, want)
	}
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	curves := lbchatCurve.FindAll(out, -1)
	if len(curves) != 2 || !bytes.Equal(curves[0], curves[1]) {
		t.Fatalf("fig2a and fig3 print %d LbChat curves, want the same one twice:\n%s", len(curves), bytes.Join(curves, nil))
	}
	lines := strings.Split(strings.TrimSpace(string(curves[1])), "\n")
	if want := fmt.Sprintf("%.6f", lbchatFinal[0]); !strings.HasSuffix(lines[len(lines)-1], want) {
		t.Errorf("fig3's LbChat curve ends %q, the streamed final loss is %s", lines[len(lines)-1], want)
	}
}
