package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFaultsKeepsTelemetryFile pins the flag order: a -faults value that
// does not resolve fails the command before -telemetry-out is created, so a
// previous recording at that path survives byte for byte.
func TestBadFaultsKeepsTelemetryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	old := []byte(`{"type":"loss_recorded","time":0,"loss":1}` + "\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("lbchat-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := run(fs, []string{"-scale", "test", "-faults", "bogus", "-telemetry-out", path})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("-faults bogus: error %v, want the unknown profile named", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
		t.Errorf("-telemetry-out file changed by a failed run: %q, want %q", got, old)
	}
}
