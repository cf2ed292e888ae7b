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

// runArgs runs the command on a fresh flag set and returns its stdout.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	fs := flag.NewFlagSet("lbchat-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	runErr := run(fs, args)
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), runErr
}

// guardedFile writes a previous recording and returns its path and bytes.
func guardedFile(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	old := []byte(`{"type":"loss_recorded","time":0,"loss":1}` + "\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, old
}

// TestBadFaultsKeepsTelemetryFile pins the flag order: a -faults value that
// does not resolve fails the command before -telemetry-out is created, so a
// previous recording at that path survives byte for byte.
func TestBadFaultsKeepsTelemetryFile(t *testing.T) {
	path, old := guardedFile(t)
	_, err := runArgs(t, "-scale", "test", "-faults", "bogus", "-telemetry-out", path)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("-faults bogus: error %v, want the unknown profile named", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
		t.Errorf("-telemetry-out file changed by a failed run: %q, want %q", got, old)
	}
}

// TestIgnoredFlagsRejected requires a flag that would be dropped to fail the
// command, naming it, before -telemetry-out is created or an environment is
// built: every flag that shapes only training next to -load-fleet, and
// -vehicles or -trace-ticks next to -trace-file, which fixes both.
func TestIgnoredFlagsRejected(t *testing.T) {
	path, old := guardedFile(t)
	dir := t.TempDir()
	values := map[string]string{
		"duration": "60", "vehicles": "4", "wireless-loss": "true", "trace-ticks": "99",
		"trace-file": filepath.Join(dir, "t.lbtc"), "faults": "light", "telemetry-out": path,
		"summary-out": filepath.Join(dir, "s.csv"), "json": filepath.Join(dir, "r.json"),
		"save-fleet": filepath.Join(dir, "saved"),
	}
	type tc struct {
		args []string
		want string // the error names this
	}
	var cases []tc
	load := []string{"-scale", "test", "-trials", "1", "-load-fleet", filepath.Join(dir, "fleet"), "-telemetry-out", path}
	for _, name := range trainingFlags {
		cases = append(cases, tc{append(append([]string(nil), load...), "-"+name+"="+values[name]), "-" + name})
	}
	replay := []string{"-scale", "test", "-trace-file", values["trace-file"], "-telemetry-out", path}
	cases = append(cases,
		tc{append(append([]string(nil), replay...), "-vehicles", "50"), "-vehicles"},
		tc{append(append([]string(nil), replay...), "-trace-ticks", "99999"), "-trace-ticks"},
		tc{[]string{"-scale", "test", "-load-fleet", dir, "-telemetry-out", path}, "-trials"},
		tc{[]string{"-scale", "test", "-trials", "-1", "-telemetry-out", path}, "-trials"},
	)
	for _, c := range cases {
		_, err := runArgs(t, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one naming %s", c.args, err, c.want)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
			t.Fatalf("%v: -telemetry-out file changed by a failed run: %q, want %q", c.args, got, old)
		}
	}
}

// TestRemovedFlagsRejected: -log-chats printed each chat's decision to
// stderr; the chat_decision event of -telemetry-out carries it now, so the
// flag fails to parse rather than being accepted and ignored.
func TestRemovedFlagsRejected(t *testing.T) {
	_, err := runArgs(t, "-scale", "test", "-log-chats")
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-log-chats: error %v, want an undefined flag", err)
	}
}

// drivingTable returns the per-condition rate lines a run printed.
func drivingTable(t *testing.T, out string) []string {
	t.Helper()
	at := strings.Index(out, "Running driving benchmark")
	if at < 0 {
		t.Fatalf("no driving table in:\n%s", out)
	}
	_, table, _ := strings.Cut(out[at:], "\nTask ")
	return strings.Split(strings.TrimSpace(table), "\n")[1:]
}

// TestSavedFleetDrivesLikeTrained requires a fleet saved by -save-fleet and
// driven with -load-fleet to print the in-process run's driving table line
// for line: a blob holds the trained parameters bit for bit. A blob that
// rounded them (float32) drives differently at this scale.
func TestSavedFleetDrivesLikeTrained(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	trained, err := runArgs(t, "-scale", "test", "-duration", "400", "-trials", "4", "-save-fleet", dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := runArgs(t, "-scale", "test", "-trials", "4", "-load-fleet", dir)
	if err != nil {
		t.Fatal(err)
	}
	want, got := drivingTable(t, trained), drivingTable(t, loaded)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("loaded fleet drives\n%s\ntrained fleet drove\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	driven := false
	for _, line := range want {
		driven = driven || !strings.HasSuffix(line, " 0%")
	}
	if len(want) != 5 || !driven {
		t.Errorf("trained fleet's table %q: want five conditions, not all at 0%%", want)
	}
}
