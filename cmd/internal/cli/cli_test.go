package cli

import (
	"bytes"
	"encoding/binary"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbchat/internal/experiments"
	"lbchat/internal/tensor"
	"lbchat/internal/trace"
)

// parse registers the shared flags on a fresh flag set and parses args.
func parse(args ...string) (*Common, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := Register(fs)
	return c, fs.Parse(args)
}

// TestFlagsReachScale pins the wiring from each shared flag to the
// experiments.Scale field it sets.
func TestFlagsReachScale(t *testing.T) {
	defer tensor.SetWorkers(0) // Scale() mirrors -workers into the tensor pool
	test, bench := experiments.TestScale(), experiments.BenchScale()
	cases := []struct {
		name string
		args []string
		want func(s *experiments.Scale)
	}{
		{"defaults", nil, func(s *experiments.Scale) { *s = bench }},
		// Without -seed the scale keeps its own seed, not the flag default.
		{"scale", []string{"-scale", "test"}, func(s *experiments.Scale) { *s = test }},
		{"seed", []string{"-seed", "42"}, func(s *experiments.Scale) { *s = bench; s.Seed = 42 }},
		{"workers", []string{"-workers", "3"}, func(s *experiments.Scale) { *s = bench; s.Workers = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parse(tc.args...)
			if err != nil {
				t.Fatalf("parsing %v: %v", tc.args, err)
			}
			got, err := c.Scale()
			if err != nil {
				t.Fatalf("Scale: %v", err)
			}
			var want experiments.Scale
			tc.want(&want)
			if got != want {
				t.Errorf("args %v:\n got %+v\nwant %+v", tc.args, got, want)
			}
		})
	}
}

// writeTrace records a small LBTC stream and returns its bytes.
func writeTrace(t *testing.T, vehicles, ticks int) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := trace.NewChunkWriter(&buf, 0.5, vehicles, 4)
	for i := 0; i < ticks; i++ {
		cw.AppendRow()
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplyTraceFile pins -trace-file resolution: the file is probed for
// its fleet size and length and handed to the experiment layer by path.
func TestApplyTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.lbtc")
	if err := os.WriteFile(path, writeTrace(t, 3, 10), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := parse("-trace-file", path)
	if err != nil {
		t.Fatal(err)
	}
	scale := experiments.TestScale()
	if err := c.ApplyTrace(&scale); err != nil {
		t.Fatal(err)
	}
	if scale.TracePath != path || scale.Vehicles != 3 || scale.TraceTicks != 10 {
		t.Errorf("scale after ApplyTrace: path %q, %d vehicles, %d ticks", scale.TracePath, scale.Vehicles, scale.TraceTicks)
	}
}

// TestFlagErrors pins the rejections: an unknown scale, both trace sources
// at once, a trace file that is missing, truncated, corrupt or hostile (each
// named in the error), and the retired arm flags.
func TestFlagErrors(t *testing.T) {
	c, err := parse("-scale", "galactic")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Scale(); err == nil {
		t.Error("unknown -scale accepted")
	}

	dir := t.TempDir()
	good := writeTrace(t, 3, 10)
	corrupt := append([]byte("XXXX"), good[4:]...)
	// 2^30 vehicles × 2^30 ticks per chunk, one chunk claiming 2^30 ticks,
	// end marker: 32 bytes whose body size wraps int64 to zero.
	hostile := append([]byte(nil), good[:16]...)
	for i := 0; i < 3; i++ {
		hostile = binary.LittleEndian.AppendUint32(hostile, 1<<30)
	}
	hostile = binary.LittleEndian.AppendUint32(hostile, 0)
	files := map[string][]byte{"truncated.lbtc": good[:len(good)-9], "corrupt.lbtc": corrupt, "hostile.lbtc": hostile}
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		args []string
		want string // substring the error must carry
	}{
		{"missing file", []string{"-trace-file", filepath.Join(dir, "missing.lbtc")}, "missing.lbtc"},
		{"truncated file", []string{"-trace-file", filepath.Join(dir, "truncated.lbtc")}, "truncated.lbtc"},
		{"corrupt file", []string{"-trace-file", filepath.Join(dir, "corrupt.lbtc")}, "corrupt.lbtc"},
		{"hostile header", []string{"-trace-file", filepath.Join(dir, "hostile.lbtc")}, "hostile.lbtc"},
	} {
		c, err := parse(tc.args...)
		if err != nil {
			t.Fatal(err)
		}
		scale := experiments.TestScale()
		if err := c.ApplyTrace(&scale); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	for _, args := range [][]string{{"-legacy-due-scan"}, {"-full-coreset-rebuild"}, {"-stream-trace"}, {"-shards", "4"}} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%v still parses; the flag was deleted with its arm", args)
		}
	}
}
