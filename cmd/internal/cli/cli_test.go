package cli

import (
	"flag"
	"io"
	"testing"

	"lbchat/internal/experiments"
	"lbchat/internal/tensor"
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
		{"shards", []string{"-shards", "4"}, func(s *experiments.Scale) { *s = bench; s.Shards = 4 }},
		{"stream-trace", []string{"-stream-trace"}, func(s *experiments.Scale) { *s = bench; s.StreamTrace = true }},
		{"full-coreset-rebuild", []string{"-full-coreset-rebuild"}, func(s *experiments.Scale) { *s = bench; s.FullCoresetRebuild = true }},
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

// TestFlagErrors pins the rejections: an unknown scale, both trace sources
// at once, and the retired -legacy-due-scan flag.
func TestFlagErrors(t *testing.T) {
	c, err := parse("-scale", "galactic")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Scale(); err == nil {
		t.Error("unknown -scale accepted")
	}

	c, err = parse("-trace-file", "a.lbtc", "-trace-url", "http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	scale := experiments.TestScale()
	if _, err := c.ApplyTrace(&scale); err == nil {
		t.Error("-trace-file together with -trace-url accepted")
	}

	if _, err := parse("-legacy-due-scan"); err == nil {
		t.Error("-legacy-due-scan still parses; the flag was deleted with the scan arm")
	}
}
