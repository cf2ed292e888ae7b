// Command telemetry-lint validates a telemetry JSONL event stream written
// by -telemetry-out: it decodes every line against the event schema and
// prints per-kind counts. A file that is empty, has undecodable lines, or
// contains unknown event kinds fails with a non-zero exit, so the stream
// format stays machine-readable (make telemetry-smoke relies on this).
//
// With -summary it additionally validates a summary CSV dump (from
// lbchat-sim -summary-out) against the canonical metric-name registry, so
// counters added by new subsystems — e.g. the trace.chunk_* counters
// windowed runs emit — are caught if they drift from telemetry.KnownMetrics.
//
// Usage:
//
//	telemetry-lint events.jsonl
//	telemetry-lint -summary summary.csv events.jsonl
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"lbchat/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry-lint: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	summaryPath := flag.String("summary", "",
		"also validate this summary CSV (lbchat-sim -summary-out) against the canonical metric names")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: telemetry-lint [-summary summary.csv] <events.jsonl>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return fmt.Errorf("expected exactly one input file")
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: no events", path)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Kind()]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("%s: %d events, %d kinds\n", path, len(events), len(kinds))
	for _, k := range kinds {
		fmt.Printf("  %-20s %d\n", k, counts[k])
	}
	if *summaryPath != "" {
		return lintSummary(*summaryPath)
	}
	return nil
}

// lintSummary validates a Registry.WriteCSV dump: every row must be
// counter/hist, name a canonical metric (or a dynamic per-fault counter),
// and carry a numeric value.
func lintSummary(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	known := map[string]bool{}
	for _, name := range telemetry.KnownMetrics() {
		known[name] = true
	}
	names := map[string]bool{}
	rows := 0
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return fmt.Errorf("%s:%d: %d fields, want 4 (kind,name,label,value)", path, line, len(parts))
		}
		kind, name, value := parts[0], parts[1], parts[3]
		if kind != "counter" && kind != "hist" {
			return fmt.Errorf("%s:%d: unknown row kind %q", path, line, kind)
		}
		if !known[name] && !strings.HasPrefix(name, "fault.") {
			return fmt.Errorf("%s:%d: metric %q is not in telemetry.KnownMetrics", path, line, name)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("%s:%d: non-numeric value %q", path, line, value)
		}
		names[name] = true
		rows++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rows == 0 {
		return fmt.Errorf("%s: no summary rows", path)
	}
	fmt.Printf("%s: %d rows, %d metrics, all canonical\n", path, rows, len(names))
	return nil
}
