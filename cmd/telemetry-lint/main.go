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
// With -diff it compares two streams instead, event by event as
// telemetry.Decode reads them: it prints the first event where they differ
// (or that they agree) and, per kind, how many more events the second holds.
// Streams that differ fail with a non-zero exit.
//
// Usage:
//
//	telemetry-lint events.jsonl
//	telemetry-lint -summary summary.csv events.jsonl
//	telemetry-lint -diff a.jsonl b.jsonl
package main

import (
	"bufio"
	"bytes"
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
	diff := flag.Bool("diff", false, "compare two streams: the first divergent event and the per-kind count deltas")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: telemetry-lint [-summary summary.csv] <events.jsonl>\n       telemetry-lint -diff <a.jsonl> <b.jsonl>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 || *summaryPath != "" {
			flag.Usage()
			return fmt.Errorf("-diff takes exactly two streams and no -summary")
		}
		return diffStreams(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 1 {
		flag.Usage()
		return fmt.Errorf("expected exactly one input file")
	}
	path := flag.Arg(0)
	events, err := readStream(path)
	if err != nil {
		return err
	}
	counts := kindCounts(events)
	kinds := sortedKeys(counts)
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

// readStream decodes a non-empty JSONL event stream.
func readStream(path string) ([]telemetry.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("%s: no events", path)
	}
	return events, nil
}

func kindCounts(events []telemetry.Event) map[string]int {
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Kind()]++
	}
	return counts
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diffStreams compares two streams event by event, each decoded and encoded
// again so that only what the schema reads is compared, and reports the
// first event that differs and the per-kind count deltas (b − a). Streams
// that differ are an error.
func diffStreams(pathA, pathB string) error {
	a, err := readStream(pathA)
	if err != nil {
		return err
	}
	b, err := readStream(pathB)
	if err != nil {
		return err
	}
	first := -1
	var lineA, lineB []byte
	for i := 0; i < max(len(a), len(b)) && first < 0; i++ {
		lineA, lineB = nil, nil
		if i < len(a) {
			if lineA, err = telemetry.Encode(a[i]); err != nil {
				return fmt.Errorf("%s: event %d: %w", pathA, i+1, err)
			}
		}
		if i < len(b) {
			if lineB, err = telemetry.Encode(b[i]); err != nil {
				return fmt.Errorf("%s: event %d: %w", pathB, i+1, err)
			}
		}
		if !bytes.Equal(lineA, lineB) {
			first = i
		}
	}
	if first < 0 {
		fmt.Printf("%s and %s: %d events, no divergence\n", pathA, pathB, len(a))
		return nil
	}
	show := func(line []byte) string {
		if line == nil {
			return "(stream ended)"
		}
		return string(line)
	}
	fmt.Printf("first divergent event: #%d of %d / %d\n  a: %s\n  b: %s\n", first+1, len(a), len(b), show(lineA), show(lineB))
	ca, cb := kindCounts(a), kindCounts(b)
	union := map[string]int{}
	for k := range ca {
		union[k] = 0
	}
	for k := range cb {
		union[k] = 0
	}
	fmt.Println("per-kind counts (a → b):")
	for _, k := range sortedKeys(union) {
		if d := cb[k] - ca[k]; d != 0 {
			fmt.Printf("  %-20s %d → %d (%+d)\n", k, ca[k], cb[k], d)
		} else {
			fmt.Printf("  %-20s %d\n", k, ca[k])
		}
	}
	return fmt.Errorf("the streams diverge at event %d", first+1)
}
