package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the harness side of
// the layer's public API. Parent is the index of the enclosing span in the
// same recorder, -1 at the top.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
}

// recorder keeps spans in memory until the process exits. A nil or
// switched-off recorder records nothing, so the untraced passes that
// produce the end-to-end metrics pay no timer calls.
type recorder struct {
	on    bool
	run   string
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder(on bool, run string) *recorder {
	return &recorder{on: on, run: run, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id for
// end; -1 when recording is off.
func (r *recorder) begin(name string) int {
	if r == nil || !r.on {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, StartNs: time.Since(r.t0).Nanoseconds(), Parent: parent, Run: r.run})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned and reports its duration in seconds.
func (r *recorder) end(id int) float64 {
	if id < 0 {
		return 0
	}
	s := &r.spans[id]
	s.EndNs = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
	return float64(s.EndNs-s.StartNs) / 1e9
}

// timed runs fn inside a span and returns the span's seconds. It measures
// with or without recording, because set-up splits are reported either way.
func (r *recorder) timed(name string, fn func()) float64 {
	id := r.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	r.end(id)
	return d
}

// ledgerRow is the per-name aggregate of a span set.
type ledgerRow struct {
	name        string
	calls       int
	total, self float64
}

// ledger aggregates, by name, the spans named root and everything they
// enclose; self time is a span's duration minus the part its direct
// children cover.
func (r *recorder) ledger(root string) []ledgerRow {
	childSum := make([]int64, len(r.spans))
	inside := make([]bool, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.EndNs - s.StartNs
		}
		// A parent always precedes its children.
		inside[i] = s.Name == root || (s.Parent >= 0 && inside[s.Parent])
	}
	byName := map[string]*ledgerRow{}
	var order []string
	for i, s := range r.spans {
		if !inside[i] {
			continue
		}
		row, ok := byName[s.Name]
		if !ok {
			row = &ledgerRow{name: s.Name}
			byName[s.Name] = row
			order = append(order, s.Name)
		}
		d := s.EndNs - s.StartNs
		row.calls++
		row.total += float64(d) / 1e9
		row.self += float64(d-childSum[i]) / 1e9
	}
	sort.Strings(order)
	out := make([]ledgerRow, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// printLedger writes the "where the time goes" table for one root span:
// every span name under it with its call count, total and self seconds,
// and self time as a share of the root's total. extra rows are timings the
// program itself reports for work inside the root's self time.
func (r *recorder) printLedger(w io.Writer, root string, extra []ledgerRow) {
	rows := append(r.ledger(root), extra...)
	if len(rows) == 0 {
		return
	}
	var rootTotal float64
	for _, row := range rows {
		if row.name == root {
			rootTotal = row.total
		}
	}
	fmt.Fprintf(w, "%-24s %8s %10s %10s %7s\n", "span", "calls", "total_s", "self_s", "share")
	for _, row := range rows {
		fmt.Fprintf(w, "%-24s %8d %10.4f %10.4f %6.1f%%\n", row.name, row.calls, row.total, row.self, 100*ratio(row.self, rootTotal))
	}
}

// appendSpans adds one recorder's spans to a merged dump. A recorder
// numbers parents from its own first span, so they shift by the spans
// already there.
func appendSpans(dst, got []span) []span {
	base := len(dst)
	for _, s := range got {
		if s.Parent >= 0 {
			s.Parent += base
		}
		dst = append(dst, s)
	}
	return dst
}

// writeSpans dumps the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
