package trace

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"lbchat/internal/geom"
)

// benchStream encodes a synthetic trace once and hands out fresh readers:
// windows are forward-only, so every benchmark iteration pages through a
// new window over the same bytes.
func benchStream(b *testing.B, vehicles, ticks int) ([]byte, *Trace) {
	b.Helper()
	tr := NewChunked(0.5, vehicles, DefaultChunkTicks)
	for t := 0; t < ticks; t++ {
		row := tr.AppendRow()
		for v := range row {
			row[v].X = float64(t%97) + float64(v)
			row[v].Y = float64(t%89) - float64(v)
		}
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), tr
}

// BenchmarkWindowAdvance pages a window across the whole trace tick by tick
// — the per-engine-tick cost of the streaming source, dominated by chunk
// decode at each seam crossing. The prefetch variant overlaps the decode
// with the ticks before the seam.
func BenchmarkWindowAdvance(b *testing.B) {
	const vehicles, ticks = 64, 4096
	raw, _ := benchStream(b, vehicles, ticks)
	for _, mode := range []struct {
		name     string
		prefetch bool
	}{{"sync", false}, {"prefetch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, err := NewBytesSource(raw)
				if err != nil {
					b.Fatal(err)
				}
				w := NewWindowSource(src, WindowConfig{Prefetch: mode.prefetch})
				for t := 0; t < ticks; t++ {
					if err := w.Advance(t); err != nil {
						b.Fatal(err)
					}
				}
				w.Close()
			}
		})
	}
}

// consumeRow is the benchmark's stand-in for the engine's per-tick trace
// reads: a few passes of distance arithmetic over the row, so the cursor
// advances at a realistic rate instead of memory speed — which is what
// gives the adaptive depth a rate to measure against the fetch latency.
func consumeRow(row []geom.Point) float64 {
	var sum float64
	for rep := 0; rep < 16; rep++ {
		for v := range row {
			sum += row[v].Dist(row[0])
		}
	}
	return sum
}

// BenchmarkWindowAdvanceLatency pages the window over a chunk source with
// an injected 3ms per-fetch latency — a stand-in for a chunk server on a
// degraded link — with no readahead (sync) and with the adaptive depth
// (adaptive). The per-tick consumer work makes one chunk's worth of ticks
// cheaper than one fetch, so the adaptive pipeline has to keep several
// fetches in flight to hide the latency; nolat/sync is the zero-latency
// floor the adaptive variant is judged against (EXPERIMENTS.md holds the
// measured table).
func BenchmarkWindowAdvanceLatency(b *testing.B) {
	const vehicles, ticks = 64, 32768
	raw, _ := benchStream(b, vehicles, ticks)
	for _, mode := range []struct {
		name    string
		latency time.Duration
		cfg     WindowConfig
	}{
		{"nolat/sync", 0, WindowConfig{}},
		{"lat3ms/sync", 3 * time.Millisecond, WindowConfig{}},
		{"lat3ms/adaptive", 3 * time.Millisecond, WindowConfig{Prefetch: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum float64
			for i := 0; i < b.N; i++ {
				inner, err := NewBytesSource(raw)
				if err != nil {
					b.Fatal(err)
				}
				var src ChunkSource = inner
				if mode.latency > 0 {
					src = &delaySource{ChunkSource: inner, delay: mode.latency}
				}
				w := NewWindowSource(src, mode.cfg)
				for t := 0; t < ticks; t++ {
					if err := w.Advance(t); err != nil {
						b.Fatal(err)
					}
					sum += consumeRow(w.Row(t))
					// The engine's tick is full of scheduling points (worker
					// channels); an unbroken busy loop would
					// starve the prefetch goroutines' timers on a single-core
					// box and measure the scheduler, not the readahead policy.
					// Yielding every few ticks is enough for ms-scale timers.
					if t%16 == 0 {
						runtime.Gosched()
					}
				}
				w.Close()
			}
			benchSink = sum
		})
	}
}

// BenchmarkWindowRowAt measures the in-window lookup path against the
// resident trace's: after Advance, Row/RowAt must cost the same few
// instructions either way — the window adds one range check and a chunk
// ring lookup, nothing per-vehicle.
func BenchmarkWindowRowAt(b *testing.B) {
	const vehicles, ticks = 64, 1024
	raw, tr := benchStream(b, vehicles, ticks)
	chunks, err := NewBytesSource(raw)
	if err != nil {
		b.Fatal(err)
	}
	w := NewWindowSource(chunks, WindowConfig{})
	defer w.Close()
	w.Reserve(1e9, 1e9)
	if err := w.Advance(ticks - 1); err != nil {
		b.Fatal(err)
	}
	for _, src := range []struct {
		name string
		s    Source
	}{{"window", w}, {"resident", tr}} {
		b.Run(src.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				row := src.s.RowAt(float64(i%ticks) * 0.5)
				sink += row[i%vehicles].X
			}
			benchSink = sink
		})
	}
}

var benchSink float64
