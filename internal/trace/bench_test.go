package trace

import (
	"bytes"
	"testing"
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
				src, err := bytesSource(raw)
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

// BenchmarkWindowRowAt measures the in-window lookup path against the
// resident trace's: after Advance, Row/RowAt is the same few instructions
// either way — one range check and a retained-chunk lookup, nothing
// per-vehicle.
func BenchmarkWindowRowAt(b *testing.B) {
	const vehicles, ticks = 64, 1024
	raw, tr := benchStream(b, vehicles, ticks)
	chunks, err := bytesSource(raw)
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
		s    *Trace
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
