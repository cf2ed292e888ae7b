package trace

import (
	"bytes"
	"math"
	"testing"

	"lbchat/internal/geom"
	"lbchat/internal/simrand"
	"lbchat/internal/world"
)

func record(t *testing.T, vehicles, ticks int) *Trace {
	t.Helper()
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(m, world.SpawnConfig{Experts: vehicles}, simrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return Record(w, ticks, 0.5)
}

func TestRecordShape(t *testing.T) {
	tr := record(t, 3, 40)
	if tr.NumTicks() != 40 {
		t.Errorf("ticks = %d", tr.NumTicks())
	}
	if tr.NumVehicles() != 3 {
		t.Errorf("vehicles = %d", tr.NumVehicles())
	}
	if tr.Duration() != 20 {
		t.Errorf("duration = %v", tr.Duration())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := record(t, 2, 10)
	tr.chunks[0] = tr.chunks[0][:3]
	if tr.Validate() == nil {
		t.Error("truncated chunk accepted")
	}
	tr2 := &Trace{}
	if tr2.Validate() == nil {
		t.Error("zero tick interval accepted")
	}
}

func TestAtClampsTime(t *testing.T) {
	tr := record(t, 2, 20)
	first := tr.At(0, -5)
	if first != tr.Row(0)[0] {
		t.Error("negative time should clamp to first tick")
	}
	last := tr.At(0, 9999)
	if last != tr.Row(tr.NumTicks() - 1)[0] {
		t.Error("overlong time should clamp to last tick")
	}
}

func TestVehiclesActuallyMove(t *testing.T) {
	tr := record(t, 2, 120)
	if tr.At(0, 0).Dist(tr.At(0, 60)) < 20 {
		t.Error("vehicle barely moved over a minute")
	}
}

func TestDistanceSymmetric(t *testing.T) {
	tr := record(t, 3, 30)
	if tr.Distance(0, 1, 5) != tr.Distance(1, 0, 5) {
		t.Error("distance not symmetric")
	}
	if tr.Distance(2, 2, 5) != 0 {
		t.Error("self distance nonzero")
	}
}

func TestContactDuration(t *testing.T) {
	tr := record(t, 4, 400)
	// Out-of-range pairs have zero contact.
	found := false
	for a := 0; a < 4 && !found; a++ {
		for b := a + 1; b < 4 && !found; b++ {
			if tr.Distance(a, b, 0) > 200 {
				if got := tr.ContactDuration(a, b, 0, 200, 60); got != 0 {
					t.Errorf("out-of-range contact = %v", got)
				}
				found = true
			}
		}
	}
	// In-range contact durations are bounded by the horizon and positive.
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if tr.Distance(a, b, 0) <= 500 {
				d := tr.ContactDuration(a, b, 0, 500, 60)
				if d < 0 || d > 60 {
					t.Errorf("contact duration %v outside [0, horizon]", d)
				}
			}
		}
	}
}

func TestContactDurationHorizonCap(t *testing.T) {
	tr := record(t, 2, 1000)
	d := tr.ContactDuration(0, 1, 0, 1e9, 30)
	if math.Abs(d-30) > tr.DT() {
		t.Errorf("infinite-range contact should cap at horizon: %v", d)
	}
}

func TestRecordDeterministic(t *testing.T) {
	a := record(t, 3, 50)
	b := record(t, 3, 50)
	for tick := 0; tick < a.NumTicks(); tick++ {
		ra, rb := a.Row(tick), b.Row(tick)
		for v := range ra {
			if ra[v] != rb[v] {
				t.Fatalf("traces diverge at tick %d vehicle %d", tick, v)
			}
		}
	}
}

func TestChunkBoundaries(t *testing.T) {
	// 4-tick chunks, 10 ticks: two full chunks plus a 2-tick tail. Every
	// accessor must agree across the boundaries.
	tr := NewChunked(0.5, 3, 4)
	rows := make([][]geom.Point, 10)
	for tick := range rows {
		rows[tick] = make([]geom.Point, 3)
		row := tr.AppendRow()
		for v := range row {
			p := geom.Point{X: float64(tick*10 + v), Y: float64(tick - v)}
			row[v] = p
			rows[tick][v] = p
		}
	}
	if tr.NumTicks() != 10 || tr.NumVehicles() != 3 {
		t.Fatalf("shape = %d ticks × %d vehicles", tr.NumTicks(), tr.NumVehicles())
	}
	if len(tr.chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(tr.chunks))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for tick := range rows {
		got := tr.Row(tick)
		for v := range rows[tick] {
			if got[v] != rows[tick][v] {
				t.Fatalf("Row(%d)[%d] = %v, want %v", tick, v, got[v], rows[tick][v])
			}
			if at := tr.At(v, float64(tick)*tr.DT()); at != rows[tick][v] {
				t.Fatalf("At(%d, tick %d) = %v, want %v", v, tick, at, rows[tick][v])
			}
		}
	}
	// FromRows over the same data is identical.
	fr := FromRows(0.5, rows)
	for tick := range rows {
		a, b := tr.Row(tick), fr.Row(tick)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("FromRows diverges at tick %d vehicle %d", tick, v)
			}
		}
	}
}

func TestAppendRowDoesNotAllocatePerTick(t *testing.T) {
	tr := NewChunked(1, 64, 256)
	// Prime the first chunk so steady-state (within-chunk) appends are
	// measured; 100 runs stay well inside the 256-tick chunk.
	tr.AppendRow()
	allocs := testing.AllocsPerRun(100, func() {
		tr.AppendRow()
	})
	if allocs != 0 {
		t.Errorf("AppendRow allocates %.1f objects per steady-state tick", allocs)
	}
}

// loadBytes materializes an encoded LBTC stream the way a file is: index,
// then Load.
func loadBytes(raw []byte) (*Trace, error) {
	src, err := NewBytesSource(raw)
	if err != nil {
		return nil, err
	}
	return Load(src)
}

func TestStreamRoundTrip(t *testing.T) {
	tr := record(t, 5, 70)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := loadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.DT() != tr.DT() || got.NumTicks() != tr.NumTicks() || got.NumVehicles() != tr.NumVehicles() {
		t.Fatalf("round-trip shape: dt %v ticks %d vehicles %d", got.DT(), got.NumTicks(), got.NumVehicles())
	}
	for tick := 0; tick < tr.NumTicks(); tick++ {
		a, b := tr.Row(tick), got.Row(tick)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("round-trip diverges at tick %d vehicle %d: %v vs %v", tick, v, a[v], b[v])
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRoundTripChunkBoundary(t *testing.T) {
	// Exactly full chunks and a partial tail, tiny chunk size.
	for _, ticks := range []int{0, 1, 4, 8, 9} {
		tr := NewChunked(0.25, 2, 4)
		for i := 0; i < ticks; i++ {
			row := tr.AppendRow()
			row[0] = geom.Point{X: float64(i), Y: -float64(i)}
			row[1] = geom.Point{X: float64(2 * i), Y: 0.5 * float64(i)}
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := loadBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got.NumTicks() != ticks {
			t.Fatalf("ticks=%d: round-trip has %d ticks", ticks, got.NumTicks())
		}
		for tick := 0; tick < ticks; tick++ {
			a, b := tr.Row(tick), got.Row(tick)
			if a[0] != b[0] || a[1] != b[1] {
				t.Fatalf("ticks=%d: diverges at tick %d", ticks, tick)
			}
		}
	}
}

func TestStreamWriterIncremental(t *testing.T) {
	// Writing through ChunkWriter directly matches Trace.Encode byte for
	// byte.
	tr := record(t, 3, 30)
	var direct bytes.Buffer
	cw := NewChunkWriter(&direct, tr.DT(), tr.NumVehicles(), tr.ChunkTicks())
	for tick := 0; tick < tr.NumTicks(); tick++ {
		copy(cw.AppendRow(), tr.Row(tick))
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	var viaTrace bytes.Buffer
	if err := tr.Encode(&viaTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaTrace.Bytes()) {
		t.Error("ChunkWriter and Trace.Encode produce different streams")
	}
	if cw.NumTicks() != tr.NumTicks() {
		t.Errorf("writer counted %d ticks, want %d", cw.NumTicks(), tr.NumTicks())
	}
}

func TestStreamRejectsCorruption(t *testing.T) {
	tr := record(t, 2, 10)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := loadBytes(bad); err == nil {
		t.Error("bad magic accepted")
	}

	bad = append([]byte(nil), good...)
	bad[4] = 99 // version
	if _, err := loadBytes(bad); err == nil {
		t.Error("bad version accepted")
	}

	if _, err := loadBytes(good[:len(good)-6]); err == nil {
		t.Error("truncated stream accepted")
	}

	if _, err := loadBytes(good[:8]); err == nil {
		t.Error("truncated header accepted")
	}
}
