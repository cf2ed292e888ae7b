package traceserve_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lbchat/internal/faults"
	"lbchat/internal/geom"
	"lbchat/internal/trace"
	"lbchat/internal/traceserve"
)

// traceDT is the test traces' tick: coarse enough that a window's default
// spans (30 s behind, 150 s ahead of the cursor) cover a few 8-tick chunks of
// a 96-tick trace, not all of it.
const traceDT = 10

// buildTrace returns a deterministic resident trace plus its LBTC bytes.
func buildTrace(t *testing.T, vehicles, ticks, chunkTicks int) (*trace.Trace, []byte) {
	t.Helper()
	tr := trace.NewChunked(traceDT, vehicles, chunkTicks)
	for tick := 0; tick < ticks; tick++ {
		row := tr.AppendRow()
		for v := range row {
			row[v] = geom.Point{X: float64(tick*100 + v), Y: -float64(tick) + 0.5*float64(v)}
		}
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// startServer serves the LBTC bytes over a localhost listener.
func startServer(t *testing.T, raw []byte, cfg traceserve.ServerConfig) (*traceserve.Server, *httptest.Server) {
	t.Helper()
	src, err := trace.NewBytesSource(raw)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := traceserve.NewServer(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

// dial connects a client to the server at hs and closes it when the test
// ends.
func dial(t *testing.T, hs *httptest.Server) *traceserve.Client {
	t.Helper()
	c, err := traceserve.Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// checkClientMatches reads every chunk through the client and compares each
// decoded position against the resident trace, returning the total retries.
func checkClientMatches(t *testing.T, c *traceserve.Client, tr trace.Source) int {
	t.Helper()
	vehicles, chunkTicks := tr.NumVehicles(), c.ChunkTicks()
	retries := 0
	for idx := 0; idx < trace.NumChunks(tr.NumTicks(), chunkTicks); idx++ {
		cf, err := c.ReadChunk(idx, nil)
		if err != nil {
			t.Fatalf("ReadChunk(%d): %v", idx, err)
		}
		retries += cf.Retries
		first := idx * chunkTicks
		for k := 0; k < cf.Ticks; k++ {
			row := tr.Row(first + k)
			for v := 0; v < vehicles; v++ {
				if cf.Pts[k*vehicles+v] != row[v] {
					t.Fatalf("chunk %d tick %d vehicle %d: %v, want %v",
						idx, first+k, v, cf.Pts[k*vehicles+v], row[v])
				}
			}
		}
	}
	return retries
}

// TestClientMatchesResident round-trips every chunk through a healthy
// server and checks meta plus decoded positions against the resident trace.
func TestClientMatchesResident(t *testing.T) {
	tr, raw := buildTrace(t, 3, 90, 8)
	_, hs := startServer(t, raw, traceserve.ServerConfig{})
	c := dial(t, hs)
	if c.DT() != traceDT || c.NumVehicles() != 3 || c.ChunkTicks() != 8 || c.NumTicks() != 90 {
		t.Fatalf("client shape dt=%g vehicles=%d chunkTicks=%d ticks=%d",
			c.DT(), c.NumVehicles(), c.ChunkTicks(), c.NumTicks())
	}
	if retries := checkClientMatches(t, c, tr); retries != 0 {
		t.Fatalf("healthy server needed %d retries", retries)
	}
	if _, err := c.ReadChunk(trace.NumChunks(90, 8), nil); err == nil {
		t.Fatal("reading past the last chunk succeeded")
	}
}

// TestClientCacheServesRepeats pins the LRU: re-reading a chunk must not
// touch the server again, and values must still match.
func TestClientCacheServesRepeats(t *testing.T) {
	tr, raw := buildTrace(t, 2, 32, 8)
	srv, hs := startServer(t, raw, traceserve.ServerConfig{})
	c := dial(t, hs)
	c.SetCacheChunks(2)
	if _, err := c.ReadChunk(0, nil); err != nil {
		t.Fatal(err)
	}
	before := srv.Requests()
	cf, err := c.ReadChunk(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Requests() != before {
		t.Fatalf("cached re-read hit the server (%d → %d requests)", before, srv.Requests())
	}
	row := tr.Row(0)
	for v := range row {
		if cf.Pts[v] != row[v] {
			t.Fatalf("cached chunk differs at vehicle %d", v)
		}
	}
	// Capacity 2: reading chunks 1 and 2 evicts chunk 0.
	for idx := 1; idx <= 2; idx++ {
		if _, err := c.ReadChunk(idx, nil); err != nil {
			t.Fatal(err)
		}
	}
	before = srv.Requests()
	if _, err := c.ReadChunk(0, nil); err != nil {
		t.Fatal(err)
	}
	if srv.Requests() != before+1 {
		t.Fatalf("evicted chunk not refetched (%d → %d requests)", before, srv.Requests())
	}
}

// TestClientRetriesLossyServer drives a loss-injecting server: the client
// must absorb the 503s with retries and still deliver bit-identical chunks.
func TestClientRetriesLossyServer(t *testing.T) {
	tr, raw := buildTrace(t, 2, 64, 8)
	_, hs := startServer(t, raw, traceserve.ServerConfig{
		Faults: faults.FetchConfig{LossProb: 0.4, Seed: 7},
	})
	c := dial(t, hs)
	c.SetRetries(20, time.Millisecond)
	c.SetCacheChunks(0)
	if retries := checkClientMatches(t, c, tr); retries == 0 {
		t.Fatal("a 40%-loss server needed zero retries")
	}
}

// faultyHandler wraps a healthy server and rewrites chunk responses per
// test: always-503, corrupted body, truncated body, or first-try stall.
type faultyHandler struct {
	inner http.Handler
	mode  string // "deny", "corrupt", "truncate", "stall"

	mu    sync.Mutex
	tries map[string]int
}

func (f *faultyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/chunk/") {
		f.inner.ServeHTTP(w, r)
		return
	}
	f.mu.Lock()
	f.tries[r.URL.Path]++
	tries := f.tries[r.URL.Path]
	f.mu.Unlock()
	switch f.mode {
	case "deny":
		http.Error(w, "boom", http.StatusServiceUnavailable)
		return
	case "stall":
		if tries == 1 {
			time.Sleep(300 * time.Millisecond)
		}
	}
	rec := httptest.NewRecorder()
	f.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	switch f.mode {
	case "corrupt":
		body[len(body)/2] ^= 0xFF
	case "truncate":
		body = body[:len(body)-16]
	}
	h := w.Header()
	h.Set(traceserve.HeaderTicks, rec.Header().Get(traceserve.HeaderTicks))
	h.Set(traceserve.HeaderCRC32, rec.Header().Get(traceserve.HeaderCRC32))
	h.Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// startFaulty serves raw through a faultyHandler in the given mode.
func startFaulty(t *testing.T, raw []byte, mode string) *httptest.Server {
	t.Helper()
	src, err := trace.NewBytesSource(raw)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := traceserve.NewServer(src, traceserve.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(&faultyHandler{inner: srv, mode: mode, tries: map[string]int{}})
	t.Cleanup(hs.Close)
	return hs
}

// TestClientExhaustedRetries pins the terminal-failure contract: after the
// retry budget a wrapped error comes back — no panic, no partial chunk.
func TestClientExhaustedRetries(t *testing.T) {
	_, raw := buildTrace(t, 2, 32, 8)
	hs := startFaulty(t, raw, "deny")
	c := dial(t, hs)
	c.SetRetries(2, time.Millisecond)
	cf, err := c.ReadChunk(0, nil)
	if err == nil {
		t.Fatal("ReadChunk succeeded against an always-503 server")
	}
	if !strings.Contains(err.Error(), "3 attempt(s) failed") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("exhausted-retry error = %v", err)
	}
	if cf.Retries != 2 {
		t.Fatalf("failed fetch reported %d retries, want 2", cf.Retries)
	}
}

// TestClientRejectsCorruptChunk pins checksum verification: a bit-flipped
// body must never decode, even after retries.
func TestClientRejectsCorruptChunk(t *testing.T) {
	_, raw := buildTrace(t, 2, 32, 8)
	hs := startFaulty(t, raw, "corrupt")
	c := dial(t, hs)
	c.SetRetries(1, time.Millisecond)
	_, err := c.ReadChunk(0, nil)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt chunk error = %v", err)
	}
}

// TestClientRejectsTruncatedChunk pins length verification against the
// tick-count header.
func TestClientRejectsTruncatedChunk(t *testing.T) {
	_, raw := buildTrace(t, 2, 32, 8)
	hs := startFaulty(t, raw, "truncate")
	c := dial(t, hs)
	c.SetRetries(1, time.Millisecond)
	_, err := c.ReadChunk(0, nil)
	if err == nil || !strings.Contains(err.Error(), "want") {
		t.Fatalf("truncated chunk error = %v", err)
	}
}

// TestClientTimeoutThenRetry pins the timeout path: a first attempt that
// outlives the request timeout is abandoned and the retry must deliver the
// chunk bit-identical.
func TestClientTimeoutThenRetry(t *testing.T) {
	tr, raw := buildTrace(t, 2, 16, 8)
	hs := startFaulty(t, raw, "stall")
	c := dial(t, hs)
	c.SetRetries(3, time.Millisecond)
	c.SetTimeout(50 * time.Millisecond)
	cf, err := c.ReadChunk(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Retries < 1 {
		t.Fatalf("stalled first attempt reported %d retries", cf.Retries)
	}
	row := tr.Row(0)
	for v := range row {
		if cf.Pts[v] != row[v] {
			t.Fatalf("retried chunk differs at vehicle %d", v)
		}
	}
}

// TestWindowOverFlakyServer is the end-to-end determinism check: a
// prefetching window paged through a latency- and loss-injecting server
// must produce exactly the resident trace's positions at every cursor.
func TestWindowOverFlakyServer(t *testing.T) {
	const ticks = 96
	tr, raw := buildTrace(t, 2, ticks, 8)
	_, hs := startServer(t, raw, traceserve.ServerConfig{
		Faults: faults.FetchConfig{Latency: time.Millisecond, LossProb: 0.2, Seed: 3},
	})
	c := dial(t, hs)
	c.SetRetries(20, time.Millisecond)
	w := trace.NewWindowSource(c, trace.WindowConfig{Prefetch: true})
	defer w.Close()
	retries := 0
	w.SetChunkObserver(func(op trace.ChunkOp) { retries += op.Retries })
	for cursor := 0; cursor < ticks; cursor++ {
		if err := w.Advance(cursor); err != nil {
			t.Fatalf("Advance(%d): %v", cursor, err)
		}
		now := float64(cursor) * traceDT
		for v := 0; v < 2; v++ {
			if got, want := w.At(v, now), tr.At(v, now); got != want {
				t.Fatalf("cursor %d vehicle %d: %v, want %v", cursor, v, got, want)
			}
		}
	}
	if retries == 0 {
		t.Error("a 20%-loss server needed zero retries")
	}
}

// TestWindowPoisonedByBadServer pins that exhausted retries surface as a
// position-annotated *trace.ChunkError and poison the window.
func TestWindowPoisonedByBadServer(t *testing.T) {
	_, raw := buildTrace(t, 2, 64, 8)
	hs := startFaulty(t, raw, "deny")
	c := dial(t, hs)
	c.SetRetries(1, time.Millisecond)
	w := trace.NewWindowSource(c, trace.WindowConfig{})
	defer w.Close()
	advErr := w.Advance(0)
	var ce *trace.ChunkError
	if !errors.As(advErr, &ce) {
		t.Fatalf("Advance error %v is not a *trace.ChunkError", advErr)
	}
	if ce.Chunk != 0 || ce.FirstTick != 0 {
		t.Fatalf("ChunkError at chunk %d first tick %d, want chunk 0", ce.Chunk, ce.FirstTick)
	}
	if err := w.Advance(1); err == nil {
		t.Fatal("poisoned window accepted another Advance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("lookup on a poisoned window did not panic")
		}
	}()
	w.Row(0)
}

// TestDialRejectsHostileMeta: metadata is the one thing the client cannot
// checksum, and the window sizes its buffers by it — so a meta that would
// divide by zero vehicles, overflow a chunk's byte size or announce chunks
// over the per-chunk cap is refused at Dial, before any chunk is asked for.
func TestDialRejectsHostileMeta(t *testing.T) {
	for name, meta := range map[string]string{
		"ticks of zero vehicles": `{"dt":0.5,"vehicles":0,"chunk_ticks":8,"total_ticks":32,"num_chunks":4}`,
		"chunk size overflows":   `{"dt":0.5,"vehicles":4611686018427387904,"chunk_ticks":4611686018427387904,"total_ticks":1,"num_chunks":1}`,
		"chunk over the cap":     `{"dt":0.5,"vehicles":1048576,"chunk_ticks":1024,"total_ticks":1,"num_chunks":1}`,
		"chunk count disagrees":  `{"dt":0.5,"vehicles":2,"chunk_ticks":8,"total_ticks":32,"num_chunks":5}`,
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, meta)
		}))
		c, err := traceserve.Dial(hs.URL)
		if err == nil {
			c.Close()
			t.Errorf("%s: Dial accepted %s", name, meta)
		}
		hs.Close()
	}
}

// TestServerRejectsBadRequests pins the HTTP error paths.
func TestServerRejectsBadRequests(t *testing.T) {
	_, raw := buildTrace(t, 2, 32, 8)
	_, hs := startServer(t, raw, traceserve.ServerConfig{})
	for path, want := range map[string]int{
		"/v1/chunk/abc": http.StatusBadRequest,
		"/v1/chunk/-1":  http.StatusBadRequest,
		"/v1/chunk/99":  http.StatusNotFound,
		"/v2/meta":      http.StatusNotFound,
	} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/meta", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/meta = %d, want 405", resp.StatusCode)
	}
}
