package traceserve

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"lbchat/internal/geom"
	"lbchat/internal/trace"
)

// Client fetch policy: a localhost or rack-local chunk server answers in
// microseconds to low milliseconds, so a 5s timeout only trips on real
// faults; three retries with doubling backoff ride out transient drops
// without stalling a poisoned stream for long. lruChunks decoded chunks are
// kept for re-reads.
const (
	fetchTimeout = 5 * time.Second
	fetchRetries = 3
	fetchBackoff = 50 * time.Millisecond
	lruChunks    = 8
)

// maxChunkBytes caps the chunk body a server's metadata may announce: the
// window sizes its buffers by it before a single body byte is verified. The
// default 256-tick chunk of a 10 000-vehicle fleet is 40 MB.
const maxChunkBytes = 1 << 30

// Client is a trace.ChunkSource over a chunk server: every ReadChunk is a
// bounded-retry HTTP fetch with checksum verification and an LRU of
// decoded chunks. It is safe for concurrent use — the window's adaptive
// prefetcher keeps several fetches in flight at once.
type Client struct {
	base string
	hc   *http.Client
	meta Meta
	// The fetch policy: set from the constants above at Dial (tests shrink
	// them). retries counts re-attempts after the first; cacheChunks 0
	// disables the LRU.
	timeout, backoff     time.Duration
	retries, cacheChunks int

	mu    sync.Mutex
	cache map[int]*list.Element // chunk idx → lru element
	lru   *list.List            // front = most recent; values are cacheEntry
}

// cacheEntry is one decoded chunk in the client LRU.
type cacheEntry struct {
	idx   int
	pts   []geom.Point
	ticks int
}

// Dial fetches the server's stream metadata and returns a ready chunk
// source. The base URL is the server root (e.g. "http://10.0.0.7:9347").
func Dial(baseURL string) (*Client, error) {
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		hc:          &http.Client{},
		timeout:     fetchTimeout,
		backoff:     fetchBackoff,
		retries:     fetchRetries,
		cacheChunks: lruChunks,
		cache:       make(map[int]*list.Element),
		lru:         list.New(),
	}
	raw, _, err := c.fetch("/v1/meta", -1)
	if err != nil {
		return nil, fmt.Errorf("traceserve: fetching %s/v1/meta: %w", c.base, err)
	}
	if err := json.Unmarshal(raw, &c.meta); err != nil {
		return nil, fmt.Errorf("traceserve: decoding meta: %w", err)
	}
	m := c.meta
	if m.DT <= 0 || m.ChunkTicks <= 0 || m.TotalTicks < 0 || m.Vehicles < 0 ||
		m.NumChunks != trace.NumChunks(m.TotalTicks, m.ChunkTicks) {
		return nil, fmt.Errorf("traceserve: inconsistent meta %+v", m)
	}
	if m.Vehicles == 0 && m.TotalTicks > 0 {
		return nil, fmt.Errorf("traceserve: meta claims %d ticks of 0 vehicles", m.TotalTicks)
	}
	// Dividing instead of multiplying: ChunkTicks × Vehicles × 16 can overflow.
	if m.Vehicles > 0 && m.ChunkTicks > maxChunkBytes/16/m.Vehicles {
		return nil, fmt.Errorf("traceserve: meta claims chunks of %d ticks × %d vehicles, over the %d MB per-chunk cap",
			m.ChunkTicks, m.Vehicles, maxChunkBytes>>20)
	}
	return c, nil
}

// Meta returns the served stream's header metadata.
func (c *Client) Meta() Meta { return c.meta }

// DT returns the stream's tick interval in seconds.
func (c *Client) DT() float64 { return c.meta.DT }

// NumVehicles returns the stream's vehicle count.
func (c *Client) NumVehicles() int { return c.meta.Vehicles }

// ChunkTicks returns the stream's chunk capacity in ticks.
func (c *Client) ChunkTicks() int { return c.meta.ChunkTicks }

// NumTicks returns the stream's total tick count.
func (c *Client) NumTicks() int { return c.meta.TotalTicks }

// ReadChunk implements trace.ChunkSource: serve from the LRU when
// possible, otherwise fetch with bounded retries, verify, decode, cache.
func (c *Client) ReadChunk(idx int, dst []geom.Point) (trace.ChunkFetch, error) {
	if idx < 0 || idx >= c.meta.NumChunks {
		return trace.ChunkFetch{}, fmt.Errorf("traceserve: chunk %d outside stream of %d chunks", idx, c.meta.NumChunks)
	}
	if pts, ticks, ok := c.cacheGet(idx, dst); ok {
		return trace.ChunkFetch{Pts: pts, Ticks: ticks}, nil
	}
	body, retries, err := c.fetch("/v1/chunk/"+strconv.Itoa(idx), idx)
	if err != nil {
		return trace.ChunkFetch{Retries: retries}, err
	}
	ticks := len(body) / (c.meta.Vehicles * 16)
	pts, err := trace.DecodePoints(body, dst)
	if err != nil {
		return trace.ChunkFetch{Retries: retries}, err
	}
	c.cachePut(idx, pts, ticks)
	return trace.ChunkFetch{Pts: pts, Ticks: ticks, Retries: retries}, nil
}

// Close releases idle connections. Windows over this source must be
// closed (prefetches drained) first.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// cacheGet copies a cached chunk into dst and bumps its recency.
func (c *Client) cacheGet(idx int, dst []geom.Point) ([]geom.Point, int, bool) {
	if c.cacheChunks == 0 {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.cache[idx]
	if !ok {
		return nil, 0, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(cacheEntry)
	if cap(dst) < len(e.pts) {
		dst = make([]geom.Point, len(e.pts))
	}
	dst = dst[:len(e.pts)]
	copy(dst, e.pts)
	return dst, e.ticks, true
}

// cachePut stores its own copy of a decoded chunk, evicting the least
// recently used entry past capacity.
func (c *Client) cachePut(idx int, pts []geom.Point, ticks int) {
	if c.cacheChunks == 0 {
		return
	}
	cp := make([]geom.Point, len(pts))
	copy(cp, pts)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.cache[idx]; ok {
		c.lru.MoveToFront(el)
		el.Value = cacheEntry{idx: idx, pts: cp, ticks: ticks}
		return
	}
	c.cache[idx] = c.lru.PushFront(cacheEntry{idx: idx, pts: cp, ticks: ticks})
	for c.lru.Len() > c.cacheChunks {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.cache, old.Value.(cacheEntry).idx)
	}
}

// fetch GETs one path with the retry/backoff/timeout policy. chunkIdx ≥ 0
// enables chunk-response verification (tick header, length, checksum);
// -1 marks a metadata fetch. It returns the body and how many retries were
// spent (also on failure, for the telemetry counters).
func (c *Client) fetch(path string, chunkIdx int) ([]byte, int, error) {
	var lastErr error
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		body, err := c.fetchOnce(path, chunkIdx)
		if err == nil {
			return body, attempt, nil
		}
		lastErr = err
		if attempt == c.retries {
			return nil, attempt, fmt.Errorf("%d attempt(s) failed: %w", attempt+1, lastErr)
		}
	}
}

// fetchOnce performs one bounded request and, for chunk responses,
// verifies the tick header, body length, and CRC-32.
func (c *Client) fetchOnce(path string, chunkIdx int) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if chunkIdx < 0 {
		return body, nil
	}
	ticksHdr := resp.Header.Get(HeaderTicks)
	ticks, err := strconv.Atoi(ticksHdr)
	if err != nil || ticks <= 0 || ticks > c.meta.ChunkTicks {
		return nil, fmt.Errorf("bad %s header %q", HeaderTicks, ticksHdr)
	}
	if want := ticks * c.meta.Vehicles * 16; len(body) != want {
		return nil, fmt.Errorf("chunk body of %d bytes, want %d (%d ticks × %d vehicles)",
			len(body), want, ticks, c.meta.Vehicles)
	}
	if sumHdr := resp.Header.Get(HeaderCRC32); sumHdr != "" {
		sum, err := strconv.ParseUint(sumHdr, 16, 32)
		if err != nil {
			return nil, fmt.Errorf("bad %s header %q", HeaderCRC32, sumHdr)
		}
		if got := crc32.ChecksumIEEE(body); got != uint32(sum) {
			return nil, fmt.Errorf("chunk checksum %08x, header says %08x", got, sum)
		}
	}
	return body, nil
}
