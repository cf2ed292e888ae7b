package traceserve

import "time"

// The fetch-policy setters shrink a dialed client's constants so the
// fault-path tests run in milliseconds. Dial's own metadata request used the
// defaults; the tests' faults only touch chunk responses.

// SetRetries sets how many times a failed fetch is retried and the delay
// before the first retry.
func (c *Client) SetRetries(n int, backoff time.Duration) { c.retries, c.backoff = n, backoff }

// SetTimeout sets the per-request timeout.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// SetCacheChunks sets the decoded-chunk LRU capacity; 0 disables it.
func (c *Client) SetCacheChunks(n int) { c.cacheChunks = n }
