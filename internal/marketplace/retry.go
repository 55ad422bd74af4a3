package marketplace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// RetryPolicy drives the Client's retry loop for marketplace round trips.
// Transient failures — timeouts, connection resets, truncated bodies, 429s,
// and 5xx responses carrying no marketplace error payload — are retried with
// exponential backoff and jitter; errors the marketplace itself reported
// (unknown dataset, bad rate, priced-query failures) are surfaced at once.
// Paired with the Idempotency-Key header the Client sends on billing
// endpoints, a retried Sample/SampleDelta/ExecuteProjection never bills
// twice.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included. Zero or one
	// disables retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms when retrying).
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep (default 2s).
	MaxDelay time.Duration
	// PerTry bounds a single attempt; the next attempt starts when one
	// stalls past it. Zero leaves attempts bounded only by the call's
	// context (and the Client's fallback Timeout).
	PerTry time.Duration
	// Seed makes the jitter deterministic (for tests and the chaos
	// harness); zero uses a fixed default.
	Seed uint64
}

// DefaultRetryPolicy is what NewClient installs: four attempts, 50ms base
// backoff capped at 2s, 30s per try.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		PerTry:      30 * time.Second,
	}
}

// transientError marks failures worth retrying. It wraps, so sentinel
// matching through errors.Is still reaches the underlying cause.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func isTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// backoff returns the jittered sleep before the given retry (attempt ≥ 1:
// the number of tries already failed). Full jitter over the upper half of
// the exponential keeps herd retries spread out while preserving the
// exponential envelope.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.Retry.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := c.Retry.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	c.rngMu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(int64(c.Retry.Seed) ^ 0x64616e6365))
	}
	j := c.rng.Int63n(int64(d)/2 + 1)
	c.rngMu.Unlock()
	return d/2 + time.Duration(j)
}

// call is one logical marketplace round trip: what every attempt sends and
// how it decodes the response.
type call struct {
	method, path string
	// idemKey rides every attempt as the Idempotency-Key header, so the
	// server can deduplicate billing across retries; "" sends none.
	idemKey string
	// accept is the Accept header; "" sends none.
	accept string
	// body is the marshal-once JSON request body; nil sends none.
	body []byte
	// decode consumes a response; a transientError return retries.
	decode func(*http.Response) error
}

// do runs one logical call: retry loop around single attempts.
func (c *Client) do(ctx context.Context, cl call) error {
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var last error
	for attempt := 1; ; attempt++ {
		err := c.attempt(ctx, cl)
		if err == nil {
			return nil
		}
		if !isTransient(err) {
			return err
		}
		last = err
		if attempt >= attempts || ctx.Err() != nil {
			break
		}
		t := time.NewTimer(c.backoff(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
		if ctx.Err() != nil {
			break
		}
	}
	return fmt.Errorf("marketplace client: %s %s failed after retries: %w", cl.method, cl.path, last)
}

// attempt performs a single HTTP round trip under the per-try deadline.
func (c *Client) attempt(ctx context.Context, cl call) error {
	tryCtx := ctx
	cancel := func() {}
	if c.Retry.PerTry > 0 {
		tryCtx, cancel = context.WithTimeout(ctx, c.Retry.PerTry)
	}
	defer cancel()
	var rd io.Reader
	if cl.body != nil {
		rd = bytes.NewReader(cl.body)
	}
	req, err := http.NewRequestWithContext(tryCtx, cl.method, c.BaseURL+cl.path, rd)
	if err != nil {
		return err
	}
	if cl.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if cl.idemKey != "" {
		req.Header.Set(IdempotencyHeader, cl.idemKey)
	}
	if cl.accept != "" {
		req.Header.Set("Accept", cl.accept)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		err = fmt.Errorf("marketplace client: %s %s: %w", cl.method, cl.path, err)
		if ctx.Err() == nil {
			// The overall call is still alive: a transport failure or a
			// per-try timeout is worth another attempt.
			return &transientError{err}
		}
		return err
	}
	defer resp.Body.Close()
	return cl.decode(resp)
}
