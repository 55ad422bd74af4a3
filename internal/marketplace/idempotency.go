package marketplace

import (
	"bytes"
	"net/http"
	"sync"
)

// IdempotencyHeader names the request header carrying a client-chosen key
// that makes billing endpoints safe to retry: the first request with a key
// executes (and bills) normally, and every later request with the same key
// replays the recorded response without touching the marketplace again.
const IdempotencyHeader = "Idempotency-Key"

// idemCacheCap bounds the completed responses an idempotency cache retains.
// Retries arrive within seconds of the original; holding the last few
// thousand completed purchases is far more history than any retry policy
// needs, while capping memory on long-lived servers.
const idemCacheCap = 4096

// idemEntry is one keyed request. done closes when the first execution
// finishes; status/header/body are written before the close and read only
// after it (or under the cache mutex), so replayers never see a torn entry.
type idemEntry struct {
	done   chan struct{}
	status int
	header http.Header // every recorded header: a CSV table's price travels in one
	body   []byte
}

// idempotencyCache deduplicates billing requests by Idempotency-Key. Only
// successful (HTTP 200) responses are remembered — the marketplace bills
// exactly on success, so replaying cached successes and re-executing
// failures together give the "retried calls never bill twice" contract.
type idempotencyCache struct {
	mu      sync.Mutex            // lockorder: leaf
	entries map[string]*idemEntry // guarded by mu
	order   []string              // guarded by mu; completed keys, oldest first
}

func newIdempotencyCache() *idempotencyCache {
	return &idempotencyCache{entries: make(map[string]*idemEntry)}
}

// recorder buffers a handler's response so the cache can decide whether to
// remember it before anything reaches the wire.
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{status: http.StatusOK, header: make(http.Header)}
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// wrap makes next idempotent under the Idempotency-Key header. Requests
// without the header pass straight through.
func (c *idempotencyCache) wrap(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(IdempotencyHeader)
		if key == "" {
			next(w, r)
			return
		}
		for {
			c.mu.Lock()
			if e, ok := c.entries[key]; ok {
				c.mu.Unlock()
				select {
				case <-e.done:
				case <-r.Context().Done():
					http.Error(w, "canceled while awaiting idempotent twin", http.StatusGatewayTimeout)
					return
				}
				if e.status == 0 {
					// The first execution failed and was forgotten; this
					// retry re-executes it.
					continue
				}
				for k, vs := range e.header {
					w.Header()[k] = vs
				}
				w.WriteHeader(e.status)
				w.Write(e.body)
				return
			}
			e := &idemEntry{done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()

			rec := newRecorder()
			next(rec, r)

			c.mu.Lock()
			if rec.status == http.StatusOK {
				e.status = rec.status
				e.header = rec.header
				e.body = rec.body.Bytes()
				c.order = append(c.order, key)
				for len(c.order) > idemCacheCap {
					delete(c.entries, c.order[0])
					c.order = c.order[1:]
				}
			} else {
				// Failures are not cached: a retry must re-execute, and the
				// marketplace billed nothing for the failed try.
				delete(c.entries, key)
			}
			c.mu.Unlock()
			close(e.done)

			for k, vs := range rec.header {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.status)
			w.Write(rec.body.Bytes())
			return
		}
	}
}
