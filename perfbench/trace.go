package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/persist"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

// This file is the outside-in tracer of the traced run. Every span comes
// from a wrapper around an interface the program already accepts
// (marketplace.Market, pricing.Model, persist.Store) or from HTTP middleware
// around danced's and marketd's handlers, so each layer is timed at the
// calls into it and no program code changes.

// record is one line of the span dump.
type record struct {
	// Kind is "span" (a timed call), "count" (a per-op count such as the
	// evals of an acquire) or "value" (a run-level measurement).
	Kind   string `json:"kind"`
	ID     int64  `json:"id,omitempty"`
	Parent int64  `json:"parent,omitempty"`
	// Op attributes the record to an op: timed ops are numbered from 1 and
	// cold start k is -k. Calls that carry no context (pricing, persist)
	// are recorded with Op 0 and attributed by interval when summarized.
	Op    int64  `json:"op,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns,omitempty"`
	End   int64  `json:"end_ns,omitempty"`
	// N is the span's size (rows returned, bytes on the wire) or the
	// count's or value's number.
	N float64 `json:"n,omitempty"`
}

func (r record) dur() int64 { return r.End - r.Start }

// recorder keeps spans in memory while it is enabled; counts and values are
// kept always. A nil recorder records nothing.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu   sync.Mutex
	recs []record // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) add(rec record) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// traceCtx is the op and the innermost open span a context belongs to.
type traceCtx struct{ op, span int64 }

type traceKey struct{}

func withTrace(ctx context.Context, tc traceCtx) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

func traceOf(ctx context.Context) traceCtx {
	tc, _ := ctx.Value(traceKey{}).(traceCtx)
	return tc
}

// span is an open span; the zero value (tracing off) ends as a no-op.
type span struct {
	r   *recorder
	rec record
}

// start opens a span named name as a child of ctx's span and returns ctx
// carrying the new span.
func (r *recorder) start(ctx context.Context, name string) (context.Context, span) {
	if !r.enabled() {
		return ctx, span{}
	}
	tc := traceOf(ctx)
	s := r.open(name, tc.op, tc.span)
	return withTrace(ctx, traceCtx{op: tc.op, span: s.rec.ID}), s
}

// open starts a span with an explicit op and parent (0 when unknown).
func (r *recorder) open(name string, op, parent int64) span {
	if !r.enabled() {
		return span{}
	}
	return span{r: r, rec: record{
		Kind: "span", ID: r.nextID.Add(1), Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(r.epoch)),
	}}
}

// end closes the span with size n.
func (s span) end(n float64) {
	if s.r == nil {
		return
	}
	s.rec.End = int64(time.Since(s.r.epoch))
	s.rec.N = n
	s.r.add(s.rec)
}

// count records a per-op count, traced or not.
func (r *recorder) count(op int64, name string, n float64) {
	if r != nil {
		r.add(record{Kind: "count", Op: op, Name: name, N: n})
	}
}

// value records a run-level measurement.
func (r *recorder) value(name string, n float64) {
	if r != nil {
		r.add(record{Kind: "value", Name: name, N: n})
	}
}

// dump writes every record as one JSON line to path.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, rec := range r.recs {
		if err = enc.Encode(rec); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing span dump: %w", err)
	}
	return nil
}

// readDump loads a span dump written by dump.
func readDump(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var rec record
		if err := dec.Decode(&rec); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("reading span dump %s: %w", path, err)
		}
		recs = append(recs, rec)
	}
}

// tracedMarket times every marketplace call; spans carry the caller's op
// through ctx, which the search's detached context keeps.
type tracedMarket struct {
	inner marketplace.Market
	r     *recorder
}

func (m tracedMarket) Catalog(ctx context.Context) ([]marketplace.DatasetInfo, error) {
	ctx, s := m.r.start(ctx, "marketplace.catalog")
	out, err := m.inner.Catalog(ctx)
	s.end(0)
	return out, err
}

func (m tracedMarket) DatasetFDs(ctx context.Context, name string) ([]fd.FD, error) {
	ctx, s := m.r.start(ctx, "marketplace.fds")
	out, err := m.inner.DatasetFDs(ctx, name)
	s.end(0)
	return out, err
}

func (m tracedMarket) QuoteProjection(ctx context.Context, name string, attrs []string) (float64, error) {
	ctx, s := m.r.start(ctx, "marketplace.quote")
	p, err := m.inner.QuoteProjection(ctx, name, attrs)
	s.end(0)
	return p, err
}

func (m tracedMarket) Sample(ctx context.Context, name string, joinAttrs []string, rate float64, seed uint64) (*relation.Table, float64, error) {
	ctx, s := m.r.start(ctx, "marketplace.sample")
	t, p, err := m.inner.Sample(ctx, name, joinAttrs, rate, seed)
	s.end(rowsOf(t))
	return t, p, err
}

func (m tracedMarket) SampleDelta(ctx context.Context, name string, joinAttrs []string, fromRate, toRate float64, seed uint64) (*relation.Table, float64, error) {
	ctx, s := m.r.start(ctx, "marketplace.sample_delta")
	t, p, err := m.inner.SampleDelta(ctx, name, joinAttrs, fromRate, toRate, seed)
	s.end(rowsOf(t))
	return t, p, err
}

func (m tracedMarket) ExecuteProjection(ctx context.Context, q pricing.Query) (*relation.Table, float64, error) {
	ctx, s := m.r.start(ctx, "marketplace.execute_projection")
	t, p, err := m.inner.ExecuteProjection(ctx, q)
	s.end(rowsOf(t))
	return t, p, err
}

func rowsOf(t *relation.Table) float64 {
	if t == nil {
		return 0
	}
	return float64(t.NumRows())
}

// tracedModel times price computations. PriceProjection takes no context,
// so its spans are attributed to an op by interval.
type tracedModel struct {
	inner pricing.Model
	r     *recorder
}

func (m tracedModel) Name() string { return m.inner.Name() }

func (m tracedModel) PriceProjection(t *relation.Table, attrs []string) (float64, error) {
	s := m.r.open("pricing.price", 0, 0)
	p, err := m.inner.PriceProjection(t, attrs)
	s.end(0)
	return p, err
}

// tracedStore times journal calls, fsync included. Store methods take no
// context, so these spans too are attributed by interval.
type tracedStore struct {
	inner persist.Store
	r     *recorder
}

func (s tracedStore) timed(name string, f func() error) error {
	sp := s.r.open(name, 0, 0)
	err := f()
	sp.end(0)
	return err
}

func (s tracedStore) Load() (*persist.State, error) {
	var st *persist.State
	err := s.timed("persist.load", func() (err error) {
		st, err = s.inner.Load()
		return err
	})
	return st, err
}

func (s tracedStore) AppendLedger(rec persist.LedgerRecord) error {
	return s.timed("persist.append_ledger", func() error { return s.inner.AppendLedger(rec) })
}

func (s tracedStore) SavePlan(rec persist.PlanRecord) error {
	return s.timed("persist.save_plan", func() error { return s.inner.SavePlan(rec) })
}

func (s tracedStore) SaveDataset(rec persist.DatasetRecord, t *relation.Table) error {
	return s.timed("persist.save_dataset", func() error { return s.inner.SaveDataset(rec, t) })
}

func (s tracedStore) SaveRate(rate float64) error {
	return s.timed("persist.save_rate", func() error { return s.inner.SaveRate(rate) })
}

func (s tracedStore) Flush() error {
	return s.timed("persist.flush", s.inner.Flush)
}

func (s tracedStore) Close() error { return s.inner.Close() }

// Headers that carry the op and the calling span across loopback HTTP.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

// tracingTransport stamps outgoing requests with the op and span of their
// context, so the server-side middleware can parent its spans.
type tracingTransport struct {
	r    *recorder
	base http.RoundTripper
}

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if tc := traceOf(req.Context()); t.r.enabled() && tc.op != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(hdrOp, strconv.FormatInt(tc.op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(tc.span, 10))
	}
	return t.base.RoundTrip(req)
}

// countingWriter counts response bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// middleware opens one span per request named prefix + "." + the last path
// segment, sized by the response bytes, and hands the handler a
// context carrying the caller's op and the new span.
func (r *recorder) middleware(prefix string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.enabled() {
			h.ServeHTTP(w, req)
			return
		}
		op, _ := strconv.ParseInt(req.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(req.Header.Get(hdrSpan), 10, 64)
		name := prefix + "." + req.URL.Path[strings.LastIndexByte(req.URL.Path, '/')+1:]
		s := r.open(name, op, parent)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req.WithContext(withTrace(req.Context(), traceCtx{op: op, span: s.rec.ID})))
		s.end(float64(cw.n))
	})
}
