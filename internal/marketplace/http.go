package marketplace

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/safekey"
)

// Wire representations. Tables travel as CSV (the typed header encoding of
// relation.WriteCSV round-trips kinds and categorical flags exactly).

// MaxRequestBytes bounds every JSON request body the marketplace handler
// and the danced service decode; a larger body answers 413.
const MaxRequestBytes = 1 << 20

// CSVMediaType is the raw table media type. A table request (/sample,
// /sample_delta, /query) whose Accept header names it gets the table's CSV
// as the response body, with the price in PriceHeader, instead of CSV
// escaped inside the {csv, price} JSON object.
const CSVMediaType = "text/csv"

// PriceHeader carries the exact price of a CSV-mode table response,
// formatted with strconv.FormatFloat(price, 'g', -1, 64) so it parses back
// to the same float64.
const PriceHeader = "Dance-Price"

type wireColumn struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Categorical bool   `json:"categorical"`
}

type wireDatasetInfo struct {
	Name  string       `json:"name"`
	Rows  int          `json:"rows"`
	Attrs []wireColumn `json:"attrs"`
	// FDs are the listing's published FDs in fd.Format syntax. Handler
	// always sends the field (possibly empty); a catalog without it decodes
	// as nil, and DatasetFDs then asks GET /fds.
	FDs []string `json:"fds"`
}

type wireTableResponse struct {
	CSV   string  `json:"csv"`
	Price float64 `json:"price"`
}

type sampleRequest struct {
	Name      string   `json:"name"`
	JoinAttrs []string `json:"join_attrs"`
	Rate      float64  `json:"rate"`
	Seed      uint64   `json:"seed"`
}

type sampleDeltaRequest struct {
	Name      string   `json:"name"`
	JoinAttrs []string `json:"join_attrs"`
	FromRate  float64  `json:"from_rate"`
	ToRate    float64  `json:"to_rate"`
	Seed      uint64   `json:"seed"`
}

type quoteRequest struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
}

type quoteResponse struct {
	Price float64 `json:"price"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code carries the machine-readable error class ("unknown_dataset",
	// "bad_rate", "bad_projection") so clients can restore the typed sentinels across the
	// wire. Absent on old servers and on errors with no class.
	Code string `json:"code,omitempty"`
}

// errCode maps an error to its wire code and HTTP status. Unknown datasets
// are 404, caller input errors 400; anything else stays with the caller's
// fallback status.
func errCode(err error, fallback int) (string, int) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return "", http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrUnknownDataset):
		return "unknown_dataset", http.StatusNotFound
	case errors.Is(err, ErrBadRate):
		return "bad_rate", http.StatusBadRequest
	case errors.Is(err, ErrBadProjection):
		return "bad_projection", http.StatusBadRequest
	}
	return "", fallback
}

// Handler serves a Market over JSON/HTTP:
//
//	GET  /catalog            → []DatasetInfo, each with its FDs ("fds")
//	GET  /fds?name=…         → []string (FDs, fd.Format syntax)
//	POST /quote {name,attrs} → {price}
//	POST /sample {…}         → table
//	POST /sample_delta {…}   → table (rows in (from_rate, to_rate])
//	POST /query {name,attrs} → table
//
// A table answers as raw CSV when the request's Accept header names
// CSVMediaType: Content-Type text/csv, an explicit Content-Length, and the
// exact price in PriceHeader. Any other request gets the {csv, price} JSON
// object, byte for byte what servers without the CSV media type send.
//
// Errors use the {"error", "code"} payload: unknown datasets answer 404
// with code "unknown_dataset", invalid sampling rates 400 with "bad_rate",
// projections that repeat an attribute or name one the listing lacks 400
// with "bad_projection", malformed
// request JSON 400, request bodies over MaxRequestBytes 413, and everything
// else 500 — so clients can tell their own mistakes from marketplace
// failures.
//
// Each marketplace call runs under the request's context, so a client that
// disconnects (or whose deadline expires) stops the work server-side.
func Handler(m Market) http.Handler {
	mux := http.NewServeMux()

	writeErr := func(w http.ResponseWriter, code int, err error) {
		wireCode, mapped := errCode(err, code)
		code = mapped
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(errorResponse{Error: err.Error(), Code: wireCode})
	}
	writeJSON := func(w http.ResponseWriter, v interface{}) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	}
	decode := func(w http.ResponseWriter, r *http.Request, v interface{}) error {
		return json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(v)
	}
	tableResponse := func(w http.ResponseWriter, r *http.Request, t *relation.Table, price float64) {
		// WriteCSV hands a sample-sized body over in one Write, so buf is
		// allocated once, at the body's length.
		var buf bytes.Buffer
		if err := t.WriteCSV(&buf); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		if !acceptsCSV(r) {
			writeJSON(w, wireTableResponse{CSV: buf.String(), Price: price})
			return
		}
		h := w.Header()
		h.Set("Content-Type", CSVMediaType)
		h.Set(PriceHeader, strconv.FormatFloat(price, 'g', -1, 64))
		h.Set("Content-Length", strconv.Itoa(buf.Len()))
		w.Write(buf.Bytes())
	}

	mux.HandleFunc("GET /catalog", func(w http.ResponseWriter, r *http.Request) {
		infos, err := m.Catalog(r.Context())
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		out := make([]wireDatasetInfo, len(infos))
		for i, info := range infos {
			fds, err := m.DatasetFDs(r.Context(), info.Name)
			if err != nil {
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
			wi := wireDatasetInfo{Name: info.Name, Rows: info.Rows, FDs: formatFDs(fds)}
			for _, c := range info.Attrs {
				wi.Attrs = append(wi.Attrs, wireColumn{Name: c.Name, Kind: c.Kind.String(), Categorical: c.Categorical})
			}
			out[i] = wi
		}
		writeJSON(w, out)
	})

	mux.HandleFunc("GET /fds", func(w http.ResponseWriter, r *http.Request) {
		fds, err := m.DatasetFDs(r.Context(), r.URL.Query().Get("name"))
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, formatFDs(fds))
	})

	mux.HandleFunc("POST /quote", func(w http.ResponseWriter, r *http.Request) {
		var req quoteRequest
		if err := decode(w, r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		price, err := m.QuoteProjection(r.Context(), req.Name, req.Attrs)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, quoteResponse{Price: price})
	})

	// Billing endpoints honor Idempotency-Key: a retried purchase replays
	// the recorded response instead of billing again (see idempotency.go).
	idem := newIdempotencyCache()

	mux.HandleFunc("POST /sample", idem.wrap(func(w http.ResponseWriter, r *http.Request) {
		var req sampleRequest
		if err := decode(w, r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		t, price, err := m.Sample(r.Context(), req.Name, req.JoinAttrs, req.Rate, req.Seed)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		tableResponse(w, r, t, price)
	}))

	mux.HandleFunc("POST /sample_delta", idem.wrap(func(w http.ResponseWriter, r *http.Request) {
		var req sampleDeltaRequest
		if err := decode(w, r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		t, price, err := m.SampleDelta(r.Context(), req.Name, req.JoinAttrs, req.FromRate, req.ToRate, req.Seed)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		tableResponse(w, r, t, price)
	}))

	mux.HandleFunc("POST /query", idem.wrap(func(w http.ResponseWriter, r *http.Request) {
		var req quoteRequest
		if err := decode(w, r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		t, price, err := m.ExecuteProjection(r.Context(), pricing.Query{Instance: req.Name, Attrs: req.Attrs})
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		tableResponse(w, r, t, price)
	}))

	return mux
}

// formatFDs renders FDs in the wire syntax (fd.Format); never nil, so the
// catalog's fds field is present even for listings without FDs.
func formatFDs(fds []fd.FD) []string {
	out := make([]string, len(fds))
	for i, f := range fds {
		out[i] = fd.Format(f)
	}
	return out
}

// acceptsCSV reports whether the request's Accept header names
// CSVMediaType.
func acceptsCSV(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		for _, part := range strings.Split(v, ",") {
			mt, _, _ := strings.Cut(part, ";")
			if strings.EqualFold(strings.TrimSpace(mt), CSVMediaType) {
				return true
			}
		}
	}
	return false
}

// DefaultClientTimeout caps a single marketplace round trip when the caller
// supplies no context deadline of its own. Full-table projections on large
// marketplaces are slow but finite; a hung remote must never block an
// acquisition forever. Caller deadlines — shorter or longer — always win.
const DefaultClientTimeout = 2 * time.Minute

// Client is a Market backed by a remote HTTP marketplace. Every call honors
// its context: deadlines and cancellation abort the in-flight HTTP request.
// Transient failures are retried per the Retry policy; billing calls carry
// idempotency keys so retries never purchase twice (see RetryPolicy).
// It speaks the protocol Handler serves: table purchases ask for the raw
// CSV media type and accept no other answer, and sample deltas are bought
// from POST /sample_delta.
type Client struct {
	BaseURL string
	// HTTP is the underlying client. Replace it to tune the transport.
	HTTP *http.Client
	// Timeout bounds one whole call — all retry attempts together — when
	// the caller's context carries no deadline; a caller deadline of any
	// length takes precedence. NewClient sets DefaultClientTimeout; zero or
	// negative disables the fallback.
	Timeout time.Duration
	// Retry governs transparent retries. The zero value disables them (one
	// attempt, no backoff); NewClient installs DefaultRetryPolicy.
	Retry RetryPolicy

	// rng drives backoff jitter, lazily seeded from Retry.Seed.
	rngMu sync.Mutex // lockorder: leaf
	rng   *rand.Rand // guarded by rngMu

	// idemNonce and idemSeq mint per-logical-call idempotency keys: the
	// nonce separates client instances, the sequence separates calls, and
	// retries of one call share the key.
	idemOnce  sync.Once
	idemNonce string
	idemSeq   atomic.Uint64

	// fdSnap holds the FDs the latest catalog listed, by dataset name.
	// DatasetFDs answers from it and asks GET /fds only for names it lacks:
	// listings added since, or every name before the first Catalog.
	fdMu   sync.Mutex         // lockorder: leaf
	fdSnap map[string][]fd.FD // guarded by fdMu
}

var _ Market = (*Client)(nil)

// NewClient returns a client for the marketplace at baseURL with a sane
// default timeout for deadline-less calls (DefaultClientTimeout) and the
// default retry policy.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{},
		Timeout: DefaultClientTimeout,
		Retry:   DefaultRetryPolicy(),
	}
}

// idemKey mints the idempotency key for one logical billing call. All retry
// attempts of the call share it; distinct calls — even with identical
// parameters — get distinct keys, so deliberate repeat purchases still bill.
func (c *Client) idemKey(op string, params ...string) string {
	c.idemOnce.Do(func() {
		var b [16]byte
		if _, err := cryptorand.Read(b[:]); err == nil {
			c.idemNonce = hex.EncodeToString(b[:])
		}
	})
	parts := append([]string{c.idemNonce, strconv.FormatUint(c.idemSeq.Add(1), 10), op}, params...)
	sum := sha256.Sum256([]byte(safekey.Join(parts...)))
	return hex.EncodeToString(sum[:16])
}

// callCtx applies the fallback timeout to contexts without a deadline.
func (c *Client) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); !ok && c.Timeout > 0 {
		return context.WithTimeout(ctx, c.Timeout)
	}
	return ctx, func() {}
}

func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	return c.do(ctx, call{method: http.MethodGet, path: path, decode: jsonDecoder(out)})
}

func (c *Client) post(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, call{method: http.MethodPost, path: path, body: body, decode: jsonDecoder(out)})
}

// postTable buys a table: it posts in with an idempotency key attached to
// every retry attempt (billing endpoints must carry one) and asks for the
// raw CSV media type (see decodeTableResponse).
func (c *Client) postTable(ctx context.Context, path, idemKey, name string, in interface{}) (*relation.Table, float64, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, 0, err
	}
	var t *relation.Table
	var price float64
	err = c.do(ctx, call{
		method: http.MethodPost, path: path, idemKey: idemKey, accept: CSVMediaType, body: body,
		decode: func(resp *http.Response) (err error) {
			t, price, err = decodeTableResponse(resp, name)
			return err
		},
	})
	if err != nil {
		return nil, 0, err
	}
	return t, price, nil
}

// maxPresize caps the buffer a response's Content-Length presizes. A body
// past it still reads whole, growing the buffer as io.ReadAll does, so a
// lying header cannot force a large allocation before its bytes arrive.
const maxPresize = 8 << 20

// readResponse reads a whole response body and turns non-200 statuses
// into errors.
func readResponse(resp *http.Response) ([]byte, error) {
	data, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		// Mid-body connection resets surface here; the response is lost but
		// the round trip is repeatable.
		return nil, &transientError{fmt.Errorf("marketplace client: reading response: %w", err)}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp.StatusCode, data)
	}
	return data, nil
}

// readBody reads r to EOF like io.ReadAll, into a buffer presized from a
// positive Content-Length n (capped at maxPresize), with one spare byte so
// the read that meets EOF does not grow it: a table response is read
// without the doubling copies.
func readBody(r io.Reader, n int64) ([]byte, error) {
	if n <= 0 {
		return io.ReadAll(r)
	}
	b := make([]byte, 0, min(n, maxPresize)+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// statusError maps a non-200 response to its error.
func statusError(code int, data []byte) error {
	var e errorResponse
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		// Restore the typed sentinels from the wire code so remote and
		// in-memory marketplaces fail identically under errors.Is. A
		// JSON error payload is the marketplace speaking — retrying
		// would repeat the same answer — so none of these is transient.
		switch e.Code {
		case "unknown_dataset":
			return fmt.Errorf("marketplace client: %s: %w", e.Error, ErrUnknownDataset)
		case "bad_rate":
			return fmt.Errorf("marketplace client: %s: %w", e.Error, ErrBadRate)
		case "bad_projection":
			return fmt.Errorf("marketplace client: %s: %w", e.Error, ErrBadProjection)
		}
		return fmt.Errorf("marketplace client: %s", e.Error)
	}
	err := fmt.Errorf("marketplace client: status %d", code)
	if code == http.StatusTooManyRequests || code >= 500 {
		// Payload-less 5xx/429: the infrastructure, not the
		// marketplace, refused — retry.
		return &transientError{err}
	}
	return err
}

// jsonDecoder decodes a 200 JSON response into out.
func jsonDecoder(out interface{}) func(*http.Response) error {
	return func(resp *http.Response) error {
		data, err := readResponse(resp)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, out); err != nil {
			// A 200 with undecodable JSON is a truncated or garbled body.
			return &transientError{fmt.Errorf("marketplace client: decoding response: %w", err)}
		}
		return nil
	}
}

// decodeTableResponse decodes a table endpoint's raw CSV response, with the
// price in PriceHeader. A body that is not exactly Content-Length bytes, an
// undecodable body and a missing or non-finite price are all transient: the
// bytes were damaged in transit, and the Idempotency-Key replay of a retry
// delivers them whole without billing again. Any other media type is not:
// the client asks for CSVMediaType, so a server answering otherwise would
// answer the retry the same way.
func decodeTableResponse(resp *http.Response, name string) (*relation.Table, float64, error) {
	data, err := readResponse(resp)
	if err != nil {
		return nil, 0, err
	}
	if resp.ContentLength >= 0 && int64(len(data)) != resp.ContentLength {
		return nil, 0, &transientError{fmt.Errorf("marketplace client: response body is %d bytes, Content-Length %d",
			len(data), resp.ContentLength)}
	}
	if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt != CSVMediaType {
		return nil, 0, fmt.Errorf("marketplace client: table response has Content-Type %q, want %s",
			resp.Header.Get("Content-Type"), CSVMediaType)
	}
	price, err := strconv.ParseFloat(resp.Header.Get(PriceHeader), 64)
	if err != nil || math.IsNaN(price) || math.IsInf(price, 0) {
		return nil, 0, &transientError{fmt.Errorf("marketplace client: bad %s header %q", PriceHeader, resp.Header.Get(PriceHeader))}
	}
	t, err := relation.DecodeCSV(name, data)
	if err != nil {
		return nil, 0, &transientError{fmt.Errorf("marketplace client: decoding response: %w", err)}
	}
	return t, price, nil
}

// Catalog implements Market.
func (c *Client) Catalog(ctx context.Context) ([]DatasetInfo, error) {
	var wire []wireDatasetInfo
	if err := c.get(ctx, "/catalog", &wire); err != nil {
		return nil, err
	}
	out := make([]DatasetInfo, len(wire))
	snap := make(map[string][]fd.FD, len(wire))
	for i, wi := range wire {
		if wi.FDs != nil {
			// An unparsable entry stays out of the snapshot, so DatasetFDs
			// reports it from GET /fds exactly as before.
			if fds, err := parseFDs(wi.FDs); err == nil {
				snap[wi.Name] = fds
			}
		}
		info := DatasetInfo{Name: wi.Name, Rows: wi.Rows}
		for _, wc := range wi.Attrs {
			kind, err := parseKind(wc.Kind)
			if err != nil {
				return nil, err
			}
			info.Attrs = append(info.Attrs, relation.Column{Name: wc.Name, Kind: kind, Categorical: wc.Categorical})
		}
		out[i] = info
	}
	c.fdMu.Lock()
	c.fdSnap = snap
	c.fdMu.Unlock()
	return out, nil
}

func parseKind(s string) (relation.Kind, error) {
	switch s {
	case "string":
		return relation.KindString, nil
	case "int":
		return relation.KindInt, nil
	case "float":
		return relation.KindFloat, nil
	case "null":
		return relation.KindNull, nil
	}
	return 0, fmt.Errorf("marketplace client: unknown kind %q", s)
}

// DatasetFDs implements Market. It answers from the latest Catalog's FDs
// without a round trip; names that catalog did not list (listings added
// since, or any name asked before the first Catalog) are fetched from
// GET /fds.
func (c *Client) DatasetFDs(ctx context.Context, name string) ([]fd.FD, error) {
	c.fdMu.Lock()
	fds, ok := c.fdSnap[name]
	c.fdMu.Unlock()
	if ok {
		return slices.Clone(fds), nil
	}
	// Dataset names are seller-controlled free text: escape, or names with
	// spaces, '&' or '#' corrupt the query string.
	q := url.Values{"name": {name}}
	var wire []string
	if err := c.get(ctx, "/fds?"+q.Encode(), &wire); err != nil {
		return nil, err
	}
	return parseFDs(wire)
}

// parseFDs parses FDs in the wire syntax (fd.Parse).
func parseFDs(wire []string) ([]fd.FD, error) {
	out := make([]fd.FD, len(wire))
	for i, s := range wire {
		f, err := fd.Parse(s)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// QuoteProjection implements Market.
func (c *Client) QuoteProjection(ctx context.Context, name string, attrs []string) (float64, error) {
	var resp quoteResponse
	if err := c.post(ctx, "/quote", quoteRequest{Name: name, Attrs: attrs}, &resp); err != nil {
		return 0, err
	}
	return resp.Price, nil
}

// Sample implements Market.
func (c *Client) Sample(ctx context.Context, name string, joinAttrs []string, rate float64, seed uint64) (*relation.Table, float64, error) {
	key := c.idemKey("sample", append(append([]string{name},
		joinAttrs...), formatRate(rate), strconv.FormatUint(seed, 10))...)
	return c.postTable(ctx, "/sample", key, name, sampleRequest{Name: name, JoinAttrs: joinAttrs, Rate: rate, Seed: seed})
}

func formatRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

// SampleDelta implements Market: one POST /sample_delta, idempotent across
// retries. The seller cuts the (fromRate, toRate] rows and bills only the
// difference.
func (c *Client) SampleDelta(ctx context.Context, name string, joinAttrs []string, fromRate, toRate float64, seed uint64) (*relation.Table, float64, error) {
	key := c.idemKey("sample_delta", append(append([]string{name},
		joinAttrs...), formatRate(fromRate), formatRate(toRate), strconv.FormatUint(seed, 10))...)
	return c.postTable(ctx, "/sample_delta", key, name, sampleDeltaRequest{
		Name: name, JoinAttrs: joinAttrs, FromRate: fromRate, ToRate: toRate, Seed: seed,
	})
}

// ExecuteProjection implements Market.
func (c *Client) ExecuteProjection(ctx context.Context, q pricing.Query) (*relation.Table, float64, error) {
	key := c.idemKey("query", append([]string{q.Instance}, q.Attrs...)...)
	return c.postTable(ctx, "/query", key, q.Instance, quoteRequest{Name: q.Instance, Attrs: q.Attrs})
}
