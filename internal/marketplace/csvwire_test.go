package marketplace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
)

// legacyRequests are the table requests whose JSON-mode answers are pinned
// in testdata/legacy_table_responses.json, recorded from a server that
// predates the CSV media type.
var legacyRequests = []struct{ path, body string }{
	{"/sample", `{"name":"alpha","join_attrs":["k"],"rate":0.5,"seed":7}`},
	{"/sample_delta", `{"name":"alpha","join_attrs":["k"],"from_rate":0.2,"to_rate":0.7,"seed":9}`},
	{"/query", `{"name":"alpha","attrs":["k","state"]}`},
}

func serve(h http.Handler, path, body string, header http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for k, vs := range header {
		req.Header[k] = vs
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestOldClientGetsLegacyBytes: a plain POST without an Accept header gets
// exactly the {csv, price} bytes older servers sent.
func TestOldClientGetsLegacyBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/legacy_table_responses.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	h := Handler(demoMarket())
	for _, lr := range legacyRequests {
		rec := serve(h, lr.path, lr.body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", lr.path, rec.Code)
		}
		if got := rec.Body.String(); got != golden[lr.path] {
			t.Fatalf("%s: legacy response bytes changed:\n got %q\nwant %q", lr.path, got, golden[lr.path])
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", lr.path, ct)
		}
	}
}

// TestCSVModeResponse: with Accept: text/csv the body is the table's raw
// CSV, the price header parses back to the exact JSON-mode price, and the
// Content-Length is explicit.
func TestCSVModeResponse(t *testing.T) {
	h := Handler(demoMarket())
	for _, lr := range legacyRequests {
		legacy := serve(h, lr.path, lr.body, nil)
		var want wireTableResponse
		if err := json.Unmarshal(legacy.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		rec := serve(h, lr.path, lr.body, http.Header{"Accept": {"application/json;q=0.5, text/csv"}})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", lr.path, rec.Code)
		}
		if got := rec.Body.String(); got != want.CSV {
			t.Fatalf("%s: CSV body differs from the JSON-mode csv field", lr.path)
		}
		if ct := rec.Header().Get("Content-Type"); ct != CSVMediaType {
			t.Fatalf("%s: Content-Type %q", lr.path, ct)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for %d bytes", lr.path, cl, rec.Body.Len())
		}
		price, err := strconv.ParseFloat(rec.Header().Get(PriceHeader), 64)
		if err != nil || price != want.Price {
			t.Fatalf("%s: price header %q, want %v", lr.path, rec.Header().Get(PriceHeader), want.Price)
		}
	}
}

// countingHandler counts GET /fds requests to a current server.
func countingHandler(m Market, fdsHits *atomic.Int64) http.Handler {
	inner := Handler(m)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fds" {
			fdsHits.Add(1)
		}
		inner.ServeHTTP(w, r)
	})
}

// TestCatalogCarriesFDs: once a Catalog has listed a dataset's FDs the
// client answers DatasetFDs without GET /fds; a name that catalog did not
// list falls back to GET /fds and keeps its typed error.
func TestCatalogCarriesFDs(t *testing.T) {
	var hits atomic.Int64
	backend := demoMarket()
	srv := httptest.NewServer(countingHandler(backend, &hits))
	defer srv.Close()
	c := NewClient(srv.URL)

	cat, err := c.Catalog(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range cat {
		got, err := c.DatasetFDs(bg, info.Name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := backend.DatasetFDs(bg, info.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: FDs %v, want %v", info.Name, got, want)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("current server saw %d GET /fds, want 0 (FDs come with the catalog)", n)
	}
	if _, err := c.DatasetFDs(bg, "ghost"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("unknown name did not fall back to GET /fds (%d requests)", n)
	}
}

// TestFDNamesSurviveTheWire: FDs over attribute names that hold the FD
// syntax's delimiters reach a remote client as the seller registered them,
// from the catalog and from GET /fds alike.
func TestFDNamesSurviveTheWire(t *testing.T) {
	tab := relation.NewTable("odd", relation.NewSchema(
		relation.Cat("a,b", relation.KindInt),
		relation.Cat(" a", relation.KindInt),
		relation.Cat("p→q", relation.KindInt),
		relation.Cat("c", relation.KindInt),
	))
	tab.AppendValues(relation.IntValue(1), relation.IntValue(2), relation.IntValue(3), relation.IntValue(4))
	want := []fd.FD{fd.New("c", "a,b"), fd.New("c", " a"), fd.New("c", "p→q")}
	m := NewInMemory(nil)
	m.Register(tab, want)
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	c := NewClient(srv.URL)
	fromFDs, err := c.DatasetFDs(bg, "odd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Catalog(bg); err != nil {
		t.Fatal(err)
	}
	fromCatalog, err := c.DatasetFDs(bg, "odd")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFDs, want) || !reflect.DeepEqual(fromCatalog, want) {
		t.Fatalf("FDs over the wire: GET /fds %q, catalog %q; want %q", fromFDs, fromCatalog, want)
	}
}

// TestNonCSVTableResponseIsError: the client asks every table purchase for
// CSVMediaType, so a 200 answer in any other media type is an error, not a
// decode, and is not retried: the JSON object a request without that
// Accept header gets is refused.
func TestNonCSVTableResponseIsError(t *testing.T) {
	h := Handler(demoMarket())
	for _, lr := range legacyRequests {
		legacy := serve(h, lr.path, lr.body, nil).Body.Bytes()
		tab, _, err := decodeTableResponse(tableResponseFor(legacy, false, "", len(legacy)), "alpha")
		if err == nil || isTransient(err) || tab != nil {
			t.Fatalf("%s: JSON table answer: err %v, table %v; want a non-transient error", lr.path, err, tab != nil)
		}
	}
	var tries atomic.Int64
	noAccept := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tries.Add(1)
		r.Header.Del("Accept")
		h.ServeHTTP(w, r)
	})
	c, _ := retryClient(t, noAccept)
	if _, _, err := c.Sample(bg, "alpha", []string{"k"}, 0.5, 7); err == nil || isTransient(err) {
		t.Fatalf("JSON answer to a sample: err %v, want a non-transient error", err)
	}
	if n := tries.Load(); n != 1 {
		t.Fatalf("a JSON table answer took %d attempts, want 1", n)
	}
}

// TestOversizedBodyIs413: request bodies past MaxRequestBytes answer 413
// with the JSON error payload and bill nothing.
func TestOversizedBodyIs413(t *testing.T) {
	m := demoMarket()
	h := Handler(m)
	pad := strings.Repeat(" ", MaxRequestBytes)
	for _, lr := range legacyRequests {
		code, e := postStatus(t, h, lr.path, pad+lr.body)
		if code != http.StatusRequestEntityTooLarge || e.Error == "" {
			t.Fatalf("%s: status %d, error %q; want 413 with a payload", lr.path, code, e.Error)
		}
	}
	if code, _ := postStatus(t, h, "/quote", pad+`{"name":"alpha","attrs":["k"]}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("/quote: status %d, want 413", code)
	}
	if n := len(m.Ledger().Entries()); n != 0 {
		t.Fatalf("oversized requests billed %d entries", n)
	}
	// A body just under the bound is still served.
	body := legacyRequests[0].body
	if code, _ := postStatus(t, h, "/sample", strings.Repeat(" ", MaxRequestBytes-len(body))+body); code != http.StatusOK {
		t.Fatalf("body at the bound: status %d", code)
	}
}

// tableResponseFor builds a table response for the decoder: body cut to its
// first n bytes while Content-Length still declares the full body.
func tableResponseFor(body []byte, csvMode bool, price string, n int) *http.Response {
	h := http.Header{}
	if csvMode {
		h.Set("Content-Type", CSVMediaType)
		h.Set(PriceHeader, price)
	} else {
		h.Set("Content-Type", "application/json")
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        h,
		ContentLength: int64(len(body)),
		Body:          io.NopCloser(bytes.NewReader(body[:n])),
	}
}

// A positive Content-Length presizes the body buffer: the body reads back
// whole in one allocation whatever the header says, a lying header costs
// no more than the presize cap, and a body short of its Content-Length is
// still a transient error.
func TestReadBodyPresized(t *testing.T) {
	body := bytes.Repeat([]byte("k,v\n1,2\n"), 4096)
	n := int64(len(body))
	for _, header := range []int64{-1, 0, 1, n - 1, n, n + 7, 1 << 40} {
		got, err := readBody(bytes.NewReader(body), header)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("Content-Length %d: read %d bytes, err %v; want the %d-byte body", header, len(got), err, n)
		}
	}
	r := bytes.NewReader(body)
	if allocs := testing.AllocsPerRun(10, func() { r.Reset(body); _, _ = readBody(r, n) }); allocs != 1 {
		t.Fatalf("reading a body of its Content-Length took %.0f allocations, want 1", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if got, err := readBody(bytes.NewReader(body[:10]), 1<<40); err != nil || len(got) != 10 {
		t.Fatalf("a lying Content-Length: read %d bytes, err %v", len(got), err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*maxPresize {
		t.Fatalf("a lying Content-Length allocated %d bytes, cap %d", grew, maxPresize)
	}
	if _, _, err := decodeTableResponse(tableResponseFor(body, true, "1", len(body)-1), "short"); err == nil || !isTransient(err) {
		t.Fatalf("a body one byte short of its Content-Length: err %v, want transient", err)
	}
}

// FuzzDecodeTableResponse: the table decoder never panics, a body shorter
// than its Content-Length is a transient error (never a shorter table), a
// whole body in another media type (the JSON seeds) is a non-transient
// error, and an accepted CSV table is a WriteCSV fixed point.
func FuzzDecodeTableResponse(f *testing.F) {
	// Seeds are real responses from a small listing: short inputs keep the
	// fuzzer fast.
	m := NewInMemory(nil)
	m.Register(demoTable("alpha", 12, 1), nil)
	h := Handler(m)
	for _, lr := range legacyRequests {
		legacy := serve(h, lr.path, lr.body, nil)
		f.Add(legacy.Body.Bytes(), false, "", uint16(0))
		f.Add(legacy.Body.Bytes(), false, "", uint16(7))
		csv := serve(h, lr.path, lr.body, http.Header{"Accept": {CSVMediaType}})
		price := csv.Header().Get(PriceHeader)
		f.Add(csv.Body.Bytes(), true, price, uint16(0))
		f.Add(csv.Body.Bytes(), true, price, uint16(1))
		f.Add(csv.Body.Bytes(), true, "NaN", uint16(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, csvMode bool, price string, cut uint16) {
		short := int(cut) % (len(body) + 1)
		tab, _, err := decodeTableResponse(tableResponseFor(body, csvMode, price, len(body)-short), "fuzz")
		if short > 0 {
			if err == nil || !isTransient(err) {
				t.Fatalf("body %d bytes short of Content-Length: err %v, table %v", short, err, tab != nil)
			}
			return
		}
		if !csvMode {
			if err == nil || isTransient(err) {
				t.Fatalf("a whole non-CSV body: err %v, want a non-transient error", err)
			}
			return
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := tab.WriteCSV(&first); err != nil {
			t.Fatal(err)
		}
		again, err := relation.ReadCSV("fuzz", bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading an accepted table: %v", err)
		}
		if err := again.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("accepted table is not a WriteCSV fixed point:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
