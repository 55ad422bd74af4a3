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
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/pricing"
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

// jsonOnlyHandler serves the wire surface of a server without the CSV
// media type or the catalog's fds field, and counts GET /fds requests.
func jsonOnlyHandler(m Market, fdsHits *atomic.Int64) http.Handler {
	inner := Handler(m)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		switch r.URL.Path {
		case "/fds":
			fdsHits.Add(1)
		case "/catalog":
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			var infos []map[string]json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			for _, info := range infos {
				delete(info, "fds")
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(infos)
			return
		}
		inner.ServeHTTP(w, r)
	})
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

// TestClientAgainstJSONOnlyServer: a current Client gets identical tables,
// prices and FDs from a current server and from one without the CSV media
// type and catalog FDs; only the old server needs GET /fds.
func TestClientAgainstJSONOnlyServer(t *testing.T) {
	var oldHits, newHits atomic.Int64
	oldSrv := httptest.NewServer(jsonOnlyHandler(demoMarket(), &oldHits))
	defer oldSrv.Close()
	newSrv := httptest.NewServer(countingHandler(demoMarket(), &newHits))
	defer newSrv.Close()
	oldC, newC := NewClient(oldSrv.URL), NewClient(newSrv.URL)

	type answer struct {
		csv   string
		price float64
	}
	buy := func(c *Client) []answer {
		var out []answer
		add := func(tab *relation.Table, price float64, err error) {
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tab.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, answer{buf.String(), price})
		}
		add(c.Sample(bg, "alpha", []string{"k"}, 0.4, 3))
		add(c.SampleDelta(bg, "alpha", []string{"k"}, 0.4, 0.9, 3))
		add(c.ExecuteProjection(bg, pricing.Query{Instance: "beta", Attrs: []string{"amount", "k"}}))
		return out
	}
	if got, want := buy(oldC), buy(newC); !reflect.DeepEqual(got, want) {
		t.Fatalf("tables or prices differ between JSON-only and CSV servers:\n%v\n%v", got, want)
	}

	fdsOf := func(c *Client) map[string][]fd.FD {
		cat, err := c.Catalog(bg)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]fd.FD{}
		for _, info := range cat {
			fds, err := c.DatasetFDs(bg, info.Name)
			if err != nil {
				t.Fatal(err)
			}
			out[info.Name] = fds
		}
		return out
	}
	oldFDs, newFDs := fdsOf(oldC), fdsOf(newC)
	if !reflect.DeepEqual(oldFDs, newFDs) || len(newFDs["alpha"]) != 1 {
		t.Fatalf("FDs differ: old server %v, new server %v", oldFDs, newFDs)
	}
	if got := oldHits.Load(); got != 2 {
		t.Fatalf("JSON-only server saw %d GET /fds, want one per listing (2)", got)
	}
	if got := newHits.Load(); got != 0 {
		t.Fatalf("current server saw %d GET /fds, want 0 (FDs come with the catalog)", got)
	}

	// A name the latest catalog did not list falls back to GET /fds and
	// keeps its typed error.
	if _, err := newC.DatasetFDs(bg, "ghost"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if got := newHits.Load(); got != 1 {
		t.Fatalf("unknown name did not fall back to GET /fds (%d requests)", got)
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

// FuzzDecodeTableResponse: the table decoder never panics, a body shorter
// than its Content-Length is a transient error (never a shorter table),
// and an accepted CSV table is a WriteCSV fixed point.
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
		if err != nil || !csvMode {
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
