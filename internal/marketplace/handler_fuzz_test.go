package marketplace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/pricing"
)

// fuzzPaths are the endpoints FuzzMarketHandler selects from; the GET ones
// ignore the body.
var fuzzPaths = []string{"/quote", "/sample", "/sample_delta", "/query", "/catalog", "/fds?name=alpha"}

// FuzzMarketHandler: whatever path and JSON body a shopper sends, the
// handler never panics, and the marketplace ledger grows only on a 200
// answer — by exactly one entry on a billing endpoint, for exactly the
// price the answer carries — under flat and entropy pricing.
func FuzzMarketHandler(f *testing.F) {
	for _, lr := range legacyRequests {
		for sel, p := range fuzzPaths {
			if p == lr.path {
				f.Add(uint8(sel), lr.body, false, false)
				f.Add(uint8(sel), lr.body, true, true)
			}
		}
	}
	f.Add(uint8(0), `{"name":"alpha","attrs":["k","state"]}`, false, false)
	f.Add(uint8(0), `{"name":"alpha","attrs":["k","k"]}`, true, false)
	f.Add(uint8(3), `{"name":"alpha","attrs":["k","k"]}`, true, false)
	f.Add(uint8(3), `{"name":"alpha","attrs":["k","k"]}`, false, true)
	f.Add(uint8(4), ``, false, false)
	f.Add(uint8(5), ``, true, false)
	f.Fuzz(func(t *testing.T, sel uint8, body string, flat, csvMode bool) {
		model := pricing.Model(pricing.Cached(pricing.DefaultEntropyModel()))
		if flat {
			model = pricing.FlatModel{PerAttribute: 2}
		}
		m := NewInMemory(model)
		m.Register(demoTable("alpha", 12, 1), []fd.FD{fd.New("state", "k")})
		path := fuzzPaths[int(sel)%len(fuzzPaths)]
		method := http.MethodPost
		if path == "/catalog" || strings.HasPrefix(path, "/fds") {
			method = http.MethodGet
		}
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if csvMode {
			req.Header.Set("Accept", CSVMediaType)
		}
		rec := httptest.NewRecorder()
		Handler(m).ServeHTTP(rec, req)

		entries := m.Ledger().Entries()
		billing := path == "/sample" || path == "/sample_delta" || path == "/query"
		if rec.Code != http.StatusOK || !billing {
			if len(entries) != 0 {
				t.Fatalf("%s answered %d and billed %d entries", path, rec.Code, len(entries))
			}
			return
		}
		if len(entries) != 1 {
			t.Fatalf("%s answered 200 and billed %d entries, want 1", path, len(entries))
		}
		var price float64
		if csvMode {
			var err error
			if price, err = strconv.ParseFloat(rec.Header().Get(PriceHeader), 64); err != nil {
				t.Fatalf("%s: price header: %v", path, err)
			}
		} else {
			var resp wireTableResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: response: %v", path, err)
			}
			price = resp.Price
		}
		if entries[0].Amount != price {
			t.Fatalf("%s answered price %v but billed %v", path, price, entries[0].Amount)
		}
	})
}
