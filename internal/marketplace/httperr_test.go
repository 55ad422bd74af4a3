package marketplace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postStatus drives the handler directly so the raw HTTP status contract is
// pinned, not just the client's interpretation of it.
func postStatus(t *testing.T, h http.Handler, path, body string) (int, errorResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var e errorResponse
	if rec.Code != http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: non-JSON error body %q (status %d)", path, rec.Body.String(), rec.Code)
		}
	}
	return rec.Code, e
}

func TestHandlerErrorStatuses(t *testing.T) {
	h := Handler(demoMarket())

	// Unknown dataset → 404 with the machine code.
	code, e := postStatus(t, h, "/sample", `{"name":"ghost","join_attrs":["k"],"rate":0.5,"seed":1}`)
	if code != http.StatusNotFound || e.Code != "unknown_dataset" {
		t.Fatalf("unknown dataset: status %d code %q", code, e.Code)
	}
	code, e = postStatus(t, h, "/sample_delta", `{"name":"ghost","join_attrs":["k"],"from_rate":0.1,"to_rate":0.5,"seed":1}`)
	if code != http.StatusNotFound || e.Code != "unknown_dataset" {
		t.Fatalf("unknown dataset (delta): status %d code %q", code, e.Code)
	}
	code, e = postStatus(t, h, "/query", `{"name":"ghost","attrs":["k"]}`)
	if code != http.StatusNotFound || e.Code != "unknown_dataset" {
		t.Fatalf("unknown dataset (query): status %d code %q", code, e.Code)
	}

	// Out-of-range rates → 400 with the machine code — even when the
	// dataset is unknown too (the caller's input error wins).
	code, e = postStatus(t, h, "/sample", `{"name":"alpha","join_attrs":["k"],"rate":1.5,"seed":1}`)
	if code != http.StatusBadRequest || e.Code != "bad_rate" {
		t.Fatalf("bad rate: status %d code %q", code, e.Code)
	}
	code, e = postStatus(t, h, "/sample", `{"name":"ghost","join_attrs":["k"],"rate":0,"seed":1}`)
	if code != http.StatusBadRequest || e.Code != "bad_rate" {
		t.Fatalf("bad rate on unknown dataset: status %d code %q", code, e.Code)
	}
	code, e = postStatus(t, h, "/sample_delta", `{"name":"alpha","join_attrs":["k"],"from_rate":0.7,"to_rate":0.2,"seed":1}`)
	if code != http.StatusBadRequest || e.Code != "bad_rate" {
		t.Fatalf("bad delta range: status %d code %q", code, e.Code)
	}

	// Malformed JSON → 400, no machine code (there is no marketplace error
	// class for a request that never parsed).
	for _, path := range []string{"/sample", "/sample_delta", "/quote", "/query"} {
		code, e = postStatus(t, h, path, `{"name": nope}`)
		if code != http.StatusBadRequest || e.Code != "" {
			t.Fatalf("%s malformed JSON: status %d code %q", path, code, e.Code)
		}
	}

	// A projection naming an attribute the listing lacks is the shopper's
	// mistake → 400 bad_projection, so clients do not retry it.
	for _, path := range []string{"/quote", "/query"} {
		code, e := postStatus(t, h, path, `{"name":"alpha","attrs":["no-such-attr"]}`)
		if code != http.StatusBadRequest || e.Code != "bad_projection" {
			t.Fatalf("%s unknown attribute: status %d code %q", path, code, e.Code)
		}
	}

	// GET /fds with an unknown dataset → 404.
	req := httptest.NewRequest(http.MethodGet, "/fds?name=ghost", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("fds unknown dataset: status %d", rec.Code)
	}
}
