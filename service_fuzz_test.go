package dance_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	dance "github.com/dance-db/dance"
)

// fuzzTimeout bounds every fuzzed request's server-side work through the
// request context, from which the service derives its deadline, so that a
// body asking for 2^30 iterations ends by cancellation while the service
// still decodes the fuzzed bytes as sent.
const fuzzTimeout = 20 * time.Millisecond

// fuzzPaths are the v1 endpoints that decode a shopper's JSON body.
var fuzzPaths = []string{"/v1/acquire", "/v1/topk", "/v1/execute"}

// FuzzServiceRequest posts arbitrary bodies to danced's v1 endpoints over
// a tiny in-memory marketplace. The service must never panic, and every
// answer that is not 2xx must be the {"error"} JSON shape with a 4xx
// status, or 503 or 504.
func FuzzServiceRequest(f *testing.F) {
	market, own := marketFixture(1)
	mw := dance.New(market, dance.Config{SampleRate: 0.9, SampleSeed: 4, Workers: 1})
	mw.AddSource(own, nil)
	if err := mw.Offline(context.Background()); err != nil {
		f.Fatal(err)
	}
	svc, err := dance.NewService(mw, dance.ServiceOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { svc.Close() })
	h := svc.Handler()

	post := func(ctx context.Context, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
		return rec
	}
	acquire := `{"source_attrs":["income"],"target_attrs":["riskband"],"budget":1e9,"iterations":40,"seed":2}`
	rec := post(context.Background(), "/v1/acquire", []byte(acquire))
	var plan dance.PlanInfo
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &plan) != nil {
		f.Fatalf("seed acquire: %d %s", rec.Code, rec.Body)
	}
	for _, seed := range []struct {
		path uint8
		body string
	}{
		{0, acquire},
		{0, `{"source_attrs":["income"],"target_attrs":["riskband"],"iterations":1073741824,"eta":5}`},
		{0, `{"target_attrs":["riskband","income"],"policy":"try-before-you-buy","policy_params":{"rounds":1}}`},
		{0, `{"target_attrs":[]}`},
		{0, `{"workers":-1,"landmarks":-3,"max_covers":1e3}`},
		{0, `{"source_attrs":["income"],"target_attrs":["riskband"],"workers":100000000000}`},
		{1, `{"source_attrs":["income"],"target_attrs":["riskband"],"budget":1e9,"k":3,"weights":{"correlation":1}}`},
		{1, `{"k":-1}`},
		{2, `{"plan_id":"` + plan.ID + `"}`},
		{2, `{"plan_id":"pl_0"}`},
		{2, `[]`},
		{0, `{"seed":1e400}`},
		{0, ``},
	} {
		f.Add(seed.path, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		path := fuzzPaths[int(sel)%len(fuzzPaths)]
		ctx, cancel := context.WithTimeout(context.Background(), fuzzTimeout)
		defer cancel()
		rec := post(ctx, path, body)
		if rec.Code/100 == 2 {
			return
		}
		if rec.Code/100 != 4 && rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		var e struct {
			Error *string `json:"error"`
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("POST %s %q: status %d with Content-Type %q", path, body, rec.Code, ct)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == nil || *e.Error == "" {
			t.Fatalf("POST %s %q: status %d without an error message: %s", path, body, rec.Code, rec.Body)
		}
	})
}
