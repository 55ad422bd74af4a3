package marketplace_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/workload"
)

// TestRepeatedProjectionAttributeIsRejected: a projection naming an
// attribute twice is refused before it is priced under every price family
// — in process and over the wire, as the caller's input error (400
// "bad_projection", ErrBadProjection again at the client) — and bills
// nothing. A per-attribute
// family used to quote it at twice the single-attribute price, and its
// execution panicked the handler while building the projected schema.
func TestRepeatedProjectionAttributeIsRejected(t *testing.T) {
	ctx := context.Background()
	tab := relation.NewTable("t", relation.NewSchema(
		relation.Cat("a", relation.KindInt),
		relation.Cat("b", relation.KindString),
	))
	for i := 0; i < 20; i++ {
		tab.AppendValues(relation.IntValue(int64(i%4)), relation.StringValue(string(rune('p'+i%3))))
	}
	for _, family := range []string{"entropy", "flat", "tiered"} {
		m := marketplace.NewInMemory(workload.PriceModel(family))
		m.Register(tab, nil)
		for _, attrs := range [][]string{{"a", "a"}, {"b", "a", "b"}} {
			if p, err := m.QuoteProjection(ctx, "t", attrs); !errors.Is(err, marketplace.ErrBadProjection) {
				t.Errorf("%s: quote of %v = %v, %v; want ErrBadProjection", family, attrs, p, err)
			}
			if _, p, err := m.ExecuteProjection(ctx, pricing.Query{Instance: "t", Attrs: attrs}); !errors.Is(err, marketplace.ErrBadProjection) {
				t.Errorf("%s: execute of %v billed %v, %v; want ErrBadProjection", family, attrs, p, err)
			}
		}
		h := marketplace.Handler(m)
		for _, path := range []string{"/quote", "/query"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"name":"t","attrs":["a","a"]}`)))
			var e struct{ Code string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusBadRequest || err != nil || e.Code != "bad_projection" {
				t.Errorf("%s: POST %s with a repeated attribute answered %d %s, want 400 bad_projection", family, path, rec.Code, rec.Body)
			}
		}
		srv := httptest.NewServer(h)
		c := marketplace.NewClient(srv.URL)
		if p, err := c.QuoteProjection(ctx, "t", []string{"a", "a"}); !errors.Is(err, marketplace.ErrBadProjection) {
			t.Errorf("%s: client quote = %v, %v; want ErrBadProjection", family, p, err)
		}
		if _, p, err := c.ExecuteProjection(ctx, pricing.Query{Instance: "t", Attrs: []string{"a", "a"}}); !errors.Is(err, marketplace.ErrBadProjection) {
			t.Errorf("%s: client execute billed %v, %v; want ErrBadProjection", family, p, err)
		}
		srv.Close()
		if n := len(m.Ledger().Entries()); n != 0 {
			t.Errorf("%s: %d ledger entries after rejected projections", family, n)
		}
		// The single-attribute projection still sells.
		if _, _, err := m.ExecuteProjection(ctx, pricing.Query{Instance: "t", Attrs: []string{"a"}}); err != nil {
			t.Errorf("%s: %v", family, err)
		}
	}
}
