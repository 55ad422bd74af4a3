// Package pricing is a dancevet fixture for cachekey: its final path
// segment puts it in the cache-key-sensitive set. The positive case
// reproduces the projection-price memo's key, which joined the listing
// name, the row count and the column names with "|": listing "x" with
// column "a|5|b" and listing "x|3|a" with column "b" both rendered
// "x|3|a|5|b" and shared one cached price.
package pricing

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

type cached struct{ cache map[string]float64 }

func (c *cached) priceBad(name string, rows int, attrs []string) (float64, bool) {
	sorted := append([]string(nil), attrs...)
	sort.Strings(sorted)
	key := fmt.Sprintf("%s|%d|%s", name, rows, strings.Join(sorted, "\x00")) // want "printable separator"
	p, ok := c.cache[key]                                                    // want "printable separator"
	return p, ok
}

// Length-prefixed parts are injective whatever the names contain.
func join(parts ...string) string {
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(strconv.Itoa(len(p)))
		b.WriteByte(':')
		b.WriteString(p)
	}
	return b.String()
}

func (c *cached) priceGood(name string, rows int, attrs []string) (float64, bool) {
	parts := append([]string{name, strconv.Itoa(rows)}, attrs...)
	sort.Strings(parts[2:])
	key := join(parts...)
	p, ok := c.cache[key]
	return p, ok
}
