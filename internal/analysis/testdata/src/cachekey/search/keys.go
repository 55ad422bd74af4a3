// Package search is a dancevet fixture for cachekey: its final path
// segment puts it in the cache-key-sensitive set. The positive cases
// reproduce PR 4's JICache aliasing bug — printable separators between
// marketplace-controlled names.
package search

import (
	"fmt"
	"strconv"
	"strings"
)

type cache struct{ m map[string]float64 }

func (c *cache) get(key string) (float64, bool) {
	v, ok := c.m[key]
	return v, ok
}

// pairKeyBad is the seeded PR 4 reproduction: "a|b"+"|"+"c" and
// "a"+"|"+"b|c" collide.
func pairKeyBad(a, b string) string {
	return a + "|" + b // want "printable separator"
}

func attrsKeyBad(attrs []string) string {
	return strings.Join(attrs, "/") // want "printable separator"
}

func sprintfKeyBad(name, attr string) string {
	return fmt.Sprintf("%s:%s", name, attr) // want "printable separator"
}

// The repo convention: non-printable separators cannot appear in names.
func pairKeyGood(a, b string) string {
	return a + "\x01" + b
}

func attrsKeyGood(attrs []string) string {
	return strings.Join(attrs, "\x00")
}

// A numeric suffix cannot smuggle a separator byte.
func versionKeyGood(name string, v uint64) string {
	return name + "@" + strconv.FormatUint(v, 10)
}

func lookup(c *cache, name, attr string) (float64, bool) {
	return c.get(name + ":" + attr) // want "printable separator"
}

func assigned(c *cache, name, attr string) float64 {
	cacheKey := name + "|" + attr // want "printable separator"
	v, _ := c.get(cacheKey)       // want "printable separator"
	return v
}

// builderKeyBad is the join-prefix key shape: a strings.Builder assembling
// step IDs and join attributes with printable separators, so step "b@1"
// joined on "5@x" and step "b@1@5" joined on "x" render one key.
func builderKeyBad(ids, attrs []string) string {
	var b strings.Builder
	for i := range ids {
		b.WriteByte('|')
		b.WriteString(ids[i])
		b.WriteByte('@')
		b.WriteString(attrs[i])
	}
	return b.String() // want "printable separator"
}

func builderKeyGood(ids, attrs []string) string {
	var b strings.Builder
	for i := range ids {
		b.WriteString(ids[i])
		b.WriteByte(0)
		b.WriteString(attrs[i])
		b.WriteByte(1)
	}
	return b.String()
}

// Numbers between printable separators cannot smuggle one.
func builderNumericKeyGood(xs []int) string {
	var b strings.Builder
	for _, x := range xs {
		b.WriteString(strconv.Itoa(x))
		b.WriteByte(';')
	}
	return b.String()
}

// Joining for human-readable output is fine outside key contexts.
func describe(a, b string) string {
	return a + ", " + b
}

func legacyKey(a, b string) string {
	//dancevet:ignore cachekey names are validated to [a-z0-9_]+ upstream
	return a + "|" + b
}
