package search_test

import (
	"testing"

	"example.com/driver/internal/search"
)

func TestRender(t *testing.T) {
	p := search.Pair{A: "a", B: "b"}
	if p.Render() != "a\x00b" {
		t.Fatal("unexpected rendering")
	}
}
