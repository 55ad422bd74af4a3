package safekey

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// aliasPairs are pairs of different part lists that collide under a naive
// printable-separator join; Join must keep them apart.
var aliasPairs = [][2][]string{
	{{"a|b", "c"}, {"a", "b|c"}}, // the JICache aliasing shape
	{{"a", "b"}, {"a|b"}},        // separator absorbed into a part
	{{"1:a"}, {"a"}},             // part mimicking the encoding
	{{"", "a"}, {"a", ""}},       // empty parts on either side
	{{"a", "", "b"}, {"a", "b"}}, // interior empty part
	{{"x\x00y"}, {"x", "y"}},     // embedded NUL
	{{"2:ab"}, {"ab"}},           // full prefix spoof
	{{"a", "11:bbbbbbbbbbb"}, {"a:11", "bbbbbbbbbbb"}},
}

func TestJoinAliasPairs(t *testing.T) {
	for _, p := range aliasPairs {
		if Join(p[0]...) == Join(p[1]...) {
			t.Errorf("Join(%q) == Join(%q) == %q; want distinct keys",
				p[0], p[1], Join(p[0]...))
		}
	}
}

// FuzzSafekeyJoin checks injectivity on part lists built from the fuzz
// input: a and b are each split on sep into a part list, and two lists
// that differ must never render to the same key. The seeds are the alias
// pairs, each encoded with a separator none of its parts contains.
func FuzzSafekeyJoin(f *testing.F) {
	for _, p := range aliasPairs {
		all := strings.Join(append(append([]string(nil), p[0]...), p[1]...), "")
		sep := byte(0x1f)
		for strings.IndexByte(all, sep) >= 0 {
			sep++
		}
		s := string(sep)
		f.Add(strings.Join(p[0], s), strings.Join(p[1], s), sep)
	}
	f.Fuzz(func(t *testing.T, a, b string, sep byte) {
		pa, pb := strings.Split(a, string(sep)), strings.Split(b, string(sep))
		if slices.Equal(pa, pb) {
			return
		}
		if Join(pa...) == Join(pb...) {
			t.Fatalf("Join(%q) == Join(%q) == %q; want distinct keys", pa, pb, Join(pa...))
		}
	})
}

// TestJoinInjectiveExhaustive checks injectivity over every part list of
// length ≤ 3 drawn from an alphabet chosen to stress the encoding:
// empties, digits, the ':' delimiter, and strings that look like
// length prefixes.
func TestJoinInjectiveExhaustive(t *testing.T) {
	alphabet := []string{"", ":", "1", "a", "1:", "1:a", "2:aa", "a:"}
	seen := map[string]string{}
	var lists [][]string
	lists = append(lists, []string{})
	for _, a := range alphabet {
		lists = append(lists, []string{a})
		for _, b := range alphabet {
			lists = append(lists, []string{a, b})
			for _, c := range alphabet {
				lists = append(lists, []string{a, b, c})
			}
		}
	}
	for _, parts := range lists {
		key := Join(parts...)
		repr := fmt.Sprintf("%q", parts)
		if prev, ok := seen[key]; ok && prev != repr {
			t.Fatalf("collision: %q and %q both render to %q", prev, repr, key)
		}
		seen[key] = repr
	}
}

func TestJoinPrefixCompositional(t *testing.T) {
	got := Join("a@1", "b@2") + Join("x", "y")
	want := Join("a@1", "b@2", "x", "y")
	if got != want {
		t.Fatalf("Join(a,b)+Join(x,y) = %q; Join(a,b,x,y) = %q", got, want)
	}
}

func TestJoinEmpty(t *testing.T) {
	if got := Join(); got != "" {
		t.Fatalf("Join() = %q; want empty", got)
	}
	if Join("") == Join() {
		t.Fatal("Join(\"\") must differ from Join()")
	}
}
