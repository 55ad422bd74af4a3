package relation

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// firstAppearanceCodes is the reference dictionary: codes in
// first-appearance order over AppendKey identities, NULL = 0.
func firstAppearanceCodes(vals []Value) []uint32 {
	seen := map[string]uint32{}
	out := make([]uint32, len(vals))
	next := uint32(1)
	for i, v := range vals {
		if v.IsNull() {
			continue
		}
		k := string(v.AppendKey(nil))
		c, ok := seen[k]
		if !ok {
			c = next
			next++
			seen[k] = c
		}
		out[i] = c
	}
	return out
}

func oneColumn(kind Kind, vals []Value) *Table {
	t := NewTable("d", NewSchema(Cat("x", kind)))
	for _, v := range vals {
		t.AppendValues(v)
	}
	return t
}

func checkCodes(t *testing.T, tag string, vals []Value) *Dict {
	t.Helper()
	c := ToColumnar(oneColumn(KindFloat, vals))
	want := firstAppearanceCodes(vals)
	for i, code := range c.Codes(0) {
		if code != want[i] {
			t.Fatalf("%s: row %d (%v): code %d, want %d", tag, i, vals[i], code, want[i])
		}
		if !c.ValueAt(i, 0).EqualValue(vals[i]) {
			t.Fatalf("%s: row %d decodes to %v, want %v", tag, i, c.ValueAt(i, 0), vals[i])
		}
	}
	d := c.cols[0].Dict
	for i, v := range vals {
		if code, ok := d.lookup(v); !ok || code != want[i] {
			t.Fatalf("%s: lookup(%v) = %d, %v; want %d", tag, v, code, ok, want[i])
		}
	}
	return d
}

func TestDictDenseSlotBoundaries(t *testing.T) {
	vals := []Value{
		IntValue(255), IntValue(256), IntValue(4095), IntValue(65535), IntValue(65536),
		FloatValue(256), IntValue(4096), FloatValue(65535), FloatValue(65536), IntValue(255),
		Null(), IntValue(0), IntValue(-1), FloatValue(4095.5), IntValue(1 << 40), IntValue(65536),
	}
	d := checkCodes(t, "boundaries", vals)
	if len(d.dense) > maxDenseInt {
		t.Fatalf("dense table grew to %d slots, bound %d", len(d.dense), maxDenseInt)
	}
	for _, v := range []Value{IntValue(254), IntValue(65537), FloatValue(0.5), StringValue("255")} {
		if _, ok := d.lookup(v); ok {
			t.Fatalf("lookup(%v) found a value never interned", v)
		}
	}

	// The same values in the opposite order: every boundary value must
	// land on the same side of the dense/map split either way.
	rev := make([]Value, len(vals))
	for i, v := range vals {
		rev[len(vals)-1-i] = v
	}
	checkCodes(t, "reversed", rev)
}

func TestDictDenseGrowthIsBounded(t *testing.T) {
	// One large id must not allocate a table sized to it.
	d := checkCodes(t, "sparse", []Value{IntValue(60000)})
	if len(d.dense) != 0 {
		t.Fatalf("a one-value dictionary allocated %d dense slots", len(d.dense))
	}

	// An id interned while too sparse for the table moves into the table
	// once the dictionary grows past it, keeping its code.
	vals := []Value{IntValue(5000)}
	for i := 0; i < 1000; i++ {
		vals = append(vals, IntValue(int64(i)))
	}
	vals = append(vals, FloatValue(5000))
	d = checkCodes(t, "migrated", vals)
	if len(d.dense) <= 5000 {
		t.Fatalf("dense table (%d slots) never grew to cover 5000", len(d.dense))
	}
}

func TestDictRandomMixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]Value, 5000)
	for i := range vals {
		switch rng.Intn(5) {
		case 0:
			vals[i] = IntValue(int64(rng.Intn(300)))
		case 1:
			vals[i] = IntValue(int64(rng.Intn(70000)))
		case 2:
			vals[i] = FloatValue(float64(rng.Intn(70000)))
		case 3:
			vals[i] = FloatValue(rng.Float64() * 100)
		default:
			vals[i] = IntValue(-int64(rng.Intn(50)))
		}
	}
	checkCodes(t, "random", vals)
}

// TestEquiJoinIntFloatAcrossDictionaries joins IntValue keys against
// FloatValue keys of the same numbers, both ways round, across the dense
// slots and the map: the row join matches them (AppendKey normalization),
// so the code-keyed index must too.
func TestEquiJoinIntFloatAcrossDictionaries(t *testing.T) {
	ints := NewTable("I", NewSchema(Cat("k", KindInt), Cat("g", KindInt), Cat("iv", KindString)))
	floats := NewTable("F", NewSchema(Cat("k", KindFloat), Cat("g", KindFloat), Cat("fv", KindString)))
	for i, n := range []int64{3, 255, 256, 4095, 65535, 65536, 70000, 1 << 40} {
		ints.AppendValues(IntValue(n), IntValue(int64(i%2)), StringValue("i"))
		floats.AppendValues(FloatValue(float64(n)), FloatValue(float64(i%2)), StringValue("f"))
	}
	floats.AppendValues(FloatValue(3.5), FloatValue(1), StringValue("nomatch"))
	for _, on := range [][]string{{"k"}, {"k", "g"}, {"g", "k"}} {
		for _, pair := range [][2]*Table{{ints, floats}, {floats, ints}} {
			a, b := pair[0], pair[1]
			want, err := EquiJoin(a, b, on)
			if err != nil {
				t.Fatal(err)
			}
			if want.NumRows() != 8 {
				t.Fatalf("row join %s ⋈ %s on %v found %d rows, want 8", a.Name, b.Name, on, want.NumRows())
			}
			got, err := EquiJoinColumnar(ToColumnar(a), ToColumnar(b), on, nil, JoinOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tablesEqual(t, want, got.ToTable())
		}
	}
}

// TestEquiJoinNullKeys pins that NULL join keys match each other exactly as
// on the row path, whose key encoding gives NULL a byte of its own.
func TestEquiJoinNullKeys(t *testing.T) {
	a := NewTable("A", NewSchema(Cat("k", KindInt), Cat("s", KindString), Cat("av", KindInt)))
	a.AppendValues(Null(), StringValue("x"), IntValue(1))
	a.AppendValues(IntValue(1), Null(), IntValue(2))
	a.AppendValues(Null(), Null(), IntValue(3))
	a.AppendValues(IntValue(2), StringValue("y"), IntValue(4))
	b := NewTable("B", NewSchema(Cat("k", KindInt), Cat("s", KindString), Cat("bv", KindInt)))
	b.AppendValues(Null(), StringValue("x"), IntValue(10))
	b.AppendValues(Null(), Null(), IntValue(11))
	b.AppendValues(IntValue(1), Null(), IntValue(12))
	b.AppendValues(IntValue(2), StringValue("z"), IntValue(13))
	for _, on := range [][]string{{"k"}, {"s"}, {"k", "s"}} {
		want, err := EquiJoin(a, b, on)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumRows() == 0 {
			t.Fatalf("row join on %v is empty; the fixture must exercise NULL matches", on)
		}
		got, err := EquiJoinColumnar(ToColumnar(a), ToColumnar(b), on, nil, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, want, got.ToTable())
	}
}

// TestAppendTableKeepsCodesAcrossDenseGrowth extends an encoding whose
// dictionary interned a sparse id in the map, with a delta that grows the
// dense table past it: old rows keep their codes, the merge equals a fresh
// encoding of the concatenation, and the published base is untouched.
func TestAppendTableKeepsCodesAcrossDenseGrowth(t *testing.T) {
	base := oneColumn(KindInt, []Value{IntValue(5000), StringValue("s"), IntValue(7), FloatValue(0.25)})
	var deltaVals []Value
	for i := 0; i < 1000; i++ {
		deltaVals = append(deltaVals, IntValue(int64(i)))
	}
	deltaVals = append(deltaVals, FloatValue(5000), StringValue("s"), IntValue(80000), FloatValue(0.25))
	delta := oneColumn(KindInt, deltaVals)

	bc := ToColumnar(base)
	before := append([]uint32(nil), bc.Codes(0)...)
	merged, err := bc.AppendTable(delta)
	if err != nil {
		t.Fatal(err)
	}
	fresh := ToColumnar(concat(base, delta))
	for i, code := range fresh.Codes(0) {
		if merged.Codes(0)[i] != code {
			t.Fatalf("row %d: merged code %d, fresh %d", i, merged.Codes(0)[i], code)
		}
	}
	for i, code := range before {
		if bc.Codes(0)[i] != code {
			t.Fatalf("base row %d changed code", i)
		}
	}
	if bc.DictLen(0) != 5 {
		t.Fatalf("base dictionary grew to %d codes", bc.DictLen(0))
	}
	if _, ok := bc.cols[0].Dict.lookup(IntValue(80000)); ok {
		t.Fatal("base dictionary learned a delta value")
	}
	for _, v := range []Value{IntValue(5000), StringValue("s"), FloatValue(0.25), IntValue(80000), IntValue(999)} {
		mc, ok := merged.cols[0].Dict.lookup(v)
		fc, _ := fresh.cols[0].Dict.lookup(v)
		if !ok || mc != fc {
			t.Fatalf("merged lookup(%v) = %d, %v; fresh %d", v, mc, ok, fc)
		}
	}
}

// TestPrebuiltJoinIndexMatchesInPlace builds indexes once on a row subset
// (which shares its dictionaries with the full encoding, so some codes have
// no indexed rows) and probes them from several goroutines at once: every
// join must equal the in-place build, code for code, and the row join.
func TestPrebuiltJoinIndexMatchesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	full := randomTable(t, rng, "B", 300, 0.2)
	fc := ToColumnar(full)
	var keep []int32
	var keepIdx []int
	for i, r := range full.Rows {
		// Values the subset never carries still have codes in the shared
		// dictionaries; probes hitting them must find no match.
		absent := r[0].EqualValue(IntValue(3)) || r[1].EqualValue(StringValue("b")) || r[3].EqualValue(IntValue(2))
		if !absent && rng.Intn(2) == 0 {
			keep = append(keep, int32(i))
			keepIdx = append(keepIdx, i)
		}
	}
	b := fc.FilterRows(keep)
	bRows := selectRows(full, keepIdx)
	probes := make([]*Table, 4)
	encoded := make([]*Columnar, len(probes))
	for i := range probes {
		probes[i] = randomTable(t, rng, "A", 80+rng.Intn(80), 0.2)
		encoded[i] = ToColumnar(probes[i])
	}
	for _, on := range [][]string{{"k"}, {"s"}, {"m"}, {"k", "s"}, {"s", "m", "k"}} {
		idx, err := b.BuildJoinIndex(1, on...)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*Columnar, len(probes))
		errs := make([]error, len(probes))
		var wg sync.WaitGroup
		for i, a := range encoded {
			wg.Add(1)
			go func(i int, a *Columnar) {
				defer wg.Done()
				got[i], errs[i] = EquiJoinColumnar(a, b, on, idx, JoinOptions{})
			}(i, a)
		}
		wg.Wait()
		for i, pt := range probes {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			inPlace, err := EquiJoinColumnar(encoded[i], b, on, nil, JoinOptions{})
			if err != nil {
				t.Fatal(err)
			}
			columnarsEqual(t, "prebuilt vs in-place", inPlace, got[i])
			want, err := EquiJoin(pt, bRows, on)
			if err != nil {
				t.Fatal(err)
			}
			tablesEqual(t, want, got[i].ToTable())
		}
	}
}

// TestKeyOrderMatchesAppendKeyBytes pins keyOrder to a byte sort of the
// values' AppendKey encodings, over every value class and over dictionaries
// whose dense slot table has grown past its first size, whose integers fall
// outside it, and which were extended by AppendTable.
func TestKeyOrderMatchesAppendKeyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	strs := []string{"", "a", "b", "ab", "ba", "3"}
	for _, n := range []int{127, 128, 129, 255, 256, 16383, 16384} {
		strs = append(strs, string(make([]byte, n)), string(make([]byte, n-1))+"z")
	}
	randomValue := func() Value {
		switch rng.Intn(6) {
		case 0:
			return Null()
		case 1:
			return StringValue(strs[rng.Intn(len(strs))])
		case 2:
			return IntValue(int64(rng.Intn(3000)) - 20)
		case 3:
			return IntValue(rng.Int63() - rng.Int63())
		case 4:
			return FloatValue(float64(rng.Intn(600)) - 3)
		default:
			return FloatValue(rng.NormFloat64() * 1e3)
		}
	}
	check := func(tag string, d *Dict) {
		t.Helper()
		order := d.keyOrder()
		if len(order) != d.Len() {
			t.Fatalf("%s: keyOrder has %d codes, dictionary %d", tag, len(order), d.Len())
		}
		seen := make([]bool, d.Len())
		for i, code := range order {
			if seen[code] {
				t.Fatalf("%s: code %d listed twice", tag, code)
			}
			seen[code] = true
			if i == 0 {
				continue
			}
			prev, cur := d.Value(order[i-1]).AppendKey(nil), d.Value(code).AppendKey(nil)
			if bytes.Compare(prev, cur) >= 0 {
				t.Fatalf("%s: position %d: %v (%x) does not sort before %v (%x)", tag, i,
					d.Value(order[i-1]), prev, d.Value(code), cur)
			}
		}
	}
	for iter := 0; iter < 40; iter++ {
		vals := make([]Value, rng.Intn(4000))
		for i := range vals {
			vals[i] = randomValue()
		}
		tab := oneColumn(KindFloat, vals)
		c := ToColumnar(tab)
		check("fresh", c.cols[0].Dict)
		delta := oneColumn(KindFloat, []Value{IntValue(int64(rng.Intn(70000))), StringValue("zz"), FloatValue(0.25), randomValue()})
		merged, err := c.AppendTable(delta)
		if err != nil {
			t.Fatal(err)
		}
		check("merged", merged.cols[0].Dict)
	}
}

// TestOuterJoinCountsConcurrent runs the outer-join count kernel from several
// goroutines over shared encodings, so each shared dictionary's key order and
// lookup index are first built under contention (run with -race); every
// goroutine must see the serial result.
func TestOuterJoinCountsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ta, tb := randomTable(t, rng, "A", 300, 0.2), randomTable(t, rng, "B", 300, 0.2)
	for _, on := range [][]string{{"k"}, {"s"}, {"k", "s"}} {
		a, b := ToColumnar(ta), ToColumnar(tb) // fresh dictionaries
		got := make([][3][]int64, 8)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				x, y := a, b
				if i%2 == 1 {
					x, y = b, a
				}
				got[i][0], got[i][1], got[i][2], errs[i] = OuterJoinCounts(x, y, on)
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			x, y := a, b
			if i%2 == 1 {
				x, y = b, a
			}
			j, l, r, err := OuterJoinCounts(x, y, on)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got[i][0], j) || !slices.Equal(got[i][1], l) || !slices.Equal(got[i][2], r) {
				t.Fatalf("on %v: goroutine %d counted %v, serial %v", on, i, got[i], [3][]int64{j, l, r})
			}
		}
	}
}
