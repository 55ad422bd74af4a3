package relation

import "testing"

// concat returns a table holding t's rows followed by delta's.
func concat(t, delta *Table) *Table {
	out := NewTable(t.Name, t.Schema)
	out.Rows = append(append(out.Rows, t.Rows...), delta.Rows...)
	return out
}

func TestColumnarAppendTable(t *testing.T) {
	base := NewTable("t", NewSchema(Cat("k", KindInt), Cat("s", KindString), Num("v", KindFloat)))
	base.AppendValues(IntValue(300), StringValue("a"), FloatValue(1.5))
	base.AppendValues(IntValue(1), StringValue("b"), Null())
	base.AppendValues(Null(), StringValue("a"), FloatValue(2.5))

	delta := NewTable("t", NewSchema(Cat("k", KindInt), Cat("s", KindString), Num("v", KindFloat)))
	delta.AppendValues(FloatValue(300), StringValue("c"), FloatValue(3.5)) // float 300.0 must reuse int 300's code
	delta.AppendValues(IntValue(7), StringValue("b"), Null())

	bc := ToColumnar(base)
	merged, err := bc.AppendTable(delta)
	if err != nil {
		t.Fatal(err)
	}
	fresh := ToColumnar(concat(base, delta))
	if merged.NumRows() != fresh.NumRows() {
		t.Fatalf("merged rows %d != %d", merged.NumRows(), fresh.NumRows())
	}
	for j := 0; j < 3; j++ {
		mc, fc := merged.Codes(j), fresh.Codes(j)
		if len(mc) != len(fc) {
			t.Fatalf("col %d: %d codes != %d", j, len(mc), len(fc))
		}
		for i := range mc {
			if mc[i] != fc[i] {
				t.Fatalf("col %d row %d: merged code %d != fresh %d", j, i, mc[i], fc[i])
			}
			if !merged.ValueAt(i, j).EqualValue(fresh.ValueAt(i, j)) {
				t.Fatalf("col %d row %d: value %v != %v", j, i, merged.ValueAt(i, j), fresh.ValueAt(i, j))
			}
		}
		if merged.DictLen(j) != fresh.DictLen(j) {
			t.Fatalf("col %d: dict %d != %d", j, merged.DictLen(j), fresh.DictLen(j))
		}
	}
	// The original encoding is untouched (copy-on-write).
	if bc.NumRows() != 3 || bc.DictLen(0) != 3 { // NULL + 300 + 1
		t.Fatalf("AppendTable mutated the base encoding: rows %d dict %d", bc.NumRows(), bc.DictLen(0))
	}

	// Raw-numeric (subset-encoded) columns extend too.
	sub, err := ToColumnarSubset(base, []string{"k"}, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	mergedSub, err := sub.AppendTable(delta)
	if err != nil {
		t.Fatal(err)
	}
	if mergedSub.NumRows() != 5 {
		t.Fatalf("subset merge rows = %d", mergedSub.NumRows())
	}
	if mergedSub.IsNullAt(4, 2) != true || mergedSub.ValueAt(3, 2).Num() != 3.5 {
		t.Fatal("numeric column not extended correctly")
	}
	if mergedSub.Codes(1) != nil {
		t.Fatal("unpopulated column must stay unpopulated")
	}

	bad := NewTable("t", NewSchema(Cat("k", KindInt)))
	if _, err := bc.AppendTable(bad); err == nil {
		t.Fatal("mismatched schema must error")
	}
}
