package relation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// This file implements the columnar, dictionary-encoded engine. The
// row-store Table stays the compatibility surface (marketplace wire format,
// CSV, examples); Columnar is the representation the MCMC inner loop
// evaluates on and execute realizes purchases on:
//
//   - Each column is dictionary-encoded into dense uint32 codes. Code 0 is
//     always NULL. The dictionary identity of a value mirrors AppendKey's
//     injective encoding, so IntValue(3) and FloatValue(3.0) share a code
//     exactly as they share a grouping key on the row path.
//   - Multi-attribute groupings fuse per-column codes into dense group ids
//     assigned in first-appearance row order — the same deterministic order
//     the row path's group-count collection uses — counted in flat slices
//     or small int-keyed maps instead of injective byte-string map keys.
//   - Equi-joins hash-join on code columns and produce row-index pairings;
//     output columns are gathered uint32 codes that share the input
//     dictionaries, so no value is ever re-encoded downstream. Probe values
//     find their build-side group through the build dictionaries, never
//     through byte-string keys.
//
// Columnar values are immutable after construction (a dictionary's lookup
// maps are rebuilt at most once, under sync.Once): instances built once per
// sampled table are shared freely across MCMC candidates and workers.

// numKey is the normalized identity of a numeric Value, mirroring AppendKey's
// int/float normalization so IntValue(3) and FloatValue(3.0) share a key.
type numKey struct {
	isInt bool
	bits  uint64
}

func numKeyOf(v Value) numKey {
	if v.Kind == KindInt {
		return numKey{isInt: true, bits: uint64(v.I)}
	}
	if f := v.F; f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
		return numKey{isInt: true, bits: uint64(int64(f))}
	}
	return numKey{bits: math.Float64bits(v.F)}
}

// Dict is a per-column dictionary: distinct values get dense uint32 codes in
// first-appearance order, with code 0 permanently reserved for NULL. A code's
// stored value is the first representative seen — an int column later joined
// against FloatValue(3.0) decodes code lookups to the original IntValue(3),
// which is EqualValue-identical.
type Dict struct {
	vals []Value
	// dense short-circuits the maps for small non-negative integers:
	// dense[i] is the code of integer i (0: unassigned — 0 is the NULL code,
	// never a value's code). Key-like columns (ids, foreign keys, category
	// codes) are dominated by such ints, and the map hash is the hot spot of
	// dictionary building. The table grows on demand up to maxDenseInt
	// slots, and only while it stays within denseSpread slots per code, so
	// a few large ids never allocate a table much bigger than the map they
	// replace. Invariant: an integer below len(dense) is never in num.
	dense []uint32
	// str and num intern every other value. They exist while a column is
	// being encoded; publish drops them, because most columns are never
	// looked up by value again (for a column of distinct floats the maps
	// are as large as vals), and the first lookup that needs them rebuilds
	// them once, under reindex.
	str     map[string]uint32
	num     map[numKey]uint32
	reindex sync.Once
	// order is NumericOrder's result, computed at most once.
	order     []uint32
	orderOK   bool
	orderOnce sync.Once
	// byKey is keyOrder's result, computed at most once.
	byKey     []uint32
	byKeyOnce sync.Once
}

const (
	// maxDenseInt bounds the dense table at 256 KiB of slots.
	maxDenseInt = 1 << 16
	// denseSpread bounds the dense table's size relative to the dictionary.
	denseSpread = 8
	// minDense is the dense table's first size and its size floor.
	minDense = 256
)

func newDict() *Dict { return &Dict{vals: []Value{Null()}} }

// Len returns the number of codes, including the reserved NULL code 0.
func (d *Dict) Len() int { return len(d.vals) }

// Value decodes a code.
func (d *Dict) Value(code uint32) Value { return d.vals[code] }

// code interns v, assigning dense codes in first-appearance order.
func (d *Dict) code(v Value) uint32 {
	switch v.Kind {
	case KindNull:
		return 0
	case KindString:
		if c, ok := d.str[v.S]; ok {
			return c
		}
		c := uint32(len(d.vals))
		d.vals = append(d.vals, v)
		if d.str == nil {
			d.str = make(map[string]uint32)
		}
		d.str[v.S] = c
		return c
	default:
		k := numKeyOf(v)
		// Normalized first, so FloatValue(3.0) hits IntValue(3)'s slot.
		if k.isInt && d.denseCovers(k.bits) {
			if c := d.dense[k.bits]; c != 0 {
				return c
			}
			c := uint32(len(d.vals))
			d.vals = append(d.vals, v)
			d.dense[k.bits] = c
			return c
		}
		if c, ok := d.num[k]; ok {
			return c
		}
		c := uint32(len(d.vals))
		d.vals = append(d.vals, v)
		if d.num == nil {
			d.num = make(map[numKey]uint32)
		}
		d.num[k] = c
		return c
	}
}

// denseCovers reports whether integer i has a dense slot, growing the table
// to cover it when the growth bounds allow.
func (d *Dict) denseCovers(i uint64) bool {
	if i < uint64(len(d.dense)) {
		return true
	}
	if i >= maxDenseInt || i >= uint64(denseSpread*len(d.vals)+minDense) {
		return false
	}
	n := max(minDense, 2*len(d.dense))
	for uint64(n) <= i {
		n *= 2
	}
	grown := make([]uint32, min(n, maxDenseInt))
	copy(grown, d.dense)
	// Integers interned while the table was too small move into it, so
	// every value keeps exactly one home.
	for k, c := range d.num {
		if k.isInt && k.bits < uint64(len(grown)) {
			grown[k.bits] = c
			delete(d.num, k)
		}
	}
	d.dense = grown
	return true
}

// publish ends the encoding of d: its intern maps are dropped, and d is
// immutable from here on.
func (d *Dict) publish() *Dict {
	d.str, d.num = nil, nil
	return d
}

// index builds the intern maps of every value dense does not cover.
func (d *Dict) index() {
	for code := 1; code < len(d.vals); code++ {
		v := d.vals[code]
		if v.Kind == KindString {
			if d.str == nil {
				d.str = make(map[string]uint32)
			}
			d.str[v.S] = uint32(code)
			continue
		}
		k := numKeyOf(v)
		if k.isInt && k.bits < uint64(len(d.dense)) {
			continue
		}
		if d.num == nil {
			d.num = make(map[numKey]uint32)
		}
		d.num[k] = uint32(code)
	}
}

// lookup returns v's code in the published dictionary d without interning
// it; ok is false when v is not in d. NULL is always present as code 0.
// Safe for concurrent use.
func (d *Dict) lookup(v Value) (code uint32, ok bool) {
	switch v.Kind {
	case KindNull:
		return 0, true
	case KindString:
		d.reindex.Do(d.index)
		code, ok = d.str[v.S]
		return code, ok
	default:
		k := numKeyOf(v)
		if k.isInt && k.bits < uint64(len(d.dense)) {
			code = d.dense[k.bits]
			return code, code != 0
		}
		d.reindex.Do(d.index)
		code, ok = d.num[k]
		return code, ok
	}
}

// NumericOrder returns d's non-NULL codes sorted by numeric value, ascending.
// It is computed once per dictionary, on first use, and shared by every
// relation whose columns carry d — the sampled instance and every join or
// filter gathered from it — so a caller that needs a column's values in
// sorted order can count codes and walk this order instead of sorting. ok is
// false when some value is not a finite number (a string, NaN or ±Inf):
// those have no total order that normalization preserves, so callers sort.
// Safe for concurrent use.
func (d *Dict) NumericOrder() (order []uint32, ok bool) {
	d.orderOnce.Do(func() {
		type entry struct {
			v    float64
			code uint32
		}
		entries := make([]entry, 0, len(d.vals)-1)
		for code := 1; code < len(d.vals); code++ {
			v := d.vals[code]
			if v.Kind != KindInt && (v.Kind != KindFloat || math.IsNaN(v.F) || math.IsInf(v.F, 0)) {
				return
			}
			entries = append(entries, entry{v.Num(), uint32(code)})
		}
		slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.v, b.v) })
		order := make([]uint32, len(entries))
		for i, e := range entries {
			order[i] = e.code
		}
		d.order, d.orderOK = order, true
	})
	return d.order, d.orderOK
}

// clone copies the dictionary, intern maps rebuilt, so codes can be
// appended without racing readers of the original: Columnar values are
// immutable after construction and shared across snapshots, so a merge must
// never mutate a published Dict in place.
func (d *Dict) clone() *Dict {
	c := &Dict{vals: append([]Value(nil), d.vals...), dense: append([]uint32(nil), d.dense...)}
	c.index()
	return c
}

// CCol is one columnar column. Exactly one storage mode is populated:
// dictionary-coded (Codes+Dict, the general form, required for grouping and
// joins) or raw numeric (Nums+Null, used by metrics-only numeric columns
// where dictionary identity is never needed).
type CCol struct {
	Codes []uint32
	Dict  *Dict
	Nums  []float64
	Null  []bool
}

// Columnar is the dictionary-encoded columnar form of a Table.
type Columnar struct {
	Name   string
	schema *Schema
	cols   []CCol
	n      int
	// owner is the Scratch that gathered c, nil for a plain allocation;
	// back is then the storage its columns are carved from.
	owner *Scratch
	back  gatherBack
}

// encodeColumn dictionary-encodes column j of t. The dense-slot hit is
// inlined: key-like columns are dominated by small non-negative ints, and
// the per-cell call plus kind switch of Dict.code is measurable on the
// per-evaluation subset path.
func encodeColumn(t *Table, j int) CCol {
	d := newDict()
	codes := make([]uint32, len(t.Rows))
	for i, r := range t.Rows {
		v := r[j]
		if v.Kind == KindInt && uint64(v.I) < uint64(len(d.dense)) {
			c := d.dense[v.I]
			if c == 0 {
				c = uint32(len(d.vals))
				d.vals = append(d.vals, v)
				d.dense[v.I] = c
			}
			codes[i] = c
			continue
		}
		codes[i] = d.code(v)
	}
	return CCol{Codes: codes, Dict: d.publish()}
}

// ToColumnar dictionary-encodes every column of t. Build cost is one
// dictionary lookup per cell; done once per sampled instance and amortized
// over every candidate evaluation that touches the instance.
func ToColumnar(t *Table) *Columnar {
	c := &Columnar{Name: t.Name, schema: t.Schema, n: len(t.Rows)}
	c.cols = make([]CCol, t.Schema.Len())
	for j := range c.cols {
		c.cols[j] = encodeColumn(t, j)
	}
	return c
}

// ToColumnarSubset encodes only the named columns of t: coded columns get
// dictionaries (groupable/joinable), numeric columns are stored as raw
// float64 + null mask (metrics-only). A name in both lists is coded. The
// result keeps t's full schema but leaves unlisted columns unpopulated —
// callers (the per-call metric fast paths) must only touch the columns they
// asked for; use ToColumnar for a fully materialized encoding.
func ToColumnarSubset(t *Table, coded, numeric []string) (*Columnar, error) {
	c := &Columnar{Name: t.Name, schema: t.Schema, n: len(t.Rows)}
	c.cols = make([]CCol, t.Schema.Len())
	for _, name := range coded {
		j := t.Schema.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("relation: unknown column %q (have %v)", name, t.Schema.Names())
		}
		if c.cols[j].Codes == nil {
			c.cols[j] = encodeColumn(t, j)
		}
	}
	for _, name := range numeric {
		j := t.Schema.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("relation: unknown column %q (have %v)", name, t.Schema.Names())
		}
		if c.cols[j].Codes != nil || c.cols[j].Nums != nil {
			continue
		}
		nums := make([]float64, len(t.Rows))
		null := make([]bool, len(t.Rows))
		for i, r := range t.Rows {
			v := r[j]
			null[i] = v.IsNull()
			nums[i] = v.Num()
		}
		c.cols[j] = CCol{Nums: nums, Null: null}
	}
	return c, nil
}

// AppendTable returns a new Columnar holding c's rows followed by delta's
// rows, preserving every existing dictionary code: row i < c.NumRows() of
// the result carries exactly the codes of row i of c, and delta values
// already present in a dictionary reuse their code. Because codes are
// assigned in first-appearance order, the result is bit-identical to
// ToColumnar of the concatenated row tables — which is what lets a merged
// sample share cache keys with a fresh one. c itself is never mutated
// (copy-on-write: dictionaries are cloned before extension), so published
// snapshots stay valid. Columns that were left unpopulated by
// ToColumnarSubset stay unpopulated.
func (c *Columnar) AppendTable(delta *Table) (*Columnar, error) {
	if !c.schema.Equal(delta.Schema) {
		return nil, fmt.Errorf("relation: append to %s%s with mismatched schema %s%s",
			c.Name, c.schema, delta.Name, delta.Schema)
	}
	out := &Columnar{Name: c.Name, schema: c.schema, n: c.n + len(delta.Rows)}
	out.cols = make([]CCol, len(c.cols))
	for j := range c.cols {
		src := &c.cols[j]
		switch {
		case src.Codes != nil:
			codes := make([]uint32, c.n, out.n)
			copy(codes, src.Codes)
			d := src.Dict.clone()
			for _, r := range delta.Rows {
				codes = append(codes, d.code(r[j]))
			}
			out.cols[j] = CCol{Codes: codes, Dict: d.publish()}
		case src.Nums != nil:
			nums := make([]float64, c.n, out.n)
			null := make([]bool, c.n, out.n)
			copy(nums, src.Nums)
			copy(null, src.Null)
			for _, r := range delta.Rows {
				v := r[j]
				nums = append(nums, v.Num())
				null = append(null, v.IsNull())
			}
			out.cols[j] = CCol{Nums: nums, Null: null}
		}
	}
	return out, nil
}

// NumRows returns the number of rows.
func (c *Columnar) NumRows() int { return c.n }

// Schema returns the schema.
func (c *Columnar) Schema() *Schema { return c.schema }

// Codes returns the code column at col, or nil if the column is stored in
// raw-numeric mode.
func (c *Columnar) Codes(col int) []uint32 { return c.cols[col].Codes }

// Dict returns the dictionary of a coded column, or nil if the column is
// stored in raw-numeric mode.
func (c *Columnar) Dict(col int) *Dict { return c.cols[col].Dict }

// Project returns a view of c restricted to the columns keep names, in
// schema order. The view shares c's column storage (both are immutable), so
// projecting costs one schema and one column-header slice; a join over
// projected views gathers only the kept columns. c itself is returned when
// every column is kept.
func (c *Columnar) Project(keep map[string]bool) *Columnar {
	var cols []Column
	var kept []CCol
	for j, col := range c.schema.cols {
		if keep[col.Name] {
			cols = append(cols, col)
			kept = append(kept, c.cols[j])
		}
	}
	if len(cols) == len(c.cols) {
		return c
	}
	return &Columnar{Name: c.Name, schema: NewSchema(cols...), cols: kept, n: c.n}
}

// DictLen returns the dictionary size of a coded column (0 for raw-numeric).
func (c *Columnar) DictLen(col int) int {
	if c.cols[col].Dict == nil {
		return 0
	}
	return c.cols[col].Dict.Len()
}

// IsNullAt reports whether the cell at (row, col) is NULL.
func (c *Columnar) IsNullAt(row, col int) bool {
	cc := &c.cols[col]
	if cc.Codes != nil {
		return cc.Codes[row] == 0
	}
	return cc.Null[row]
}

// ValueAt decodes the cell at (row, col). For raw-numeric columns the value
// is reconstructed as a float (sufficient for metrics; such columns are never
// joined or grouped).
func (c *Columnar) ValueAt(row, col int) Value {
	cc := &c.cols[col]
	if cc.Codes != nil {
		return cc.Dict.vals[cc.Codes[row]]
	}
	if cc.Null[row] {
		return Null()
	}
	return FloatValue(cc.Nums[row])
}

// AppendRowKey appends the injective encoding of the cells (row, cols...) to
// buf — the same bytes EncodeKey produces for the row-store path.
func (c *Columnar) AppendRowKey(buf []byte, row int, cols []int) []byte {
	for _, ci := range cols {
		buf = c.ValueAt(row, ci).AppendKey(buf)
	}
	return buf
}

// AppendNumeric appends the non-NULL numeric values of column col to dst, for
// the given rows (all rows when rows is nil), in order.
func (c *Columnar) AppendNumeric(dst []float64, col int, rows []int32) []float64 {
	cc := &c.cols[col]
	if cc.Codes != nil {
		vals := cc.Dict.vals
		if rows == nil {
			for _, code := range cc.Codes {
				if code != 0 {
					dst = append(dst, vals[code].Num())
				}
			}
			return dst
		}
		for _, r := range rows {
			if code := cc.Codes[r]; code != 0 {
				dst = append(dst, vals[code].Num())
			}
		}
		return dst
	}
	if rows == nil {
		for i, v := range cc.Nums {
			if !cc.Null[i] {
				dst = append(dst, v)
			}
		}
		return dst
	}
	for _, r := range rows {
		if !cc.Null[r] {
			dst = append(dst, cc.Nums[r])
		}
	}
	return dst
}

// ToTable decodes the columnar form back into a row-store Table (tests and
// debugging; the hot path never materializes rows).
func (c *Columnar) ToTable() *Table {
	t := NewTable(c.Name, c.schema)
	t.Rows = make([][]Value, c.n)
	for i := 0; i < c.n; i++ {
		row := make([]Value, len(c.cols))
		for j := range c.cols {
			row[j] = c.ValueAt(i, j)
		}
		t.Rows[i] = row
	}
	return t
}

// Grouping is the result of fusing one or more code columns into dense group
// ids: Codes[row] is the group of each row, with ids assigned in
// first-appearance row order (the deterministic order metric summations run
// in), Counts the group sizes and First the first row of each group.
type Grouping struct {
	Cols   []int
	Codes  []uint32
	Counts []int64
	First  []int32
	// owner is the Scratch that holds Codes, Counts and First, nil for a
	// plain allocation.
	owner *Scratch
}

// N returns the number of groups.
func (g *Grouping) N() int { return len(g.Counts) }

// RowLists bucketizes rows by group: the rows of group gid are
// rows[starts[gid]:starts[gid+1]], ascending.
func (g *Grouping) RowLists() (starts, rows []int32) {
	starts = make([]int32, g.N()+1)
	for id, cnt := range g.Counts {
		starts[id+1] = starts[id] + int32(cnt)
	}
	rows = make([]int32, len(g.Codes))
	fill := append([]int32(nil), starts[:g.N()]...)
	for i, gc := range g.Codes {
		rows[fill[gc]] = int32(i)
		fill[gc]++
	}
	return starts, rows
}

// maxFlatFuse bounds the scratch table a single fuse stage may allocate; past
// it the stage falls back to an int-keyed map (still exact, no byte keys).
const maxFlatFuse = 1 << 20

// GroupBy fuses the given columns into a Grouping. All columns must be
// dictionary-coded. An empty column list yields a single group holding every
// row (mirroring the row path's empty grouping key).
func (c *Columnar) GroupBy(cols []int) (*Grouping, error) { return c.groupBy(cols, 1, nil) }

// GroupBy is c.GroupBy(cols) with up to workers goroutines on the fuse
// passes of large relations, and the grouping's codes, counts and first
// rows taken from s, for a caller that hands them back with
// ReleaseGrouping after one pass (nil s: allocated). The Grouping — codes,
// counts, first rows, and the first-appearance id order — is bit-identical
// to c.GroupBy's for every worker count (pinned by the parallel-equivalence
// tests).
func (s *Scratch) GroupBy(c *Columnar, cols []int, workers int) (*Grouping, error) {
	return c.groupBy(cols, workers, s)
}

func (c *Columnar) groupBy(cols []int, workers int, s *Scratch) (*Grouping, error) {
	g := &Grouping{Cols: cols, owner: s}
	if len(cols) == 0 {
		g.Codes = ScratchSlice[uint32](s, c.n)
		clear(g.Codes)
		if c.n > 0 {
			g.Counts = append(ScratchSlice[int64](s, 1)[:0], int64(c.n))
			g.First = append(ScratchSlice[int32](s, 1)[:0], 0)
		}
		return g, nil
	}
	for _, ci := range cols {
		if c.cols[ci].Codes == nil {
			return nil, fmt.Errorf("relation: column %q of %s is not dictionary-coded", c.schema.Column(ci).Name, c.Name)
		}
	}
	// Fuse left to right. Intermediate stages assign dense pair codes; the
	// final stage additionally records counts and first rows. The fused ids
	// of the final stage are in first-appearance row order regardless of
	// fuse order, because the row scan order is fixed. Intermediate code
	// slices and flat fuse tables are pooled temporaries; only the final
	// stage's codes (g.Codes) belong to the grouping.
	var cur []uint32
	curN := 1
	for i, ci := range cols {
		last := i == len(cols)-1
		next, nextN := c.fuseStage(g, cur, curN, &c.cols[ci], last, workers, s)
		if cur != nil {
			poolUint32.put(cur)
		}
		cur, curN = next, nextN
	}
	g.Codes = cur
	return g, nil
}

// Refine fuses the grouping g of c with c's coded column col: the result
// groups rows by (group of g, code of col), bit-identically to GroupBy on
// g.Cols followed by col, without fusing g's columns again.
func (c *Columnar) Refine(g *Grouping, col int) (*Grouping, error) { return c.refine(g, col, nil) }

// Refine is c.Refine(g, col) with the refinement's storage taken from s,
// like GroupBy's. A nil s allocates it.
func (s *Scratch) Refine(c *Columnar, g *Grouping, col int) (*Grouping, error) {
	return c.refine(g, col, s)
}

func (c *Columnar) refine(g *Grouping, col int, s *Scratch) (*Grouping, error) {
	if c.cols[col].Codes == nil {
		return nil, fmt.Errorf("relation: column %q of %s is not dictionary-coded", c.schema.Column(col).Name, c.Name)
	}
	r := &Grouping{Cols: append(slices.Clip(g.Cols), col), owner: s}
	r.Codes, _ = c.fuseStage(r, g.Codes, g.N(), &c.cols[col], true, 1, s)
	return r, nil
}

// fuseStage fuses the current dense ids cur (curN of them; nil for the
// first stage) with the codes of col into dense ids assigned in
// first-appearance row order, returning them and their count. The last
// stage's ids belong to g (from s, or freshly allocated) and its counts and
// first rows go to g; an earlier stage's ids come from the pool. The key
// space decides the table: a flat slice while it stays small (or within a
// few slots per row), an int-keyed map past that.
func (c *Columnar) fuseStage(g *Grouping, cur []uint32, curN int, col *CCol, last bool, workers int, s *Scratch) ([]uint32, int) {
	var next []uint32
	if last {
		next = ScratchSlice[uint32](s, c.n) // escapes as g.Codes
	} else {
		next = poolUint32.get(c.n)
	}
	nextN := uint32(0)
	dictN := col.Dict.Len()
	span := uint64(curN) * uint64(dictN)
	flatOK := span <= maxFlatFuse || span <= uint64(4*c.n+16)
	parallel := flatOK && workers > 1 && c.n >= parallelMinRows && span <= 1<<30
	if last && s != nil && !parallel {
		// No stage has more groups than keys or rows, so counts and first
		// rows taken at that size never grow.
		m := int(min(span, uint64(c.n)))
		g.Counts, g.First = s.i64.get(m)[:0], s.i32.get(m)[:0]
	}
	assign := func(row int, id int32) int32 {
		if id < 0 {
			id = int32(nextN)
			nextN++
			if last {
				g.Counts = append(g.Counts, 0)
				g.First = append(g.First, int32(row))
			}
		}
		next[row] = uint32(id)
		if last {
			g.Counts[id]++
		}
		return id
	}
	switch {
	case parallel:
		nextN = c.fuseStageParallel(g, col.Codes, cur, int(span), dictN, next, last, workers, s)
	case flatOK:
		flat := poolInt32.get(int(span))
		for i := range flat {
			flat[i] = -1
		}
		if cur == nil {
			for row, code := range col.Codes {
				flat[code] = assign(row, flat[code])
			}
		} else {
			for row, code := range col.Codes {
				k := uint64(cur[row])*uint64(dictN) + uint64(code)
				flat[k] = assign(row, flat[k])
			}
		}
		poolInt32.put(flat)
	default:
		m := make(map[uint64]int32, c.n/4+16)
		for row, code := range col.Codes {
			var k uint64
			if cur == nil {
				k = uint64(code)
			} else {
				k = uint64(cur[row])<<32 | uint64(code)
			}
			id, ok := m[k]
			if !ok {
				id = -1
			}
			id = assign(row, id)
			m[k] = id
		}
	}
	return next, int(nextN)
}

// fuseStageParallel runs one flat fuse stage with the chunked two-pass
// scheme: pass 1 records each fused key's minimum row via atomic min — a pure
// minimum, so the result is scheduling-independent — then keys sorted by
// first row reproduce exactly the first-appearance id order the serial scan
// assigns, and pass 2 maps every row to its group id. Counts are summed in a
// final serial sweep. Bit-identical to the serial stage for every worker
// count.
func (c *Columnar) fuseStageParallel(g *Grouping, codes, cur []uint32, span, dictN int, next []uint32, last bool, workers int, s *Scratch) uint32 {
	minRow := poolInt32.get(span)
	for i := range minRow {
		minRow[i] = -1
	}
	runChunks(workers, c.n, func(_, lo, hi int) {
		if cur == nil {
			for row := lo; row < hi; row++ {
				atomicMinInt32(&minRow[codes[row]], int32(row))
			}
		} else {
			for row := lo; row < hi; row++ {
				k := uint64(cur[row])*uint64(dictN) + uint64(codes[row])
				atomicMinInt32(&minRow[k], int32(row))
			}
		}
	})
	ks := poolInt32.get(span)
	ng := 0
	for k := 0; k < span; k++ {
		if minRow[k] >= 0 {
			ks[ng] = int32(k)
			ng++
		}
	}
	keys := ks[:ng]
	sort.Slice(keys, func(i, j int) bool { return minRow[keys[i]] < minRow[keys[j]] })
	ids := poolInt32.get(span)
	for rank, k := range keys {
		ids[k] = int32(rank)
	}
	if last {
		g.Counts = ScratchSlice[int64](s, ng)
		clear(g.Counts)
		g.First = ScratchSlice[int32](s, ng)
		for rank, k := range keys {
			g.First[rank] = minRow[k]
		}
	}
	runChunks(workers, c.n, func(_, lo, hi int) {
		if cur == nil {
			for row := lo; row < hi; row++ {
				next[row] = uint32(ids[codes[row]])
			}
		} else {
			for row := lo; row < hi; row++ {
				k := uint64(cur[row])*uint64(dictN) + uint64(codes[row])
				next[row] = uint32(ids[k])
			}
		}
	})
	if last {
		for _, id := range next {
			g.Counts[id]++
		}
	}
	poolInt32.put(minRow)
	poolInt32.put(ks)
	poolInt32.put(ids)
	return uint32(ng)
}

// JoinIndex is a precomputed build-side hash index for equi-joins on a fixed
// attribute set: rows bucketed by fused join-attribute group, plus an
// alignment of the groups with any probe side's dictionary space through
// the build columns' own dictionaries — a probe value is looked up, never
// re-encoded. Immutable after construction; shared across candidates and
// workers.
type JoinIndex struct {
	On     []string
	starts []int32
	rows   []int32
	// dicts are the build columns' dictionaries. codeGroup maps each code
	// of dicts[0] to a group (-1: no indexed row carries the code —
	// dictionaries are shared with row subsets); it aligns single-column
	// indexes. A multi-column index fuses a tuple's build codes left to
	// right instead: fuse[s-1] maps prefix<<32 | code of column s to the
	// next prefix id, and the last stage's ids are group ids.
	dicts     []*Dict
	codeGroup []int32
	fuse      []map[uint64]uint32
}

// BuildJoinIndex indexes c on the named join attributes.
func (c *Columnar) BuildJoinIndex(on ...string) (*JoinIndex, error) {
	return c.BuildJoinIndexWorkers(1, on...)
}

// BuildJoinIndexWorkers indexes c on the named join attributes, using up to
// workers goroutines for the grouping passes when c is large — the build side
// of a million-row join is the expensive half of a cold evaluation. The index
// is bit-identical to BuildJoinIndex's for every worker count.
func (c *Columnar) BuildJoinIndexWorkers(workers int, on ...string) (*JoinIndex, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("relation: join index on %s with no join attributes", c.Name)
	}
	cols, err := c.schema.Indexes(on...)
	if err != nil {
		return nil, err
	}
	g, err := c.groupBy(cols, workers, nil)
	if err != nil {
		return nil, err
	}
	idx := &JoinIndex{On: append([]string(nil), on...)}
	idx.starts, idx.rows = g.RowLists()
	for _, ci := range cols {
		idx.dicts = append(idx.dicts, c.cols[ci].Dict)
	}
	first := c.cols[cols[0]].Codes
	if len(cols) == 1 {
		idx.codeGroup = make([]int32, idx.dicts[0].Len())
		for code := range idx.codeGroup {
			idx.codeGroup[code] = -1
		}
		for gid, row := range g.First {
			idx.codeGroup[first[row]] = int32(gid)
		}
		return idx, nil
	}
	idx.fuse = make([]map[uint64]uint32, len(cols)-1)
	for s := range idx.fuse {
		idx.fuse[s] = make(map[uint64]uint32, g.N())
	}
	for gid, row := range g.First {
		p := uint64(first[row])
		for s := 1; s < len(cols); s++ {
			stage := idx.fuse[s-1]
			key := p<<32 | uint64(c.cols[cols[s]].Codes[row])
			if s == len(cols)-1 {
				stage[key] = uint32(gid)
				break
			}
			id, ok := stage[key]
			if !ok {
				id = uint32(len(stage))
				stage[key] = id
			}
			p = uint64(id)
		}
	}
	return idx, nil
}

// groupOf returns the build-side group whose join attributes equal the
// given probe values (one per indexed column), or -1.
func (idx *JoinIndex) groupOf(vals []Value) int32 {
	code, ok := idx.dicts[0].lookup(vals[0])
	if !ok {
		return -1
	}
	if idx.fuse == nil {
		return idx.codeGroup[code]
	}
	p := uint64(code)
	for s := 1; s < len(vals); s++ {
		if code, ok = idx.dicts[s].lookup(vals[s]); !ok {
			return -1
		}
		id, ok := idx.fuse[s-1][p<<32|uint64(code)]
		if !ok {
			return -1
		}
		p = uint64(id)
	}
	return int32(p)
}

// gatherBack is the storage a gather carves its output columns from: all
// coded output columns share one codes allocation and all numeric ones one
// nums and one null allocation — one allocation per storage mode per
// gather instead of one per column, which is what keeps a steady-state join
// down to a handful of allocations.
type gatherBack struct {
	codes []uint32
	nums  []float64
	null  []bool
}

// newGatherBack takes room for n rows of coded coded and num numeric
// columns from s (nil: allocates).
func newGatherBack(s *Scratch, coded, num, n int) gatherBack {
	var b gatherBack
	if coded > 0 {
		b.codes = ScratchSlice[uint32](s, coded*n)
	}
	if num > 0 {
		b.nums = ScratchSlice[float64](s, num*n)
		b.null = ScratchSlice[bool](s, num*n)
	}
	return b
}

// gatherCol gathers src at the pick rows, carving the output from the
// front of back. Output codes share the source dictionary. workers > 1
// parallelizes the row sweep; gathers are element-wise, so the output is
// trivially identical for every worker count.
func gatherCol(src *CCol, rows []int32, workers int, back *gatherBack) CCol {
	n := len(rows)
	if src.Codes != nil {
		dc := back.codes[:n:n]
		back.codes = back.codes[n:]
		sc := src.Codes
		runChunks(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				dc[i] = sc[rows[i]]
			}
		})
		return CCol{Codes: dc, Dict: src.Dict}
	}
	dn, du := back.nums[:n:n], back.null[:n:n]
	back.nums, back.null = back.nums[n:], back.null[n:]
	sn, su := src.Nums, src.Null
	runChunks(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dn[i] = sn[rows[i]]
			du[i] = su[rows[i]]
		}
	})
	return CCol{Nums: dn, Null: du}
}

// FilterRows returns a new Columnar containing the given rows, in order.
// Dictionaries are shared with c.
func (c *Columnar) FilterRows(rows []int32) *Columnar {
	out := &Columnar{Name: c.Name, schema: c.schema, n: len(rows)}
	out.cols = make([]CCol, len(c.cols))
	coded := 0
	for j := range c.cols {
		if c.cols[j].Codes != nil {
			coded++
		}
	}
	back := newGatherBack(nil, coded, len(c.cols)-coded, len(rows))
	for j := range c.cols {
		out.cols[j] = gatherCol(&c.cols[j], rows, 1, &back)
	}
	return out
}

// JoinOptions tunes EquiJoinColumnarOpts.
type JoinOptions struct {
	// Workers bounds the goroutines used for the probe, pairing and gather
	// sweeps (and the index build when none is supplied) on large probe
	// sides; ≤ 1, or inputs under the parallel threshold, run serially. The
	// output is bit-identical for every worker count: chunk boundaries
	// depend only on the row count, and per-chunk output offsets preserve
	// probe row order exactly.
	Workers int
}

// EquiJoinColumnar computes the inner equi-join of a and b on the named
// shared attributes, matching EquiJoin's semantics, schema and output row
// order exactly (probe a in row order, build b rows ascending per match) —
// but producing gathered code columns instead of materialized rows. idx may
// carry a prebuilt index of b on exactly the same attributes; pass nil to
// build one in place.
func EquiJoinColumnar(a, b *Columnar, on []string, idx *JoinIndex) (*Columnar, error) {
	return EquiJoinColumnarOpts(a, b, on, idx, JoinOptions{})
}

// EquiJoinColumnarOpts is EquiJoinColumnar with tuning options.
func EquiJoinColumnarOpts(a, b *Columnar, on []string, idx *JoinIndex, opt JoinOptions) (*Columnar, error) {
	p, err := EquiJoinPairs(a, b, on, idx, opt)
	if err != nil {
		return nil, err
	}
	return p.Gather(), nil
}

// JoinPairs is the pairs stage of a columnar equi-join: the joined schema
// and, for every output row, its probe (a) row and build (b) row, before any
// column is gathered. A caller that drops output rows (a correlated
// re-sample) decides on a narrow gather of the columns it needs, compacts
// the pairs with Keep, and gathers every column once.
type JoinPairs struct {
	a, b      *Columnar
	schema    *Schema
	rightKeep []int
	// left and right are pooled temporaries, released by Gather.
	left, right []int32
	workers     int
}

// EquiJoinPairs runs the probe and pairing sweeps of EquiJoinColumnarOpts:
// Gather on the result is that join, bit for bit.
func EquiJoinPairs(a, b *Columnar, on []string, idx *JoinIndex, opt JoinOptions) (*JoinPairs, error) {
	return equiJoinPairs(a, b, on, idx, opt, nil)
}

// EquiJoinPairs is the package-level EquiJoinPairs with a multi-column
// probe side grouped in s and the joined schema taken from s's schema memo.
func (s *Scratch) EquiJoinPairs(a, b *Columnar, on []string, idx *JoinIndex, opt JoinOptions) (*JoinPairs, error) {
	return equiJoinPairs(a, b, on, idx, opt, s)
}

func equiJoinPairs(a, b *Columnar, on []string, idx *JoinIndex, opt JoinOptions, s *Scratch) (*JoinPairs, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("relation: equi-join of %s and %s with no join attributes", a.Name, b.Name)
	}
	var err error
	if idx == nil {
		if idx, err = b.BuildJoinIndexWorkers(opt.Workers, on...); err != nil {
			return nil, fmt.Errorf("join %s ⋈ %s: %w", a.Name, b.Name, err)
		}
	}
	var schemas *SchemaMemo
	if s != nil {
		schemas = s.schemas
	}
	schema, rightKeep, err := schemas.joined(a.schema, b.schema, on)
	if err != nil {
		return nil, fmt.Errorf("join %s ⋈ %s: %w", a.Name, b.Name, err)
	}
	aCols, err := a.schema.Indexes(on...)
	if err != nil {
		return nil, fmt.Errorf("join %s ⋈ %s: %w", a.Name, b.Name, err)
	}
	workers := opt.Workers
	if workers < 1 || a.n < parallelMinRows {
		workers = 1
	}

	// Map every probe row to a build-side group (-1: no match). Single-column
	// joins remap the probe dictionary directly — one build-dictionary
	// lookup per distinct value; multi-column joins group the probe rows
	// first so each distinct tuple is looked up once. The probe-group and
	// remap tables are pooled temporaries.
	pg := poolInt32.get(a.n)
	var probe []uint32
	var remap []int32
	var ag *Grouping
	if col := &a.cols[aCols[0]]; len(aCols) == 1 && col.Codes != nil {
		probe = col.Codes
		remap = poolInt32.get(col.Dict.Len())
		vals := make([]Value, 1)
		for code, v := range col.Dict.vals {
			vals[0] = v
			remap[code] = idx.groupOf(vals)
		}
	} else {
		if ag, err = a.groupBy(aCols, workers, s); err != nil {
			poolInt32.put(pg)
			return nil, fmt.Errorf("join %s ⋈ %s: %w", a.Name, b.Name, err)
		}
		probe = ag.Codes
		remap = poolInt32.get(ag.N())
		vals := make([]Value, len(aCols))
		for gid, row := range ag.First {
			for j, ci := range aCols {
				vals[j] = a.ValueAt(int(row), ci)
			}
			remap[gid] = idx.groupOf(vals)
		}
	}
	runChunks(workers, a.n, func(_, lo, hi int) {
		for row := lo; row < hi; row++ {
			pg[row] = remap[probe[row]]
		}
	})
	poolInt32.put(remap)
	s.ReleaseGrouping(ag)

	// Size the output exactly from the build-side match counts — per chunk,
	// so the pairing sweep can run chunks in parallel while writing every
	// probe row's pairings at the same offsets a serial scan would.
	chunks := (a.n + parallelChunkRows - 1) / parallelChunkRows
	chunkOff := make([]int, chunks+1)
	runChunks(workers, a.n, func(ch, lo, hi int) {
		t := 0
		for row := lo; row < hi; row++ {
			if g := pg[row]; g >= 0 {
				t += int(idx.starts[g+1] - idx.starts[g])
			}
		}
		chunkOff[ch+1] = t
	})
	for ch := 0; ch < chunks; ch++ {
		chunkOff[ch+1] += chunkOff[ch]
	}
	total := chunkOff[chunks]

	left := poolInt32.get(total)
	right := poolInt32.get(total)
	runChunks(workers, a.n, func(ch, lo, hi int) {
		o := chunkOff[ch]
		for row := lo; row < hi; row++ {
			g := pg[row]
			if g < 0 {
				continue
			}
			for _, bi := range idx.rows[idx.starts[g]:idx.starts[g+1]] {
				left[o] = int32(row)
				right[o] = bi
				o++
			}
		}
	})
	poolInt32.put(pg)
	return &JoinPairs{a: a, b: b, schema: schema, rightKeep: rightKeep, left: left, right: right, workers: workers}, nil
}

// Len returns the number of output rows.
func (p *JoinPairs) Len() int { return len(p.left) }

// Schema returns the joined schema.
func (p *JoinPairs) Schema() *Schema { return p.schema }

// Name returns the joined relation's name.
func (p *JoinPairs) Name() string { return p.a.Name + "⋈" + p.b.Name }

// GatherSubset gathers only the output columns cols of every pair, into s
// (nil: allocated) for a caller that hands the relation back with Release
// after one pass; the pairs stay usable. Like ToColumnarSubset's result,
// the relation carries the full joined schema but leaves the other columns
// unpopulated: callers must touch only cols.
func (s *Scratch) GatherSubset(p *JoinPairs, cols []int) *Columnar { return p.gather(cols, s) }

// Keep restricts the pairs to the output rows keep (ascending), in place.
func (p *JoinPairs) Keep(keep []int32) {
	for k, r := range keep {
		p.left[k], p.right[k] = p.left[r], p.right[r]
	}
	p.left, p.right = p.left[:len(keep)], p.right[:len(keep)]
}

// Gather gathers every output column of the pairs into the joined relation
// and releases the pair lists; p must not be used afterwards.
func (p *JoinPairs) Gather() *Columnar { return p.release(p.gather(nil, nil)) }

// Gather gathers every output column of the pairs into s, for a caller that
// hands the relation back with Release after one pass — the terminal join
// of a re-sampled path — and releases the pair lists; p must not be used
// afterwards.
func (s *Scratch) Gather(p *JoinPairs) *Columnar { return p.release(p.gather(nil, s)) }

// gather gathers the output columns cols (nil: all) of every pair, into s.
func (p *JoinPairs) gather(cols []int, s *Scratch) *Columnar {
	out := &Columnar{Name: p.Name(), schema: p.schema, n: p.Len(), owner: s}
	out.cols = make([]CCol, p.schema.Len())
	width := len(cols)
	col := func(k int) int { return cols[k] }
	if cols == nil {
		width = len(out.cols)
		col = func(k int) int { return k }
	}
	coded := 0
	for k := 0; k < width; k++ {
		if src, _ := p.source(col(k)); src.Codes != nil {
			coded++
		}
	}
	back := newGatherBack(s, coded, width-coded, p.Len())
	if s != nil {
		out.back = back
	}
	for k := 0; k < width; k++ {
		j := col(k)
		src, rows := p.source(j)
		out.cols[j] = gatherCol(src, rows, p.workers, &back)
	}
	return out
}

// source returns output column j's source column and the rows it is
// gathered at.
func (p *JoinPairs) source(j int) (*CCol, []int32) {
	if aLen := p.a.schema.Len(); j >= aLen {
		return &p.b.cols[p.rightKeep[j-aLen]], p.right
	}
	return &p.a.cols[j], p.left
}

// release returns the pair lists to the pool and passes out through; p
// must not be used afterwards.
func (p *JoinPairs) release(out *Columnar) *Columnar {
	poolInt32.put(p.left)
	poolInt32.put(p.right)
	p.left, p.right = nil, nil
	return out
}
