package relation

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// This file computes the joint distribution of a full outer join's key pairs
// on dictionary codes — the input of join informativeness (Def 2.4). JI sums
// entropy terms in a fixed order, and its bits depend on that order. The
// order is that of the sorted (a-key, b-key) pairs of AppendKey encodings —
// the order the pinned JI goldens and the row-store reference kernel in the
// infotheory tests sum in — and it is reproduced here without building or
// sorting a single byte string:
//
//   - AppendKey is prefix-free (NULL is one byte, strings are
//     length-prefixed, numbers are a kind byte plus eight), so comparing two
//     keys byte by byte is decided inside their first differing value. A
//     dictionary's codes therefore sort once by their values' encodings
//     (Dict.keyOrder), and a multi-attribute key tuple sorts by its
//     per-column ranks.
//   - A pair is (a-key, b-key), with an empty side for an unmatched key.
//     The empty string sorts first, so the sorted pairs are the b-only keys
//     in b's key order, then every a key in a's key order. Each side's order
//     is all that is ever needed; keys of the two sides are never compared.

// keyOrder returns every code of d — NULL's code 0 included — sorted by the
// byte order of the values' AppendKey encodings. It is computed once per
// dictionary and shared by every relation whose columns carry d. Small
// non-negative integers are read off the dense slot table in slot order,
// which is their encoding order; only the remaining values are sorted.
// Safe for concurrent use.
func (d *Dict) keyOrder() []uint32 {
	d.byKeyOnce.Do(func() {
		type numEntry struct {
			bits uint64
			code uint32
		}
		var strs []uint32
		var ints, floats []numEntry
		for code := 1; code < len(d.vals); code++ {
			v := d.vals[code]
			if v.Kind == KindString {
				strs = append(strs, uint32(code))
				continue
			}
			k := numKeyOf(v)
			switch {
			case !k.isInt:
				floats = append(floats, numEntry{k.bits, uint32(code)})
			case k.bits >= uint64(len(d.dense)):
				ints = append(ints, numEntry{k.bits, uint32(code)})
			}
		}
		slices.SortFunc(strs, func(x, y uint32) int { return cmpStringKey(d.vals[x].S, d.vals[y].S) })
		byBits := func(x, y numEntry) int { return cmp.Compare(x.bits, y.bits) }
		slices.SortFunc(ints, byBits)
		slices.SortFunc(floats, byBits)

		// Kind bytes order the classes: NULL 0, string 1, integer 2 (dense
		// slots, then every larger bit pattern), float 3.
		order := make([]uint32, 1, len(d.vals))
		order = append(order, strs...)
		for _, code := range d.dense {
			if code != 0 {
				order = append(order, code)
			}
		}
		for _, e := range ints {
			order = append(order, e.code)
		}
		for _, e := range floats {
			order = append(order, e.code)
		}
		d.byKey = order
	})
	return d.byKey
}

// cmpStringKey compares two strings by the byte order of their AppendKey
// encodings: the uvarint length, then the bytes. Lengths of 128 and more
// take several little-endian uvarint bytes, which do not follow numeric
// order, so unequal lengths compare by their encodings.
func cmpStringKey(x, y string) int {
	if len(x) != len(y) {
		var bx, by [binary.MaxVarintLen64]byte
		nx := binary.PutUvarint(bx[:], uint64(len(x)))
		ny := binary.PutUvarint(by[:], uint64(len(y)))
		return bytes.Compare(bx[:nx], by[:ny])
	}
	return strings.Compare(x, y)
}

// keyGroups is one side of an outer join's key distribution: the distinct
// join-key tuples present in a relation, their multiplicities, and their
// AppendKey byte order.
type keyGroups struct {
	dicts []*Dict
	// counts is the multiplicity of each group. A single-attribute group id
	// is the dictionary code itself (dictionaries may hold codes no row
	// carries: those count 0); a multi-attribute group id is a GroupBy id.
	counts []int64
	// order lists the ids of the groups with rows, in key byte order.
	order []int32
	// tuples holds a multi-attribute group's codes at
	// tuples[g*len(dicts):(g+1)*len(dicts)]; nil for a single attribute.
	tuples []uint32
	// index maps a code tuple's bytes to its group, built on first find.
	index map[string]int32
}

func (c *Columnar) keyGroups(on []string) (*keyGroups, error) {
	cols, err := c.schema.Indexes(on...)
	if err != nil {
		return nil, err
	}
	k := &keyGroups{}
	for _, ci := range cols {
		if c.cols[ci].Codes == nil {
			return nil, fmt.Errorf("relation: column %q of %s is not dictionary-coded", c.schema.Column(ci).Name, c.Name)
		}
		k.dicts = append(k.dicts, c.cols[ci].Dict)
	}
	if len(cols) == 1 {
		d := k.dicts[0]
		k.counts = make([]int64, d.Len())
		for _, code := range c.cols[cols[0]].Codes {
			k.counts[code]++
		}
		k.order = make([]int32, 0, min(d.Len(), c.n))
		for _, code := range d.keyOrder() {
			if k.counts[code] > 0 {
				k.order = append(k.order, int32(code))
			}
		}
		return k, nil
	}
	g, err := c.groupBy(cols, 1, nil)
	if err != nil {
		return nil, err
	}
	w := len(cols)
	k.counts = g.Counts
	k.tuples = make([]uint32, g.N()*w)
	ranks := make([]int32, g.N()*w)
	for s, ci := range cols {
		rank := make([]int32, k.dicts[s].Len())
		for r, code := range k.dicts[s].keyOrder() {
			rank[code] = int32(r)
		}
		codes := c.cols[ci].Codes
		for gid, row := range g.First {
			code := codes[row]
			k.tuples[gid*w+s] = code
			ranks[gid*w+s] = rank[code]
		}
	}
	k.order = make([]int32, g.N())
	for gid := range k.order {
		k.order[gid] = int32(gid)
	}
	slices.SortFunc(k.order, func(x, y int32) int {
		return slices.Compare(ranks[int(x)*w:int(x+1)*w], ranks[int(y)*w:int(y+1)*w])
	})
	return k, nil
}

// find returns k's group whose key equals group ga of a, or -1. Values are
// aligned through k's dictionaries, so NULL finds NULL and IntValue(3)
// finds FloatValue(3.0), exactly as their AppendKey encodings coincide.
func (k *keyGroups) find(a *keyGroups, ga int32) int32 {
	if a.tuples == nil {
		code, ok := k.dicts[0].lookup(a.dicts[0].vals[ga])
		if !ok || k.counts[code] == 0 {
			return -1
		}
		return int32(code)
	}
	w := len(k.dicts)
	if k.index == nil {
		k.index = make(map[string]int32, len(k.counts))
		for gid := range k.counts {
			k.index[string(appendCodes(nil, k.tuples[gid*w:(gid+1)*w]))] = int32(gid)
		}
	}
	own := make([]uint32, w)
	for s, code := range a.tuples[int(ga)*w : int(ga+1)*w] {
		c, ok := k.dicts[s].lookup(a.dicts[s].vals[code])
		if !ok {
			return -1
		}
		own[s] = c
	}
	if gid, ok := k.index[string(appendCodes(nil, own))]; ok {
		return gid
	}
	return -1
}

func appendCodes(buf []byte, codes []uint32) []byte {
	for _, code := range codes {
		buf = binary.LittleEndian.AppendUint32(buf, code)
	}
	return buf
}

// OuterJoinCounts returns the joint distribution of (a.J, b.J) over the full
// outer join of a and b on the attributes J, without materializing the
// join, together with its two marginals. NULL keys match each other, as
// their encodings do. The counts come in the order JI sums them (see the
// top of this file):
//
//   - joint: every b-only key's count in b's key order, then every a key's
//     count in a's key order — |a-key|·|b-key| when matched, |a-key| when not.
//   - left: the total of the b-only counts (when there are any), then the
//     a keys' joint counts.
//   - right: the b-only counts, then, in a's key order, each matched key's
//     joint count, with the total of the a-only counts at the position of
//     the first a-only key.
//
// Every join attribute must be dictionary-coded on both sides.
func OuterJoinCounts(a, b *Columnar, on []string) (joint, left, right []int64, err error) {
	if len(on) == 0 {
		return nil, nil, nil, fmt.Errorf("relation: outer join counts of %s/%s with no join attributes", a.Name, b.Name)
	}
	ka, err := a.keyGroups(on)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("outer join counts %s/%s: %w", a.Name, b.Name, err)
	}
	kb, err := b.keyGroups(on)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("outer join counts %s/%s: %w", a.Name, b.Name, err)
	}
	match := make([]int32, len(ka.counts))
	matchedB := make([]bool, len(kb.counts))
	for _, ga := range ka.order {
		gb := kb.find(ka, ga)
		match[ga] = gb
		if gb >= 0 {
			matchedB[gb] = true
		}
	}
	joint = make([]int64, 0, len(ka.order)+len(kb.order))
	right = make([]int64, 0, len(ka.order)+len(kb.order))
	left = make([]int64, 0, len(ka.order)+1)
	var bOnly int64
	for _, gb := range kb.order {
		if !matchedB[gb] {
			c := kb.counts[gb]
			joint = append(joint, c)
			right = append(right, c)
			bOnly += c
		}
	}
	if bOnly > 0 {
		left = append(left, bOnly)
	}
	aOnlyAt := -1
	for _, ga := range ka.order {
		c := ka.counts[ga]
		switch gb := match[ga]; {
		case gb >= 0:
			c *= kb.counts[gb]
			right = append(right, c)
		case aOnlyAt < 0:
			aOnlyAt = len(right)
			right = append(right, c)
		default:
			right[aOnlyAt] += c
		}
		joint = append(joint, c)
		left = append(left, c)
	}
	return joint, left, right, nil
}
