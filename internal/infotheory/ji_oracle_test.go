package infotheory

import (
	"fmt"
	"sort"

	"github.com/dance-db/dance/internal/relation"
)

// This file keeps the row-store JI kernel as the reference oracle the code
// kernel must match bit for bit: it counts (a-key, b-key) pairs of the
// outer join under injective byte-string keys, sorts the pairs, and
// collects the joint and marginal counts in that sorted order.

// jiTables encodes a's and b's join columns and computes JI on the codes.
func jiTables(a, b *relation.Table, on []string) (float64, error) {
	ca, err := relation.ToColumnarSubset(a, on, nil)
	if err != nil {
		return 0, err
	}
	cb, err := relation.ToColumnarSubset(b, on, nil)
	if err != nil {
		return 0, err
	}
	return JoinInformativeness(ca, cb, on)
}

// rowJoinInformativeness is JI on the row store.
func rowJoinInformativeness(a, b *relation.Table, on []string) (float64, error) {
	if len(on) == 0 {
		return 0, fmt.Errorf("infotheory: join informativeness of %s/%s with no join attributes", a.Name, b.Name)
	}
	joint, err := outerJoinPairCounts(a, b, on)
	if err != nil {
		return 0, err
	}
	return jiFromPairCounts(joint), nil
}

// outerJoinPairCounts returns the joint distribution of (a.J, b.J) in the
// full outer join of a and b on J. Keys are the injective tuple encodings
// of each side's join values; the empty string denotes an absent side.
func outerJoinPairCounts(a, b *relation.Table, on []string) (map[[2]string]int64, error) {
	aIdx, err := a.Schema.Indexes(on...)
	if err != nil {
		return nil, err
	}
	bIdx, err := b.Schema.Indexes(on...)
	if err != nil {
		return nil, err
	}
	countsA := make(map[string]int64, len(a.Rows))
	countsB := make(map[string]int64, len(b.Rows))
	var buf []byte
	for _, r := range a.Rows {
		buf = relation.EncodeKey(buf[:0], r, aIdx)
		countsA[string(buf)]++
	}
	for _, r := range b.Rows {
		buf = relation.EncodeKey(buf[:0], r, bIdx)
		countsB[string(buf)]++
	}
	joint := make(map[[2]string]int64, len(countsA)+len(countsB))
	for v, ca := range countsA {
		if cb, ok := countsB[v]; ok {
			joint[[2]string{v, v}] = ca * cb
		} else {
			joint[[2]string{v, ""}] = ca
		}
	}
	for v, cb := range countsB {
		if _, ok := countsA[v]; !ok {
			joint[[2]string{"", v}] = cb
		}
	}
	return joint, nil
}

// jiFromPairCounts computes JI from a joint pair distribution.
func jiFromPairCounts(joint map[[2]string]int64) float64 {
	jc, lc, rc := sortedPairCounts(joint)
	hJoint := EntropyFromCounts(jc)
	if hJoint == 0 {
		return 0
	}
	mi := EntropyFromCounts(lc) + EntropyFromCounts(rc) - hJoint
	ji := (hJoint - mi) / hJoint
	if ji < 0 {
		ji = 0
	}
	if ji > 1 {
		ji = 1
	}
	return ji
}

// sortedPairCounts collects the joint counts and both marginals in sorted
// pair order — the order the entropy sums run in.
func sortedPairCounts(joint map[[2]string]int64) (jc, lc, rc []int64) {
	keys := make([][2]string, 0, len(joint))
	for k := range joint {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	left := make(map[string]int64)
	right := make(map[string]int64)
	var leftOrder, rightOrder []string
	for _, k := range keys {
		c := joint[k]
		if _, ok := left[k[0]]; !ok {
			leftOrder = append(leftOrder, k[0])
		}
		left[k[0]] += c
		if _, ok := right[k[1]]; !ok {
			rightOrder = append(rightOrder, k[1])
		}
		right[k[1]] += c
		jc = append(jc, c)
	}
	for _, k := range leftOrder {
		lc = append(lc, left[k])
	}
	for _, k := range rightOrder {
		rc = append(rc, right[k])
	}
	return jc, lc, rc
}
