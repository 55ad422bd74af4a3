package infotheory

import (
	"fmt"

	"github.com/dance-db/dance/internal/relation"
)

// Correlation computes CORR(X, Y) of Def 2.5 on table t.
//
// The paper defines CORR for a categorical X as H(X) − H(X|Y) and for a
// numerical X as h(X) − h(X|Y) (cumulative entropy). For attribute *sets*
// mixing both kinds we follow the same spirit (cf. Nguyen et al., the
// paper's reference [20]): the categorical attributes of X are treated
// jointly with Shannon entropy and each numerical attribute contributes its
// cumulative-entropy term; Y always conditions jointly:
//
//	CORR(X, Y) = [H(Xc) − H(Xc|Y)] + Σ_{A ∈ Xn} [h(A) − h(A|Y)]
//
// where Xc are the categorical and Xn the numerical attributes of X.
// Numerical attributes are normalized to [0, 1] by their observed range
// before the cumulative-entropy terms are computed — raw cumulative entropy
// carries the unit of the attribute, which would let a dollar-valued column
// dominate bit-valued Shannon terms (Nguyen et al. normalize the same way).
// The result is ≥ 0 up to floating-point error; larger means more
// correlated. Columns of X missing in t are an error.
//
// The grouping columns (Xc ∪ Y) are dictionary-encoded once, the numerical
// attributes extracted as raw floats, and all groupings count fused integer
// codes (CorrelationColumnar).
func Correlation(t *relation.Table, x, y []string) (float64, error) {
	if len(x) == 0 || len(y) == 0 || t.NumRows() == 0 {
		return 0, nil
	}
	xc, xn, err := splitCorrAttrs(t.Schema, t.Name, x, y)
	if err != nil {
		return 0, err
	}
	coded := append(append([]string{}, xc...), y...)
	c, err := relation.ToColumnarSubset(t, coded, xn)
	if err != nil {
		return 0, err
	}
	return CorrelationColumnar(c, x, y, nil)
}

// splitCorrAttrs partitions X into categorical and numerical attributes and
// validates that every X and Y column exists in the schema.
func splitCorrAttrs(schema *relation.Schema, name string, x, y []string) (xc, xn []string, err error) {
	for _, a := range x {
		ci := schema.Index(a)
		if ci < 0 {
			return nil, nil, fmt.Errorf("infotheory: correlation: table %s has no column %q", name, a)
		}
		if schema.Column(ci).IsCategorical() {
			xc = append(xc, a)
		} else {
			xn = append(xn, a)
		}
	}
	for _, a := range y {
		if !schema.Has(a) {
			return nil, nil, fmt.Errorf("infotheory: correlation: table %s has no column %q", name, a)
		}
	}
	return xc, xn, nil
}

func clampCorr(corr float64) float64 {
	if corr < 0 && corr > -1e-9 {
		return 0 // clamp floating point noise
	}
	return corr
}

func rangeOf(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
