package infotheory

import (
	"fmt"

	"github.com/dance-db/dance/internal/relation"
)

// JoinInformativeness computes JI(D, D') of Def 2.4 for relations a and b
// over join attributes on:
//
//	JI = (H(a.J, b.J) − I(a.J; b.J)) / H(a.J, b.J)
//
// where the joint distribution of (a.J, b.J) is taken over the full outer
// join of a and b, so unmatched values appear as (v, NULL) / (NULL, v)
// pairs and are penalized. The value lies in [0, 1]; smaller is a more
// informative join. A degenerate outer join with a single distinct pair
// (H = 0) returns 0, the most informative value, since the join loses
// nothing. The distribution is counted on dictionary codes
// (relation.OuterJoinCounts), in the fixed key order that makes the
// entropy sums, and so JI, deterministic to the last bit.
func JoinInformativeness(a, b *relation.Columnar, on []string) (float64, error) {
	if len(on) == 0 {
		return 0, fmt.Errorf("infotheory: join informativeness of %s/%s with no join attributes", a.Name, b.Name)
	}
	joint, left, right, err := relation.OuterJoinCounts(a, b, on)
	if err != nil {
		return 0, err
	}
	hJoint := EntropyFromCounts(joint)
	if hJoint == 0 {
		return 0, nil
	}
	mi := EntropyFromCounts(left) + EntropyFromCounts(right) - hJoint
	ji := (hJoint - mi) / hJoint
	// Clamp numeric noise into [0, 1].
	if ji < 0 {
		ji = 0
	}
	if ji > 1 {
		ji = 1
	}
	return ji, nil
}
