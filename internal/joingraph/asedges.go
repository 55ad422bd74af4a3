package joingraph

import (
	"fmt"

	"github.com/dance-db/dance/internal/infotheory"
)

// ASEdge is one AS-layer edge of Def 4.2: a pair of AS-vertices from two
// different instances with intersecting attribute sets, weighted by the
// join informativeness of the intersection.
type ASEdge struct {
	VI, VJ    ASVertex
	JoinAttrs []string // AS(VI) ∩ AS(VJ), sorted
	JI        float64
}

// DefaultASEdgeMaxAttrs bounds explicit AS-edge enumeration per instance:
// an m-attribute instance has 2^m − m − 1 lattice vertices, so pairs grow
// as ~4^m.
const DefaultASEdgeMaxAttrs = 8

// ASEdges materializes the AS-layer edges between instances i and j — every
// pair of lattice vertices (Def 4.1, attribute sets of size ≥ 2) with a
// non-empty intersection, weighted per Property 4.1 by the JI of the
// intersection alone. Intended for narrow instances (≤ maxAttrs attributes
// each; ≤ 0 uses DefaultASEdgeMaxAttrs); the search itself never needs the
// materialized layer thanks to Property 4.1, which this function also
// demonstrates (weights are looked up per join-attribute set, computed at
// most once each).
func (g *Graph) ASEdges(i, j int, maxAttrs int) ([]ASEdge, error) {
	if maxAttrs <= 0 {
		maxAttrs = DefaultASEdgeMaxAttrs
	}
	if i == j {
		return nil, fmt.Errorf("joingraph: AS-edges need two distinct instances")
	}
	if i > j {
		i, j = j, i
	}
	instI, instJ := g.Instances[i], g.Instances[j]
	if n := instI.Columnar.Schema().Len(); n > maxAttrs {
		return nil, fmt.Errorf("joingraph: instance %s has %d attributes (max %d for AS-edge enumeration)",
			instI.Name, n, maxAttrs)
	}
	if n := instJ.Columnar.Schema().Len(); n > maxAttrs {
		return nil, fmt.Errorf("joingraph: instance %s has %d attributes (max %d for AS-edge enumeration)",
			instJ.Name, n, maxAttrs)
	}
	latI, err := NewLattice(instI.Columnar.Schema().Names(), maxAttrs)
	if err != nil {
		return nil, err
	}
	latJ, err := NewLattice(instJ.Columnar.Schema().Names(), maxAttrs)
	if err != nil {
		return nil, err
	}

	// Property 4.1: the weight depends only on the join-attribute set, so
	// compute each intersection's JI once. Prefer the precomputed variant
	// table; fall back to a direct estimate for sets the builder capped.
	jiBySet := map[string]float64{}
	if e := g.EdgeBetween(i, j); e != nil {
		for _, v := range e.Variants {
			jiBySet[joinKey(v.JoinAttrs)] = v.JI
		}
	}
	lookupJI := func(attrs []string) (float64, error) {
		k := joinKey(attrs)
		if ji, ok := jiBySet[k]; ok {
			return ji, nil
		}
		ji, err := infotheory.JoinInformativeness(instI.Columnar, instJ.Columnar, attrs)
		if err != nil {
			return 0, err
		}
		jiBySet[k] = ji
		return ji, nil
	}

	var out []ASEdge
	for level := 0; level <= latI.Height()-1; level++ {
		for _, maskI := range latI.Level(level) {
			attrsI := latI.AttrSet(maskI)
			for levelJ := 0; levelJ <= latJ.Height()-1; levelJ++ {
				for _, maskJ := range latJ.Level(levelJ) {
					attrsJ := latJ.AttrSet(maskJ)
					shared := intersectSorted(attrsI, attrsJ)
					if len(shared) == 0 {
						continue
					}
					ji, err := lookupJI(shared)
					if err != nil {
						return nil, err
					}
					out = append(out, ASEdge{
						VI:        ASVertex{Instance: i, Attrs: attrsI},
						VJ:        ASVertex{Instance: j, Attrs: attrsJ},
						JoinAttrs: shared,
						JI:        ji,
					})
				}
			}
		}
	}
	return out, nil
}

func joinKey(attrs []string) string {
	k := ""
	for _, a := range attrs {
		k += a + "\x00"
	}
	return k
}

// intersectSorted intersects two sorted string slices.
func intersectSorted(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
