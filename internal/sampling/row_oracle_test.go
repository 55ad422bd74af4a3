package sampling

import (
	"fmt"

	"github.com/dance-db/dance/internal/relation"
)

// Row-store oracles for the columnar kernels. They are the original
// formulations of correlated sampling and the re-sampled path join (Sec 3),
// one row and one byte-string key at a time, kept here so the equivalence
// tests can pin the columnar kernels bit for bit against them.

// correlatedSample keeps each row of t whose join-attribute tuple hashes to
// at most rate, in table order. rate ≥ 1 keeps every row; rate ≤ 0 keeps
// none. NULL join values are never sampled (they cannot join).
func correlatedSample(t *relation.Table, joinAttrs []string, rate float64, h Hasher) (*relation.Table, error) {
	if rate >= 1 {
		return t.Clone(), nil
	}
	out := relation.NewTable(t.Name, t.Schema)
	if rate <= 0 {
		return out, nil
	}
	idx, err := t.Schema.Indexes(joinAttrs...)
	if err != nil {
		return nil, fmt.Errorf("correlated sample of %s: %w", t.Name, err)
	}
	var buf []byte
	for _, r := range t.Rows {
		null := false
		for _, c := range idx {
			if r[c].IsNull() {
				null = true
				break
			}
		}
		if null {
			continue
		}
		buf = relation.EncodeKey(buf[:0], r, idx)
		if h.Unit(buf) <= rate {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

// resampledJoinPath joins steps left to right with relation.EquiJoin and
// re-samples every intermediate that exceeds opts.Eta rows, when another
// join follows, on the next step's join attributes.
func resampledJoinPath(steps []relation.PathStep, opts PathJoinOptions) (*relation.Table, ResampleStats, error) {
	var stats ResampleStats
	if len(steps) == 0 {
		return nil, stats, fmt.Errorf("sampling: empty join path")
	}
	acc := steps[0].Table
	for i := 1; i < len(steps); i++ {
		j, err := relation.EquiJoin(acc, steps[i].Table, steps[i].On)
		if err != nil {
			return nil, stats, err
		}
		stats.IntermediateSizes = append(stats.IntermediateSizes, j.NumRows())
		resampled := false
		if opts.Eta > 0 && i < len(steps)-1 && j.NumRows() > opts.Eta {
			if j, err = correlatedSample(j, steps[i+1].On, opts.ResampleRate, opts.Hasher); err != nil {
				return nil, stats, err
			}
			resampled = true
		}
		stats.Resampled = append(stats.Resampled, resampled)
		acc = j
	}
	return acc, stats, nil
}

// columnarizeSteps encodes row path steps as columnar steps (no prebuilt
// indexes).
func columnarizeSteps(steps []relation.PathStep) []ColumnarStep {
	out := make([]ColumnarStep, len(steps))
	for i, st := range steps {
		out[i] = ColumnarStep{C: relation.ToColumnar(st.Table), On: st.On}
	}
	return out
}
