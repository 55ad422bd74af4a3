package joingraph

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/tpch"
	"github.com/dance-db/dance/internal/workload"
)

// jiGoldenPath freezes every variant weight Build estimates over correlated
// samples of TPC-H, TPC-E and the synthetic scenario families, as exact
// float bits. Regenerate with JI_GOLDEN_UPDATE=1 go test ./internal/joingraph
// -run TestBuildJIGolden (only legitimate when JI's definition changes).
const jiGoldenPath = "testdata/ji_golden.json"

func TestBuildJIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full join-informativeness golden")
	}
	type fixture struct {
		name   string
		tables []*relation.Table
	}
	var fixtures []fixture
	fixtures = append(fixtures,
		fixture{"tpch", tpch.Generate(tpch.Config{Scale: 2, Seed: 5, DirtyFraction: 0.3}).Tables},
		fixture{"tpce", tpce.Generate(tpce.Config{Scale: 1, Seed: 7, DirtyFraction: 0.2}).Tables},
	)
	for _, spec := range []string{"star:4,rows=2000,keys=2000,fanout=2", "chain:3,decoys=3", "snowflake:2,null=0.05"} {
		sp, err := workload.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{spec, w.Listings})
	}
	var observed []string
	for _, fx := range fixtures {
		for _, rate := range []float64{0.1, 0.5} {
			var instances []*Instance
			for _, tab := range fx.tables {
				on := []string{tab.Schema.Names()[0]}
				s, err := sampling.CorrelatedSampleColumnar(relation.ToColumnar(tab), on, rate, sampling.NewHasher(11))
				if err != nil {
					t.Fatal(err)
				}
				instances = append(instances, &Instance{Name: tab.Name, Columnar: s, FullRows: tab.NumRows()})
			}
			g, err := Build(instances, Config{MaxJoinAttrs: 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range g.Edges {
				for _, v := range e.Variants {
					observed = append(observed, fmt.Sprintf("%s@%v %s|%s %s %s", fx.name, rate,
						instances[e.I].Name, instances[e.J].Name, strings.Join(v.JoinAttrs, ","),
						strconv.FormatFloat(v.JI, 'x', -1, 64)))
				}
			}
		}
	}
	if os.Getenv("JI_GOLDEN_UPDATE") != "" {
		buf, err := json.MarshalIndent(observed, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jiGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d variant weights to %s", len(observed), jiGoldenPath)
		return
	}
	buf, err := os.ReadFile(jiGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(observed) {
		t.Fatalf("golden has %d variant weights, observed %d", len(want), len(observed))
	}
	for i := range want {
		if want[i] != observed[i] {
			t.Errorf("variant weight diverged:\nwant %s\ngot  %s", want[i], observed[i])
		}
	}
}
