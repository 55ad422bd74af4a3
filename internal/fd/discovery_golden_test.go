package fd_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/tpch"
	"github.com/dance-db/dance/internal/workload"
)

// discoveryGoldenPath freezes the AFDs Discover reports on TPC-H and three
// synthetic workload families under four option sets. The file was captured
// from the row-store discovery before the columnar rewrite replaced it, and
// must never change: any difference is a change in discovery semantics.
const discoveryGoldenPath = "testdata/discovery_golden.json"

// discoveryCase is one golden entry: the FDs discovered on one table under
// one named option set, rendered with FD.String in Discover's order.
type discoveryCase struct {
	Fixture string   `json:"fixture"`
	Table   string   `json:"table"`
	Options string   `json:"options"`
	FDs     []string `json:"fds"`
}

// discoveryGoldenOptions are the option sets the golden covers.
var discoveryGoldenOptions = []struct {
	name string
	opts fd.DiscoveryOptions
}{
	{"defaults", fd.DefaultDiscoveryOptions()},
	{"lhs1-distinct2", fd.DiscoveryOptions{MaxError: 0.1, MaxLHS: 1, MinDistinct: 2}},
	{"rows300", fd.DiscoveryOptions{MaxError: 0.1, MaxLHS: 2, MaxRows: 300}},
	{"exact-lhs3", fd.DiscoveryOptions{MaxError: 0, MaxLHS: 3}},
}

// discoveryGoldenFixtures returns TPC-H at scale 3 and three workload specs,
// each as a named table list.
func discoveryGoldenFixtures(t *testing.T) (names []string, tables [][]*relation.Table) {
	t.Helper()
	names = append(names, "tpch:scale=3,seed=7")
	tables = append(tables, tpch.Generate(tpch.Config{Scale: 3, Seed: 7, DirtyFraction: 0.3}).Tables)
	for _, spec := range []string{"star:4,rows=2000,keys=2000,fanout=2", "chain:3,rows=5000", "chain:3,decoys=3,null=0.1"} {
		sp, err := workload.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, spec)
		tables = append(tables, w.Listings)
	}
	return names, tables
}

// observeDiscovery runs Discover over every golden fixture and option set.
func observeDiscovery(t *testing.T) []discoveryCase {
	t.Helper()
	names, fixtures := discoveryGoldenFixtures(t)
	var out []discoveryCase
	for i, tables := range fixtures {
		for _, tab := range tables {
			for _, o := range discoveryGoldenOptions {
				fds, err := fd.Discover(relation.ToColumnar(tab), o.opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", names[i], tab.Name, o.name, err)
				}
				c := discoveryCase{Fixture: names[i], Table: tab.Name, Options: o.name, FDs: []string{}}
				for _, f := range fds {
					c.FDs = append(c.FDs, f.String())
				}
				out = append(out, c)
			}
		}
	}
	return out
}

func TestDiscoverGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full discovery golden")
	}
	buf, err := os.ReadFile(discoveryGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []discoveryCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	got := observeDiscovery(t)
	if len(got) != len(want) {
		t.Fatalf("golden has %d cases, observed %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("discovery diverged on %s/%s/%s:\nwant %q\ngot  %q",
				want[i].Fixture, want[i].Table, want[i].Options, want[i].FDs, got[i].FDs)
		}
	}
}
