package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/dance-db/dance/internal/datadir"
	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/workload"
)

func TestLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()

	tab := relation.NewTable("alpha", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("v", relation.KindString),
	))
	tab.AppendValues(relation.IntValue(1), relation.StringValue("x"))
	tab.AppendValues(relation.IntValue(2), relation.StringValue("y"))
	f, err := os.Create(filepath.Join(dir, "alpha.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "demo.fds"), []byte("alpha: k -> v\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := marketplace.NewInMemory(nil)
	if err := loadDir(m, dir); err != nil {
		t.Fatal(err)
	}
	cat, err := m.Catalog(context.Background())
	if err != nil || len(cat) != 1 || cat[0].Name != "alpha" || cat[0].Rows != 2 {
		t.Fatalf("catalog = %+v, %v", cat, err)
	}
	fds, err := m.DatasetFDs(context.Background(), "alpha")
	if err != nil || len(fds) != 1 || fds[0].RHS != "v" {
		t.Fatalf("fds = %v, %v", fds, err)
	}
}

// FDs over names that hold the FD syntax's delimiters (edge spaces
// included) survive datadir.WriteTables and loadDir unchanged.
func TestLoadDirDelimiterNames(t *testing.T) {
	dir := t.TempDir()
	tab := relation.NewTable("odd", relation.NewSchema(
		relation.Cat("a,b", relation.KindInt),
		relation.Cat("p→q ", relation.KindInt),
		relation.Cat(" c", relation.KindInt),
	))
	tab.AppendValues(relation.IntValue(1), relation.IntValue(2), relation.IntValue(3))
	want := []fd.FD{fd.New(" c", "a,b"), fd.New(" c", "p→q ")}
	if _, err := datadir.WriteTables(dir, []*relation.Table{tab}, map[string][]fd.FD{"odd": want}, "odd"); err != nil {
		t.Fatal(err)
	}
	m := marketplace.NewInMemory(nil)
	if err := loadDir(m, dir); err != nil {
		t.Fatal(err)
	}
	got, err := m.DatasetFDs(context.Background(), "odd")
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("fds = %q, %v; want %q", got, err, want)
	}
}

func TestLoadDirMalformedFDs(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.fds"), []byte("no colon here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := loadDir(marketplace.NewInMemory(nil), dir); err == nil {
		t.Fatal("malformed FD file should error")
	}
}

func TestLoadDirMissing(t *testing.T) {
	if err := loadDir(marketplace.NewInMemory(nil), "/nonexistent-dir-xyz"); err == nil {
		t.Fatal("missing directory should error")
	}
}

// A served workload directory must quote prices under the price family the
// generator recorded, or the ground truth written next to the CSVs (plan
// cost, budget-pinned recovery) would be unreachable on the wire.
func TestPriceModelForWorkloadDir(t *testing.T) {
	spec, err := workload.ParseSpec("chain:2,price=flat")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	m := marketplace.NewInMemory(priceModelFor(dir))
	if err := loadDir(m, dir); err != nil {
		t.Fatal(err)
	}
	q := w.Truth.Queries[0]
	got, err := m.QuoteProjection(context.Background(), q.Instance, q.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.PricingModel().PriceProjection(w.Base(), q.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("served quote %v != recorded model price %v (flat family not honored)", got, want)
	}
	if priceModelFor("") != nil || priceModelFor(t.TempDir()) != nil {
		t.Fatal("non-workload directories must keep the default model")
	}
}
