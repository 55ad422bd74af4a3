// Package datadir writes datasets in the directory layout marketd serves
// with -dir: one typed CSV per table plus a .fds file declaring each
// table's approximate functional dependencies as "table: A,B -> C" lines
// (fd.Format syntax).
// cmd/datagen (tpch/tpce and synthetic workloads alike) and
// workload.WriteDir share it, so the layout cannot drift between
// generators.
package datadir

import (
	"os"
	"path/filepath"
	"strings"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
)

// WriteTables writes dir/<table>.csv for every table and dir/<fdsName>.fds
// with the declared FDs, creating dir if missing. It returns the number of
// FD lines written.
func WriteTables(dir string, tables []*relation.Table, fds map[string][]fd.FD, fdsName string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for _, t := range tables {
		f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
		if err != nil {
			return 0, err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	var lines []string
	for _, t := range tables {
		for _, f := range fds[t.Name] {
			lines = append(lines, t.Name+": "+fd.Format(f))
		}
	}
	path := filepath.Join(dir, fdsName+".fds")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		return 0, err
	}
	return len(lines), nil
}
