package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("pkg [pkg.test]" for test variants).
	Path string
	// Dir is the package directory.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// LoadConfig controls Load.
type LoadConfig struct {
	// Dir is the working directory for the go tool (the module root).
	// Empty means the current directory.
	Dir string
	// Tags is a comma-separated build-tag list forwarded to `go list`
	// (dancevet runs with "scenario" in CI so the scenario matrix is
	// analyzed too).
	Tags string
	// Tests includes each package's test variant — the variant's file set
	// is a superset of the plain package's, so when one exists only the
	// variant is analyzed.
	Tests bool
}

// listPackage mirrors the subset of `go list -json` dancevet consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load builds the transitive package graph with `go list -export`, parses
// the requested packages from source and type-checks them against their
// dependencies' compiler export data. Everything is stdlib: the repo's
// no-external-dependency rule applies to dancevet itself.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,ForTest,ImportMap,Error"}
	if cfg.Tests {
		args = append(args, "-test")
	}
	if cfg.Tags != "" {
		args = append(args, "-tags", cfg.Tags)
	}
	args = append(args, "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %w", err)
	}

	exports := make(map[string]string)
	var roots []*listPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.DepOnly || lp.Standard {
			continue
		}
		// Skip the synthetic "pkg.test" mains: their only file is a
		// generated _testmain.go.
		if strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		roots = append(roots, lp)
	}

	// When a package appears both plain and as its test variant
	// ("pkg [pkg.test]"), the variant's GoFiles are a superset — analyzing
	// both would duplicate every diagnostic in the non-test files.
	byBase := make(map[string]*listPackage)
	for _, lp := range roots {
		base := lp.ImportPath
		if i := strings.IndexByte(base, ' '); i >= 0 {
			base = base[:i]
		}
		if lp.ForTest != "" {
			base = lp.ForTest + "\x00" + lp.ImportPath // external _test packages stay distinct
		}
		if cur, ok := byBase[base]; !ok || len(lp.GoFiles) > len(cur.GoFiles) {
			byBase[base] = lp
		}
	}
	selected := make([]*listPackage, 0, len(byBase))
	for _, lp := range byBase {
		selected = append(selected, lp)
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i].ImportPath < selected[j].ImportPath })

	fset := token.NewFileSet()
	shared := newExportImporter(fset, exports, "")
	var pkgs []*Package
	for _, lp := range selected {
		imp := shared
		if i := strings.IndexByte(lp.ImportPath, ' '); i >= 0 {
			// A test variant ("pkg [pkg.test]") sees its whole import
			// closure as that test binary builds it: every dependency that
			// has a variant for the same binary resolves to it, so symbols
			// an in-package _test.go file adds (export_test.go hooks) are
			// visible to the external test package.
			imp = newExportImporter(fset, exports, lp.ImportPath[i:])
		}
		pkg, err := typecheckListed(fset, lp, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func typecheckListed(fset *token.FileSet, lp *listPackage, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := newTypesInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	// The import path go/types records is the plain path even for test
	// variants: export data self-references use it.
	base := lp.ImportPath
	if i := strings.IndexByte(base, ' '); i >= 0 {
		base = base[:i]
	}
	tpkg, err := conf.Check(base, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", lp.ImportPath, err)
	}
	return &Package{
		Path:  lp.ImportPath,
		Dir:   lp.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// exportImporter resolves import paths through the compiler export data
// `go list -export` reported, via the stdlib gc importer. With a non-empty
// variant suffix (" [pkg.test]"), a path's test-variant build is preferred
// over its plain one.
type exportImporter struct {
	imp     types.Importer
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, exports map[string]string, variant string) *exportImporter {
	e := &exportImporter{exports: exports}
	e.imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := e.exports[path+variant]
		if !ok {
			file, ok = e.exports[path]
		}
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return e
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.imp.Import(path)
}

// NewGoListImporter returns an importer that resolves arbitrary import
// paths (stdlib or module packages) by asking `go list -export` for
// compiler export data on demand. The analysistest fixture loader uses it
// for fixture imports like "context" and "strings".
func NewGoListImporter(fset *token.FileSet) (types.Importer, error) {
	g := &goListImporter{exports: make(map[string]string)}
	g.imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := g.exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	return g, nil
}

type goListImporter struct {
	imp     types.Importer
	exports map[string]string
}

func (g *goListImporter) Import(path string) (*types.Package, error) {
	if _, err := g.exportFile(path); err != nil {
		return nil, err
	}
	return g.imp.Import(path)
}

func (g *goListImporter) exportFile(path string) (string, error) {
	if f, ok := g.exports[path]; ok {
		return f, nil
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Export", "--", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go list -export %s: %w", path, err)
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return "", fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if lp.Export != "" {
			g.exports[lp.ImportPath] = lp.Export
		}
	}
	f, ok := g.exports[path]
	if !ok {
		return "", fmt.Errorf("analysis: no export data for %q", path)
	}
	return f, nil
}
