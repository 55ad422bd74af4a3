package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CacheKeyPackages names the packages (by final import-path segment) that
// build long-lived cache keys from marketplace-controlled names. The
// analysis packages themselves are included: dancevet is subject to its own
// rules (the CI sweep covers ./..., and the suppression sites inside the
// analyzers double as living documentation of the mechanism).
var CacheKeyPackages = map[string]bool{
	"search":       true,
	"joingraph":    true,
	"offline":      true,
	"core":         true,
	"sampling":     true,
	"pricing":      true,
	"safekey":      true,
	"analysis":     true,
	"analysistest": true,
}

// PathSinkPackages names the packages whose string expressions reach the
// filesystem: there, a marketplace-controlled name is a path-traversal
// primitive as well as an aliasing one.
var PathSinkPackages = map[string]bool{
	"datadir": true,
}

// Cachekey flags cache keys assembled by joining attacker-controllable
// strings with printable separators — the exact PR 4 JICache bug: dataset
// and attribute names are seller- and shopper-controlled free text, so
// "a|b" + "|" + "c" and "a" + "|" + "b|c" collide and two different
// (instance pair, join attrs) composites silently share one cached
// estimate. Keys must separate dynamic parts with non-printable bytes
// (\x00 between list elements, \x01 between sections — the repo
// convention) or use safekey.Join, which length-prefixes and is injective
// regardless of content.
//
// v2 is flow-sensitive: expressions are resolved through Pass.Flow, so a
// join laundered through a local variable or a same-package helper
// (`key := compose(a, b)` where compose returns a + "|" + b) is caught, and
// operands that originate from a known taint source (marketplace/workload
// listing names, HTTP request fields) are called out in the message. Sinks
// are the v1 key-shaped places (assignments, arguments and returns whose
// name contains "key"), string-keyed map index expressions, and — in
// PathSinkPackages — file-path arguments, where a tainted operand alone is
// reported even without a join. strconv.Itoa/Format* results and %d/%q
// verbs stay exempt: numbers and quoted strings cannot smuggle a separator.
var Cachekey = &Analyzer{
	Name: "cachekey",
	Doc: "cache keys must not join attacker-controllable strings with " +
		"printable separators; use \\x00/\\x01 separators or safekey.Join " +
		"(the PR 4 JICache aliasing bug); flows through helpers are followed",
}

// Run is attached in init: runCachekey reaches ByName (through
// Pass.SuppressedAt → parseSuppressions), which closes an initialization
// cycle back to Cachekey if referenced from the literal.
func init() { Cachekey.Run = runCachekey }

func runCachekey(pass *Pass) error {
	seg := lastSegment(pass.Pkg.Path())
	keyPkg := CacheKeyPackages[seg]
	pathPkg := PathSinkPackages[seg]
	if !keyPkg && !pathPkg {
		return nil
	}
	fl := pass.Flow()
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		var funcStack []*ast.FuncDecl
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				funcStack = append(funcStack, n)
			case *ast.AssignStmt:
				if !keyPkg {
					break
				}
				for i, lhs := range n.Lhs {
					if !keyShapedExpr(lhs) {
						continue
					}
					if i < len(n.Rhs) {
						checkKeyExpr(pass, fl, n.Rhs[i])
					} else if len(n.Rhs) == 1 {
						checkKeyExpr(pass, fl, n.Rhs[0])
					}
				}
			case *ast.CallExpr:
				if keyPkg {
					checkKeyArgs(pass, fl, n)
				}
				if pathPkg {
					checkPathArgs(pass, fl, n)
				}
			case *ast.IndexExpr:
				if keyPkg && stringKeyedMap(pass.TypeOf(n.X)) {
					checkKeyExpr(pass, fl, n.Index)
				}
			case *ast.ReturnStmt:
				if keyPkg && len(funcStack) > 0 && keyShapedName(funcStack[len(funcStack)-1].Name.Name) {
					for _, r := range n.Results {
						checkKeyExpr(pass, fl, r)
					}
				}
			}
			return true
		})
	}
	return nil
}

func keyShapedName(name string) bool {
	return strings.Contains(strings.ToLower(name), "key")
}

func keyShapedExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return keyShapedName(e.Name)
	case *ast.SelectorExpr:
		return keyShapedName(e.Sel.Name)
	case *ast.IndexExpr:
		return keyShapedExpr(e.X)
	}
	return false
}

// stringKeyedMap reports whether t is a map type whose key is string-ish —
// the index expression of such a map is a cache-key sink.
func stringKeyedMap(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	b, ok := m.Key().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkKeyArgs checks call arguments bound to parameters whose name
// contains "key".
func checkKeyArgs(pass *Pass, fl *Flow, call *ast.CallExpr) {
	f := calleeFunc(pass.TypesInfo, call)
	if f == nil {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi >= sig.Params().Len() {
			break
		}
		if keyShapedName(sig.Params().At(pi).Name()) {
			checkKeyExpr(pass, fl, arg)
		}
	}
}

// pathSinkFuncs are the stdlib calls whose string arguments name filesystem
// paths. For filepath.Join every argument is a path component; for the os
// functions only the first argument is.
var pathSinkFuncs = map[string]bool{
	"path/filepath.Join": true,
	"os.Create":          true,
	"os.Open":            true,
	"os.ReadFile":        true,
	"os.WriteFile":       true,
	"os.MkdirAll":        true,
	"os.Remove":          true,
	"os.RemoveAll":       true,
}

// checkPathArgs checks file-path arguments (PathSinkPackages only): a
// printable join aliases two paths just like a cache key, and a tainted
// operand alone can traverse out of the data directory.
func checkPathArgs(pass *Pass, fl *Flow, call *ast.CallExpr) {
	f := calleeFunc(pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	qualified := f.Pkg().Path() + "." + f.Name()
	//dancevet:ignore cachekey import paths and func names come from compiled source, not an adversary
	if !pathSinkFuncs[qualified] {
		return
	}
	args := call.Args
	if f.Pkg().Path() == "os" && len(args) > 1 {
		args = args[:1]
	}
	for _, arg := range args {
		ops := fl.Flatten(arg)
		if reportPrintableJoins(pass, arg, ops, "file path") {
			continue
		}
		for _, op := range ops {
			if op.Taint != "" {
				pass.Reportf(arg.Pos(),
					"file path includes %s without sanitization: a hostile name "+
						"containing separators or \"..\" can alias or escape the data "+
						"directory; hash the name or use safekey.Join%s",
					op.Taint, viaClause(op))
				break
			}
		}
	}
}

func checkKeyExpr(pass *Pass, fl *Flow, e ast.Expr) {
	reportPrintableJoins(pass, e, fl.Flatten(e), "cache key")
}

// reportPrintableJoins scans the flattened composition for two dynamic
// operands whose intervening constant text is non-empty and entirely
// printable, and reports the first such join with its provenance.
func reportPrintableJoins(pass *Pass, site ast.Expr, ops []Op, what string) bool {
	var left *Op
	sep := ""
	via := ""
	var sepPos token.Pos
	for i := range ops {
		op := &ops[i]
		if !op.Dynamic {
			if left != nil {
				if sep == "" && op.Sep != "" {
					sepPos = op.Pos
				}
				sep += op.Sep
				if op.Via != "" {
					via = op.Via
				}
			}
			continue
		}
		if left != nil && sep != "" && printable(sep) {
			// A directive at the join's origin covers every flow through it
			// (one suppression at the helper, not one per call site).
			if pass.SuppressedAt(pass.Analyzer.Name, sepPos) {
				left = op
				sep = ""
				via = ""
				continue
			}
			if via == "" {
				via = firstVia(left, op)
			}
			extra := ""
			if via != "" {
				extra += " (flows through " + via + ")"
			}
			if t := firstTaint(left, op); t != "" {
				extra += " (operand is " + t + ")"
			}
			pass.Reportf(site.Pos(),
				"%s joins two attacker-controllable strings with printable separator %q: "+
					"hostile dataset/attribute names can alias two different keys "+
					"(PR 4 JICache bug); separate with \\x00/\\x01 or use safekey.Join%s",
				what, sep, extra)
			return true
		}
		left = op
		sep = ""
		via = ""
	}
	return false
}

func firstVia(ops ...*Op) string {
	for _, op := range ops {
		if op != nil && op.Via != "" {
			return op.Via
		}
	}
	return ""
}

func firstTaint(ops ...*Op) string {
	for _, op := range ops {
		if op != nil && op.Taint != "" {
			return op.Taint
		}
	}
	return ""
}

func viaClause(op Op) string {
	if op.Via == "" {
		return ""
	}
	return " (flows through " + op.Via + ")"
}

// numericSafeCall reports calls whose string result cannot contain a chosen
// separator byte: number formatting and quoting.
func numericSafeCall(f *types.Func) bool {
	if f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "strconv":
		switch f.Name() {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "FormatBool", "Quote", "QuoteToASCII":
			return true
		}
	}
	return false
}

// printable reports whether every byte of s is in the printable ASCII
// range — the property that makes a separator spoofable by a hostile name.
func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0x7f {
			return false
		}
	}
	return len(s) > 0
}
