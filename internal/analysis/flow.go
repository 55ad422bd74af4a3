package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// This file is dancevet's dataflow layer: an SSA-lite per-function IR
// (straight-line value numbering with conservative branch merging — every
// local gets one merged value, chosen by a worst-case score, instead of a
// full SSA construction) plus intraprocedural summaries composed over the
// static call graph. Analyzers reach it through Pass.Flow().
//
// The representation is the flattened string composition []Op: a value is a
// sequence of constant separators and dynamic (possibly adversary-
// controlled) operands. Flatten resolves identifiers through local
// assignments and calls through callee summaries, so
//
//	func compose(a, b string) string { return a + "|" + b }
//	k := compose(name, attr)
//
// flattens k to [dynamic(name), "|", dynamic(attr)] — the cross-function
// flow cachekey v1 could not see. Operands carry taint provenance when they
// originate from a known attacker-controlled source (marketplace/workload
// listing names, HTTP request fields) and a Via label naming the helper the
// flow passed through.
//
// The merge rule is deliberately "may", not "must": when two branches (or
// two assignments, or two return statements) disagree, the layer keeps the
// more dangerous composition. A linter that under-reports on merge would
// let exactly the laundered flows this layer exists for slip through.

// Op is one element of a value's flattened string composition.
type Op struct {
	// Sep is constant text (separator material); meaningful when !Dynamic.
	// Empty-Sep non-dynamic ops are boundaries whose rendered text an
	// adversary cannot control (numbers, quoted strings).
	Sep string
	// Dynamic marks a non-constant string whose content an adversary may
	// control.
	Dynamic bool
	// Param, when ≥ 0, marks the operand as the enclosing function's
	// parameter #Param verbatim — the hook summary substitution uses.
	Param int
	// Taint names the attacker-controlled source the operand derives from
	// ("" when unknown).
	Taint string
	// Via names the helper function the operand flowed through ("" for
	// direct flows).
	Via string
	// Pos locates the operand's origin.
	Pos token.Pos
}

// flowDef is one recorded assignment to a local variable: either a plain
// RHS expression or result #index of a multi-value call.
type flowDef struct {
	rhs   ast.Expr
	call  *ast.CallExpr
	index int
}

const (
	flowUnseen = iota
	flowInProgress
	flowDone
)

// maxFlowDepth bounds summary expansion through helper chains.
const maxFlowDepth = 6

// maxFlowDefs caps how many assignments to one variable the layer merges
// before declaring the value opaque.
const maxFlowDefs = 8

// Flow is the package-level dataflow index. Build it once per Pass via
// Pass.Flow(); all lookups are memoized.
type Flow struct {
	pass *Pass

	// decls maps every function with a body in the package to its decl.
	decls map[*types.Func]*ast.FuncDecl
	// paramOf maps parameter objects to their index in their function.
	paramOf map[types.Object]int
	// assigns records every assignment to a local variable.
	assigns map[types.Object][]flowDef
	// writes records every Write* call on a local strings.Builder, in
	// source order: the builder's String() is their concatenation.
	writes map[types.Object][]*ast.CallExpr

	values     map[types.Object][]Op
	valueState map[types.Object]int

	summaries    map[*types.Func][][]Op
	summaryState map[*types.Func]int
}

// Flow returns the pass's dataflow layer, building it on first use.
func (p *Pass) Flow() *Flow {
	if p.flow == nil {
		p.flow = newFlow(p)
	}
	return p.flow
}

func newFlow(p *Pass) *Flow {
	fl := &Flow{
		pass:         p,
		decls:        make(map[*types.Func]*ast.FuncDecl),
		paramOf:      make(map[types.Object]int),
		assigns:      make(map[types.Object][]flowDef),
		writes:       make(map[types.Object][]*ast.CallExpr),
		values:       make(map[types.Object][]Op),
		valueState:   make(map[types.Object]int),
		summaries:    make(map[*types.Func][][]Op),
		summaryState: make(map[*types.Func]int),
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			f, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fl.decls[f] = fd
			sig := f.Type().(*types.Signature)
			fl.indexParams(fd.Type.Params, sig)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if sig, ok := p.TypeOf(n.Type).(*types.Signature); ok {
					fl.indexParams(n.Type.Params, sig)
				}
			case *ast.AssignStmt:
				fl.recordAssign(n)
			case *ast.CallExpr:
				if obj, m := fl.builderCall(n); obj != nil && strings.HasPrefix(m, "Write") {
					fl.writes[obj] = append(fl.writes[obj], n)
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						fl.record(name, flowDef{rhs: n.Values[i]})
					}
				}
			}
			return true
		})
	}
	return fl
}

func (fl *Flow) indexParams(fields *ast.FieldList, sig *types.Signature) {
	if fields == nil {
		return
	}
	i := 0
	for _, field := range fields.List {
		for _, name := range field.Names {
			if obj := fl.pass.TypesInfo.Defs[name]; obj != nil {
				fl.paramOf[obj] = i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	_ = sig
}

func (fl *Flow) recordAssign(as *ast.AssignStmt) {
	switch {
	case len(as.Lhs) == len(as.Rhs):
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				fl.record(id, flowDef{rhs: as.Rhs[i]})
			}
		}
	case len(as.Rhs) == 1:
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				fl.record(id, flowDef{call: call, index: i})
			}
		}
	}
}

func (fl *Flow) record(id *ast.Ident, def flowDef) {
	obj := fl.pass.ObjectOf(id)
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return // only locals: package-level vars stay opaque
	}
	fl.assigns[obj] = append(fl.assigns[obj], def)
}

// Flatten reduces e to its flattened string composition, resolving local
// variables through their recorded assignments and helper calls through
// their summaries.
func (fl *Flow) Flatten(e ast.Expr) []Op {
	return fl.flatten(e, 0)
}

func (fl *Flow) flatten(e ast.Expr, depth int) []Op {
	e = ast.Unparen(e)
	pass := fl.pass
	// Constant folding first: a constant of any shape is separator text.
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		if tv.Value.Kind() == constant.String {
			return []Op{{Sep: constant.StringVal(tv.Value), Pos: e.Pos()}}
		}
	}
	if depth > maxFlowDepth {
		return fl.dynamicIfString(e, nil)
	}
	switch ex := e.(type) {
	case *ast.BinaryExpr:
		if t := pass.TypeOf(ex); t != nil && ex.Op == token.ADD {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				ops := fl.flatten(ex.X, depth)
				return append(ops, fl.flatten(ex.Y, depth)...)
			}
		}
	case *ast.CallExpr:
		return fl.flattenCall(ex, depth)
	case *ast.Ident:
		return fl.flattenIdent(ex, depth)
	case *ast.SelectorExpr:
		if taint := fl.taintOfSelector(ex); taint != "" {
			return []Op{{Dynamic: true, Param: -1, Taint: taint, Pos: ex.Pos()}}
		}
	}
	return fl.dynamicIfString(e, nil)
}

func (fl *Flow) flattenIdent(id *ast.Ident, depth int) []Op {
	obj := fl.pass.ObjectOf(id)
	if obj == nil {
		return fl.dynamicIfString(id, nil)
	}
	if i, ok := fl.paramOf[obj]; ok {
		op := Op{Dynamic: true, Param: i, Pos: id.Pos()}
		if fl.isStringish(obj.Type()) {
			return []Op{op}
		}
		return nil
	}
	if _, ok := fl.assigns[obj]; ok {
		return fl.valueOf(obj, depth)
	}
	return fl.dynamicIfString(id, nil)
}

// valueOf returns the merged composition of every assignment to obj.
func (fl *Flow) valueOf(obj types.Object, depth int) []Op {
	if ops, ok := fl.values[obj]; ok {
		return cloneOps(ops)
	}
	if fl.valueState[obj] == flowInProgress {
		// Cycle (x = x + s in a loop): opaque dynamic.
		return []Op{{Dynamic: true, Param: -1, Pos: obj.Pos()}}
	}
	fl.valueState[obj] = flowInProgress
	defs := fl.assigns[obj]
	var merged []Op
	if len(defs) > maxFlowDefs {
		merged = []Op{{Dynamic: true, Param: -1, Pos: obj.Pos()}}
	} else {
		for _, def := range defs {
			var ops []Op
			if def.rhs != nil {
				ops = fl.flatten(def.rhs, depth+1)
			} else {
				ops = fl.flattenTupleResult(def.call, def.index, depth+1)
			}
			merged = mergeOps(merged, ops)
		}
	}
	fl.valueState[obj] = flowDone
	fl.values[obj] = merged
	return cloneOps(merged)
}

func (fl *Flow) flattenCall(call *ast.CallExpr, depth int) []Op {
	pass := fl.pass
	f := calleeFunc(pass.TypesInfo, call)
	switch {
	case isPkgFunc(f, "strings", "Join") && len(call.Args) == 2:
		// elems joined by a constant separator: the elems are dynamic; a
		// printable separator between dynamic elements is the bug. Model as
		// dynamic·sep·dynamic.
		if sep, ok := fl.constString(call.Args[1]); ok {
			ops := []Op{{Dynamic: true, Param: -1, Pos: call.Pos()}}
			if sep != "" {
				ops = append(ops, Op{Sep: sep, Pos: call.Pos()})
			}
			return append(ops, Op{Dynamic: true, Param: -1, Pos: call.Pos()})
		}
	case isPkgFunc(f, "fmt", "Sprintf"):
		return fl.flattenSprintf(call, depth)
	case f != nil && f.Pkg() != nil && lastSegment(f.Pkg().Path()) == "safekey":
		// safekey.Join output is injective: a single opaque dynamic operand
		// (joining *it* with printable separators is still flagged — the
		// outer join can alias).
		return []Op{{Dynamic: true, Param: -1, Pos: call.Pos()}}
	case f != nil && numericSafeCall(f):
		// Numbers cannot contain separators; quoted strings escape them.
		return []Op{{Sep: "", Pos: call.Pos()}}
	}
	if obj, m := fl.builderCall(call); obj != nil && m == "String" {
		return fl.flattenBuilder(obj, depth)
	}
	if taint := fl.taintOfCall(call); taint != "" {
		return []Op{{Dynamic: true, Param: -1, Taint: taint, Pos: call.Pos()}}
	}
	if f != nil {
		if ops := fl.expandSummary(f, call, 0, depth); ops != nil {
			return ops
		}
	}
	return fl.dynamicIfString(call, nil)
}

// builderCall reports a method call on a local strings.Builder variable
// (b.WriteString(x), (&b).String(), …): the builder's object and the method
// name, or nil.
func (fl *Flow) builderCall(call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	f := calleeFunc(fl.pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "strings" {
		return nil, ""
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, ""
	}
	if p, ok := recv.Type().(*types.Pointer); !ok {
		return nil, ""
	} else if named, ok := p.Elem().(*types.Named); !ok || named.Obj().Name() != "Builder" {
		return nil, ""
	}
	x := ast.Unparen(sel.X)
	if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
		x = ast.Unparen(u.X)
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, ""
	}
	obj := fl.pass.ObjectOf(id)
	if v, ok := obj.(*types.Var); !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil, "" // only locals, like assignments
	}
	return obj, f.Name()
}

// flattenBuilder is the composition of a local builder's String(): its
// writes in source order. A write inside a loop appears once — the
// separators around it are what matter, not the repetition.
func (fl *Flow) flattenBuilder(obj types.Object, depth int) []Op {
	var ops []Op
	for _, w := range fl.writes[obj] {
		_, m := fl.builderCall(w)
		arg := w.Args[0]
		switch m {
		case "WriteString":
			ops = append(ops, fl.flatten(arg, depth+1)...)
		case "WriteByte", "WriteRune":
			tv := fl.pass.TypesInfo.Types[arg]
			if tv.Value != nil {
				if r, ok := constant.Int64Val(tv.Value); ok {
					ops = append(ops, Op{Sep: string(rune(r)), Pos: arg.Pos()})
					continue
				}
			}
			// A computed byte is a boundary an adversary does not choose.
			ops = append(ops, Op{Sep: "", Pos: arg.Pos()})
		default: // Write([]byte): opaque content
			ops = append(ops, Op{Dynamic: true, Param: -1, Pos: arg.Pos()})
		}
	}
	if ops == nil {
		ops = []Op{}
	}
	return ops
}

// flattenTupleResult resolves result #index of a multi-value call.
func (fl *Flow) flattenTupleResult(call *ast.CallExpr, index, depth int) []Op {
	if f := calleeFunc(fl.pass.TypesInfo, call); f != nil {
		if ops := fl.expandSummary(f, call, index, depth); ops != nil {
			return ops
		}
	}
	sig, ok := fl.pass.TypeOf(call.Fun).(*types.Signature)
	if ok && index < sig.Results().Len() && fl.isStringish(sig.Results().At(index).Type()) {
		return []Op{{Dynamic: true, Param: -1, Pos: call.Pos()}}
	}
	return nil
}

// expandSummary substitutes the call's arguments into the callee's summary
// for result #index. Returns nil when no summary applies (no body in this
// package, opaque result, argument shape mismatch).
func (fl *Flow) expandSummary(f *types.Func, call *ast.CallExpr, index, depth int) []Op {
	if depth >= maxFlowDepth {
		return nil
	}
	results := fl.summaryOf(f, depth)
	if index >= len(results) || results[index] == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil
	}
	// Calling a variadic function, or f(args...) spreading: parameter
	// positions stop lining up with argument positions — stay opaque for
	// any op that refers to a parameter at or past the variadic slot.
	variadicAt := -1
	if sig.Variadic() {
		variadicAt = sig.Params().Len() - 1
	}
	var out []Op
	for _, op := range results[index] {
		// Only dynamic ops can be parameter references: constant separators
		// carry the Param zero value.
		if op.Dynamic && op.Param >= 0 {
			if op.Param < len(call.Args) && (variadicAt < 0 || op.Param < variadicAt) && call.Ellipsis == token.NoPos {
				out = append(out, fl.flatten(call.Args[op.Param], depth+1)...)
			} else {
				out = append(out, Op{Dynamic: true, Param: -1, Pos: call.Pos()})
			}
			continue
		}
		op.Param = -1
		op.Via = f.Name()
		out = append(out, op)
	}
	if out == nil {
		out = []Op{} // non-nil: an empty composition is a summary, not a miss
	}
	return out
}

// summaryOf computes f's per-result string compositions from its return
// statements (closures excluded — their returns are not f's). A nil entry
// means that result is opaque.
func (fl *Flow) summaryOf(f *types.Func, depth int) [][]Op {
	if s, ok := fl.summaries[f]; ok {
		return s
	}
	if fl.summaryState[f] == flowInProgress {
		return nil // recursion: opaque
	}
	fd, ok := fl.decls[f]
	if !ok {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	fl.summaryState[f] = flowInProgress
	results := make([][]Op, sig.Results().Len())
	merge := func(i int, ops []Op) {
		if !fl.isStringish(sig.Results().At(i).Type()) {
			return
		}
		if results[i] == nil {
			results[i] = ops
			return
		}
		results[i] = mergeOps(results[i], ops)
	}
	for _, ret := range returnsOf(fd) {
		switch {
		case len(ret.Results) == sig.Results().Len():
			for i, r := range ret.Results {
				merge(i, fl.flatten(r, depth+1))
			}
		case len(ret.Results) == 0:
			// Bare return with named results: each result variable's merged
			// assignments are its value.
			fl.mergeNamedResults(fd, sig, merge, depth)
		default:
			// return f() forwarding a tuple: opaque.
		}
	}
	fl.summaryState[f] = flowDone
	fl.summaries[f] = results
	return results
}

func (fl *Flow) mergeNamedResults(fd *ast.FuncDecl, sig *types.Signature, merge func(int, []Op), depth int) {
	if fd.Type.Results == nil {
		return
	}
	i := 0
	for _, field := range fd.Type.Results.List {
		for _, name := range field.Names {
			if obj := fl.pass.TypesInfo.Defs[name]; obj != nil {
				if _, assigned := fl.assigns[obj]; assigned {
					merge(i, fl.valueOf(obj, depth+1))
				}
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
}

// returnsOf collects fd's own return statements, skipping closure bodies.
func returnsOf(fd *ast.FuncDecl) []*ast.ReturnStmt {
	var rets []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			rets = append(rets, n)
		}
		return true
	})
	return rets
}

// flattenSprintf models a Sprintf call: literal format chunks are
// separators; %s/%v verbs recurse into their arguments (so helper results
// and locals resolve); numeric and %q/%x verbs are safe boundaries.
func (fl *Flow) flattenSprintf(call *ast.CallExpr, depth int) []Op {
	if len(call.Args) == 0 {
		return fl.dynamicIfString(call, nil)
	}
	format, ok := fl.constString(call.Args[0])
	if !ok {
		return []Op{{Dynamic: true, Param: -1, Pos: call.Pos()}}
	}
	var ops []Op
	argIdx := 1
	lit := strings.Builder{}
	flushLit := func() {
		if lit.Len() > 0 {
			ops = append(ops, Op{Sep: lit.String(), Pos: call.Pos()})
			lit.Reset()
		}
	}
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			lit.WriteByte(format[i])
			continue
		}
		i++
		for i < len(format) && strings.ContainsRune("+-# 0123456789.*", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			break
		}
		verb := format[i]
		if verb == '%' {
			lit.WriteByte('%')
			continue
		}
		dynamic := false
		if (verb == 's' || verb == 'v') && argIdx < len(call.Args) {
			if t := fl.pass.TypeOf(call.Args[argIdx]); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok {
					dynamic = b.Info()&types.IsString != 0
				} else {
					dynamic = true // Stringers render arbitrary text
				}
			}
		}
		flushLit()
		if dynamic {
			ops = append(ops, fl.flatten(call.Args[argIdx], depth+1)...)
		} else if verb != '%' {
			// Rendered text an adversary cannot shape: a boundary.
			ops = append(ops, Op{Sep: "", Pos: call.Pos()})
		}
		argIdx++
	}
	flushLit()
	return ops
}

// taintOfSelector classifies field reads that yield attacker-controlled
// names: dataset/listing identity fields of the marketplace and workload
// packages are seller-supplied free text.
func (fl *Flow) taintOfSelector(sel *ast.SelectorExpr) string {
	selection, ok := fl.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return ""
	}
	obj := selection.Obj()
	if obj.Pkg() == nil || !fl.isStringish(obj.Type()) {
		return ""
	}
	pkg := lastSegment(obj.Pkg().Path())
	if pkg != "marketplace" && pkg != "workload" {
		return ""
	}
	switch obj.Name() {
	case "Name", "Instance", "Dataset":
		owner := namedRecv(selection.Recv())
		if owner == "" {
			owner = pkg
		}
		return "a marketplace listing name (" + owner + "." + obj.Name() + ")"
	}
	return ""
}

// taintOfCall classifies calls that yield shopper-controlled request text:
// the *http.Request accessors danced and marketd read names out of.
func (fl *Flow) taintOfCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	f, _ := fl.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if f == nil || f.Pkg() == nil {
		return ""
	}
	switch f.Pkg().Path() {
	case "net/http":
		switch f.Name() {
		case "FormValue", "PostFormValue", "PathValue":
			return "an HTTP request field (http.Request." + f.Name() + ")"
		}
	case "net/url":
		if f.Name() == "Get" || f.Name() == "Query" {
			return "an HTTP request field (url query)"
		}
	case "net/textproto", "net/http/httputil":
	}
	if f.Name() == "Get" && f.Pkg().Path() == "net/http" {
		return "an HTTP request field (header)"
	}
	return ""
}

func namedRecv(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func (fl *Flow) dynamicIfString(e ast.Expr, taintless []Op) []Op {
	if t := fl.pass.TypeOf(e); t != nil && fl.isStringish(t) {
		return []Op{{Dynamic: true, Param: -1, Pos: e.Pos()}}
	}
	return taintless
}

func (fl *Flow) isStringish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (fl *Flow) constString(e ast.Expr) (string, bool) {
	tv, ok := fl.pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func cloneOps(ops []Op) []Op {
	return append([]Op(nil), ops...)
}

// mergeOps keeps the more dangerous of two compositions (branch-merge /
// multiple-assignment rule): printable-join beats multi-dynamic beats
// dynamic beats constant.
func mergeOps(a, b []Op) []Op {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if opsScore(b) > opsScore(a) {
		return b
	}
	return a
}

// opsScore ranks a composition by how much a cachekey-style analyzer cares
// about it.
func opsScore(ops []Op) int {
	dynamics := 0
	if _, joined := printableJoin(ops); joined {
		return 3
	}
	for _, op := range ops {
		if op.Dynamic {
			dynamics++
		}
	}
	if dynamics >= 2 {
		return 2
	}
	if dynamics == 1 {
		return 1
	}
	return 0
}

// printableJoin scans the composition for two dynamic operands whose
// intervening constant text is non-empty and entirely printable, returning
// that separator.
func printableJoin(ops []Op) (sep string, found bool) {
	seenDynamic := false
	cur := ""
	for _, op := range ops {
		if !op.Dynamic {
			if seenDynamic {
				cur += op.Sep
			}
			continue
		}
		if seenDynamic && cur != "" && printable(cur) {
			return cur, true
		}
		seenDynamic = true
		cur = ""
	}
	return "", false
}

// CalleesOf returns the static same-package callees of fd's body, in source
// order, excluding calls inside `go` statements (they run on another
// goroutine) and closure bodies spawned by them. Used by lockorder's
// summary expansion.
func (fl *Flow) CalleesOf(fd *ast.FuncDecl) []*types.Func {
	var out []*types.Func
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if f := calleeFunc(fl.pass.TypesInfo, n); f != nil {
					if _, ok := fl.decls[f]; ok {
						out = append(out, f)
					}
				}
			}
			return true
		})
	}
	walk(fd.Body)
	return out
}

// DeclOf returns the package-local declaration of f, or nil.
func (fl *Flow) DeclOf(f *types.Func) *ast.FuncDecl { return fl.decls[f] }
