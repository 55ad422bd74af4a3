package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Lockguard checks `// guarded by <mu>` field annotations: an annotated
// field may only be read with its mutex at least read-held and only written
// with it exclusively held, within the function being analyzed. This is the
// PR 1/PR 2 race class — the joingraph price memo was a bare map hit by
// every MCMC chain, and Dance's middleware state raced under concurrent
// Acquire — encoded so the next cache or service field added without
// synchronization fails CI instead of the race detector's dice roll.
//
// The analysis is a pragmatic linear walk, not a full flow analysis:
//
//   - lock state is tracked per access path (`s.mu` and `c.shards[i].mu`
//     are distinct guards) through if/else, switch, select, for and range,
//     merging branches conservatively (a lock held on only one arm counts
//     as not held after the join; a branch ending in return/panic does not
//     leak its state past the join).
//   - `defer mu.Unlock()` keeps the lock held for the rest of the function.
//   - function literals started with `go` are checked with *no* locks held
//     — the goroutine does not inherit the spawner's critical section.
//   - locally constructed values (x := &T{...} / var x T) are exempt until
//     published: constructors may initialize annotated fields freely.
//
// sync.RWMutex read locks satisfy reads only; writes require Lock.
var Lockguard = &Analyzer{
	Name: "lockguard",
	Doc: "fields annotated `// guarded by <mu>` must be read with the mutex " +
		"(R)Locked and written with it exclusively Locked in the enclosing function",
	Run: runLockguard,
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// lockState is the privilege held on one guard along the current path.
type lockState int

const (
	lockNone lockState = iota
	lockShared
	lockExcl
)

func runLockguard(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, guards: guards, fresh: map[types.Object]bool{}}
			w.walkStmt(fd.Body, entryState(fd, guards))
		}
	}
	return nil
}

// entryState builds a function's initial lock state. A method whose name
// ends in "Locked" declares the caller-holds-the-lock convention (the repo
// follows the runtime's xLocked idiom), so every guard is assumed
// exclusively held on the receiver for its body.
func entryState(fd *ast.FuncDecl, guards map[types.Object]string) state {
	st := state{locks: map[string]lockState{}}
	if !strings.HasSuffix(fd.Name.Name, "Locked") || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return st
	}
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return st
	}
	recv := names[0].Name
	seen := map[string]bool{}
	for _, guard := range guards {
		if !seen[guard] {
			seen[guard] = true
			st.locks[recv+"\x00"+guard] = lockExcl
		}
	}
	return st
}

// collectGuards maps each annotated field object to its guard field name.
func collectGuards(pass *Pass) map[types.Object]string {
	guards := make(map[types.Object]string)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				guard := guardAnnotation(field)
				if guard == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = guard
					}
				}
			}
			return true
		})
	}
	return guards
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// state is the lock privileges held along one control-flow path, keyed by
// "<base expression>\x00<guard field>".
type state struct {
	locks      map[string]lockState
	terminated bool
}

func (s state) clone() state {
	c := state{locks: make(map[string]lockState, len(s.locks)), terminated: s.terminated}
	for k, v := range s.locks {
		c.locks[k] = v
	}
	return c
}

// merge keeps, per guard, the weakest privilege of the two paths.
func merge(a, b state) state {
	out := state{locks: map[string]lockState{}}
	for k, v := range a.locks {
		if bv, ok := b.locks[k]; ok {
			if bv < v {
				v = bv
			}
			out.locks[k] = v
		}
	}
	return out
}

type lockWalker struct {
	pass   *Pass
	guards map[types.Object]string
	// fresh marks locally constructed, not-yet-published values whose
	// annotated fields may be touched lock-free (constructors).
	fresh map[types.Object]bool
}

// walkStmt interprets one statement, returning the post-state.
func (w *lockWalker) walkStmt(stmt ast.Stmt, st state) state {
	switch s := stmt.(type) {
	case nil:
		return st
	case *ast.BlockStmt:
		for _, inner := range s.List {
			st = w.walkStmt(inner, st)
		}
		return st
	case *ast.ExprStmt:
		return w.walkExpr(s.X, st, false)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			st = w.walkExpr(rhs, st, false)
		}
		if s.Tok == token.DEFINE {
			w.markFresh(s)
		}
		for _, lhs := range s.Lhs {
			st = w.walkExpr(lhs, st, true)
		}
		return st
	case *ast.IncDecStmt:
		return w.walkExpr(s.X, st, true)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					st = w.walkExpr(v, st, false)
				}
				// `var x T` declares a fresh, unshared value.
				for _, name := range vs.Names {
					if obj := w.pass.TypesInfo.Defs[name]; obj != nil {
						w.fresh[obj] = true
					}
				}
			}
		}
		return st
	case *ast.IfStmt:
		st = w.walkStmt(s.Init, st)
		st = w.walkExpr(s.Cond, st, false)
		thenSt := w.walkStmt(s.Body, st.clone())
		elseSt := st
		if s.Else != nil {
			elseSt = w.walkStmt(s.Else, st.clone())
		}
		switch {
		case thenSt.terminated && elseSt.terminated:
			st.terminated = true
			return st
		case thenSt.terminated:
			return elseSt
		case elseSt.terminated:
			return thenSt
		default:
			return merge(thenSt, elseSt)
		}
	case *ast.ForStmt:
		st = w.walkStmt(s.Init, st)
		st = w.walkExpr(s.Cond, st, false)
		body := w.walkStmt(s.Body, st.clone())
		w.walkStmt(s.Post, body)
		// The body may run zero times; lock effects inside do not survive.
		return st
	case *ast.RangeStmt:
		st = w.walkExpr(s.X, st, false)
		w.walkStmt(s.Body, st.clone())
		return st
	case *ast.SwitchStmt:
		st = w.walkStmt(s.Init, st)
		st = w.walkExpr(s.Tag, st, false)
		return w.walkCases(s.Body, st)
	case *ast.TypeSwitchStmt:
		st = w.walkStmt(s.Init, st)
		st = w.walkStmt(s.Assign, st)
		return w.walkCases(s.Body, st)
	case *ast.SelectStmt:
		return w.walkCases(s.Body, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.walkExpr(r, st, false)
		}
		st.terminated = true
		return st
	case *ast.BranchStmt:
		st.terminated = true
		return st
	case *ast.DeferStmt:
		// defer mu.Unlock() releases at return: the lock stays held for the
		// remainder of this walk. Deferred closures are checked against the
		// current state without propagating their effects.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmt(lit.Body, st.clone())
		} else {
			for _, a := range s.Call.Args {
				st = w.walkExpr(a, st, false)
			}
			w.checkAccessExpr(s.Call.Fun, st, false)
		}
		return st
	case *ast.GoStmt:
		// A spawned goroutine does not hold the spawner's locks.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmt(lit.Body, state{locks: map[string]lockState{}})
		}
		for _, a := range s.Call.Args {
			st = w.walkExpr(a, st, false)
		}
		return st
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.SendStmt:
		st = w.walkExpr(s.Chan, st, false)
		return w.walkExpr(s.Value, st, false)
	default:
		return st
	}
}

func (w *lockWalker) walkCases(body *ast.BlockStmt, st state) state {
	var exits []state
	anyDefault := false
	for _, c := range body.List {
		entry := st.clone()
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				anyDefault = true
			}
			for _, e := range cc.List {
				entry = w.walkExpr(e, entry, false)
			}
			for _, s := range cc.Body {
				entry = w.walkStmt(s, entry)
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				anyDefault = true
			}
			entry = w.walkStmt(cc.Comm, entry)
			for _, s := range cc.Body {
				entry = w.walkStmt(s, entry)
			}
		}
		if !entry.terminated {
			exits = append(exits, entry)
		}
	}
	if !anyDefault {
		exits = append(exits, st) // no case may match
	}
	if len(exits) == 0 {
		st.terminated = true
		return st
	}
	out := exits[0]
	for _, e := range exits[1:] {
		out = merge(out, e)
	}
	return out
}

// walkExpr checks accesses inside e and applies lock/unlock effects, in
// source order. write marks e itself as a write target.
func (w *lockWalker) walkExpr(e ast.Expr, st state, write bool) state {
	switch e := e.(type) {
	case nil:
		return st
	case *ast.CallExpr:
		for _, a := range e.Args {
			st = w.walkExpr(a, st, false)
		}
		if op, base, guard := w.lockOp(e); op != "" {
			key := base + "\x00" + guard
			switch op {
			case "Lock":
				st.locks[key] = lockExcl
			case "RLock":
				st.locks[key] = lockShared
			case "Unlock", "RUnlock":
				delete(st.locks, key)
			}
			return st
		}
		// A method call on a guarded struct may itself lock; we only check
		// direct field accesses, so just descend into the callee expression
		// for embedded accesses (e.g. m[s.f] handled above via Args).
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			st = w.walkExpr(sel.X, st, false)
		}
		if lit, ok := e.Fun.(*ast.FuncLit); ok {
			w.walkStmt(lit.Body, st.clone())
		}
		return st
	case *ast.FuncLit:
		// A literal not immediately invoked may run later under unknown
		// locking; check it against the current state without effects.
		w.walkStmt(e.Body, st.clone())
		return st
	case *ast.BinaryExpr:
		st = w.walkExpr(e.X, st, false)
		return w.walkExpr(e.Y, st, false)
	case *ast.UnaryExpr:
		// Taking the address of a guarded field leaks it; treat as write.
		return w.walkExpr(e.X, st, write || e.Op == token.AND)
	case *ast.ParenExpr:
		return w.walkExpr(e.X, st, write)
	case *ast.StarExpr:
		return w.walkExpr(e.X, st, write)
	case *ast.SelectorExpr:
		w.checkAccessExpr(e, st, write)
		return w.walkExpr(e.X, st, false)
	case *ast.IndexExpr:
		st = w.walkExpr(e.X, st, write)
		return w.walkExpr(e.Index, st, false)
	case *ast.SliceExpr:
		st = w.walkExpr(e.X, st, write)
		st = w.walkExpr(e.Low, st, false)
		st = w.walkExpr(e.High, st, false)
		return w.walkExpr(e.Max, st, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			st = w.walkExpr(el, st, false)
		}
		return st
	case *ast.KeyValueExpr:
		return w.walkExpr(e.Value, st, false)
	case *ast.TypeAssertExpr:
		return w.walkExpr(e.X, st, false)
	default:
		return st
	}
}

// lockOp recognizes <base>.<guard>.Lock/RLock/Unlock/RUnlock() and returns
// the operation, the base path and the guard field name.
func (w *lockWalker) lockOp(call *ast.CallExpr) (op, base, guard string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", ""
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	return sel.Sel.Name, types.ExprString(ast.Unparen(inner.X)), inner.Sel.Name
}

// checkAccessExpr reports e when it accesses an annotated field without the
// required privilege.
func (w *lockWalker) checkAccessExpr(e ast.Expr, st state, write bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := w.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	// A field selected through an instantiated generic type is a distinct
	// object; its Origin is the declared (annotated) field.
	obj := selection.Obj()
	if v, isVar := obj.(*types.Var); isVar {
		obj = v.Origin()
	}
	guard, ok := w.guards[obj]
	if !ok {
		return
	}
	base := ast.Unparen(sel.X)
	if id := rootIdent(base); id != nil {
		if obj := w.pass.ObjectOf(id); obj != nil && w.fresh[obj] {
			return // locally constructed, not yet shared (includes c.shards[i].m)
		}
	}
	key := types.ExprString(base) + "\x00" + guard
	held := st.locks[key]
	field := selection.Obj().Name()
	if write && held < lockExcl {
		w.pass.Reportf(sel.Pos(),
			"write to %s.%s, guarded by %s, without holding it exclusively "+
				"(%s.Lock; RLock is not enough for writes) — PR 1/PR 2 race class",
			types.ExprString(base), field, guard, guard)
		return
	}
	if !write && held < lockShared {
		w.pass.Reportf(sel.Pos(),
			"read of %s.%s, guarded by %s, without holding it "+
				"(%s.RLock or %s.Lock) — PR 1/PR 2 race class",
			types.ExprString(base), field, guard, guard, guard)
	}
}

// markFresh records LHS variables of a := definition whose RHS constructs a
// new value (composite literal, new(T), or a constructor-style call
// returning a pointer is *not* assumed fresh — it may return shared state).
func (w *lockWalker) markFresh(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := w.pass.TypesInfo.Defs[id]
		if obj == nil {
			continue
		}
		if constructsFresh(s.Rhs[i]) {
			w.fresh[obj] = true
		}
	}
}

// rootIdent resolves an access path (c.shards[i], (*p).f) to its leftmost
// identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func constructsFresh(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}
