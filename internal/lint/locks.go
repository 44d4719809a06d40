package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ruleLockDiscipline checks //guardedby:<mutex> annotations on struct
// fields: every access to an annotated field must happen while the named
// sibling mutex is held on the same base value. The analysis complements the
// race detector — it runs on every push over every path, not just the
// schedules the race tests happen to exercise.
//
// Lock state is tracked linearly through each function body: X.Lock() /
// X.RLock() sets the lock held, X.Unlock() / X.RUnlock() clears it, a
// deferred Unlock keeps it held to function end, and branch joins keep a
// lock only when every falling-through path holds it.
//
// Conventions honored (the repo's existing idiom):
//   - methods whose name ends in "Locked" assume the lock is held; their
//     bodies are exempt, and instead every CALL to one is checked to occur
//     with the receiver's guarding mutex held;
//   - values freshly built from a composite literal in the same function
//     (constructors) are exempt — nothing else can see them yet;
//   - function literals (deferred, goroutine, stored callbacks) are analyzed
//     as separate bodies starting with no locks held.
func ruleLockDiscipline() *Rule {
	return &Rule{
		Name: "lock-discipline",
		Doc:  "check //guardedby:<mutex> struct-field annotations against per-function lock-state analysis",
		check: func(m *Module, rep *reporter) {
			la := &lockAnalysis{
				rep:     rep,
				guarded: make(map[*types.Var]string),
				structs: make(map[*types.TypeName]map[string]bool),
			}
			for _, pkg := range m.Pkgs {
				la.collectAnnotations(pkg)
			}
			if len(la.guarded) == 0 {
				return
			}
			for _, fn := range m.funcs {
				la.pkg = fn.pkg
				la.checkFunc(fn.decl)
			}
		},
	}
}

type lockAnalysis struct {
	rep *reporter
	pkg *Package
	// guarded maps an annotated field object to its guarding mutex name.
	guarded map[*types.Var]string
	// structs maps a struct type to the set of mutex names guarding fields,
	// for the *Locked-call check.
	structs map[*types.TypeName]map[string]bool

	// Per-function state.
	fnName string
	fresh  map[types.Object]bool
}

// collectAnnotations parses //guardedby:<name> comments on struct fields and
// validates that the named mutex exists in the same struct.
func (la *lockAnalysis) collectAnnotations(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, _ := pkg.Info.ObjectOf(ts.Name).(*types.TypeName)
			for _, field := range st.Fields.List {
				mutex := fieldAnnotation(field)
				if mutex == "" {
					continue
				}
				if !structHasMutex(pkg, st, mutex) {
					la.rep.reportf(field.Pos(),
						"//guardedby:%s names no sync.Mutex/sync.RWMutex field of struct %s; fix the annotation",
						mutex, ts.Name.Name)
					continue
				}
				for _, name := range field.Names {
					if v, ok := pkg.Info.ObjectOf(name).(*types.Var); ok {
						la.guarded[v] = mutex
						if tn != nil {
							if la.structs[tn] == nil {
								la.structs[tn] = make(map[string]bool)
							}
							la.structs[tn][mutex] = true
						}
					}
				}
			}
			return true
		})
	}
}

// fieldAnnotation extracts the mutex name from a field's //guardedby:
// comment (doc line above or trailing same-line comment).
func fieldAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if rest, ok := strings.CutPrefix(text, "guardedby:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					return fields[0]
				}
			}
		}
	}
	return ""
}

// structHasMutex reports whether the struct literally declares a mutex field
// with the given name.
func structHasMutex(pkg *Package, st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name == name {
				return isMutexType(pkg.Info.TypeOf(field.Type))
			}
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// lockSet tracks which mutexes are held, keyed by the rendered base path.
type lockSet map[string]bool

func (ls lockSet) clone() lockSet {
	out := make(lockSet, len(ls))
	for k := range ls {
		out[k] = true
	}
	return out
}

func (la *lockAnalysis) checkFunc(fd *ast.FuncDecl) {
	name := fd.Name.Name
	if strings.HasSuffix(name, "Locked") {
		return // assumes the lock; call sites are checked instead
	}
	la.fnName = name
	la.fresh = make(map[types.Object]bool)
	la.collectFresh(fd.Body)
	la.block(fd.Body.List, make(lockSet))
}

// collectFresh records locals bound to composite literals (or their address)
// anywhere in the body: freshly constructed values no other goroutine can
// reach yet.
func (la *lockAnalysis) collectFresh(body *ast.BlockStmt) {
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		e := ast.Unparen(rhs)
		if ue, isAddr := e.(*ast.UnaryExpr); isAddr {
			e = ast.Unparen(ue.X)
		}
		if _, isLit := e.(*ast.CompositeLit); isLit {
			if obj := la.pkg.Info.ObjectOf(id); obj != nil {
				la.fresh[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					bind(name, n.Values[i])
				}
			}
		}
		return true
	})
}

// block walks a statement list threading the lock set; reports guarded-field
// accesses made without the required lock. Returns true when the list cannot
// fall through.
func (la *lockAnalysis) block(stmts []ast.Stmt, held lockSet) bool {
	for _, s := range stmts {
		if la.stmt(s, held) {
			return true
		}
	}
	return false
}

func (la *lockAnalysis) stmt(s ast.Stmt, held lockSet) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return la.block(s.List, held)
	case *ast.ExprStmt:
		if key, op := lockOp(la.pkg, s.X); op != "" {
			if op == "lock" {
				held[key] = true
			} else {
				delete(held, key)
			}
			return false
		}
		la.scan(s.X, held)
		return isTerminalCall(s.X)
	case *ast.DeferStmt:
		if _, op := lockOp(la.pkg, s.Call); op == "unlock" {
			return false // deferred Unlock: held to function end
		}
		la.scan(s.Call, held)
		return false
	case *ast.GoStmt:
		la.scan(s.Call, held)
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			la.scan(r, held)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			la.scan(e, held)
		}
		for _, e := range s.Lhs {
			la.scan(e, held)
		}
		return false
	case *ast.IncDecStmt:
		la.scan(s.X, held)
		return false
	case *ast.DeclStmt:
		la.scan(s.Decl, held)
		return false
	case *ast.SendStmt:
		la.scan(s.Chan, held)
		la.scan(s.Value, held)
		return false
	case *ast.IfStmt:
		if s.Init != nil {
			la.stmt(s.Init, held)
		}
		la.scan(s.Cond, held)
		thenHeld := held.clone()
		thenTerm := la.block(s.Body.List, thenHeld)
		elseHeld := held.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = la.stmt(s.Else, elseHeld)
		}
		// Join: keep a lock only when every falling-through path holds it.
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replace(held, elseHeld)
		case elseTerm:
			replace(held, thenHeld)
		default:
			intersect(held, thenHeld, elseHeld)
		}
		return false
	case *ast.ForStmt:
		if s.Init != nil {
			la.stmt(s.Init, held)
		}
		la.scan(s.Cond, held)
		body := held.clone()
		la.block(s.Body.List, body)
		if s.Post != nil {
			la.stmt(s.Post, body)
		}
		return false
	case *ast.RangeStmt:
		la.scan(s.X, held)
		la.block(s.Body.List, held.clone())
		return false
	case *ast.SwitchStmt:
		if s.Init != nil {
			la.stmt(s.Init, held)
		}
		la.scan(s.Tag, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					la.scan(e, held)
				}
				la.block(cc.Body, held.clone())
			}
		}
		return false
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			la.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				la.block(cc.Body, held.clone())
			}
		}
		return false
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				sub := held.clone()
				if cc.Comm != nil {
					la.stmt(cc.Comm, sub)
				}
				la.block(cc.Body, sub)
			}
		}
		return false
	case *ast.LabeledStmt:
		return la.stmt(s.Stmt, held)
	}
	return false
}

func replace(dst, src lockSet) {
	for k := range dst {
		delete(dst, k)
	}
	for k := range src {
		dst[k] = true
	}
}

func intersect(dst, a, b lockSet) {
	for k := range dst {
		delete(dst, k)
	}
	for k := range a {
		if b[k] {
			dst[k] = true
		}
	}
}

// scan inspects one expression tree for guarded-field accesses and
// *Locked-method calls; nested function literals restart with no locks held.
func (la *lockAnalysis) scan(n ast.Node, held lockSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			la.block(n.Body.List, make(lockSet))
			return false
		case *ast.CallExpr:
			la.checkLockedCall(n, held)
		case *ast.SelectorExpr:
			la.checkAccess(n, held)
		}
		return true
	})
}

// checkAccess verifies one selector expression against the annotations.
func (la *lockAnalysis) checkAccess(sel *ast.SelectorExpr, held lockSet) {
	s, ok := la.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	mutex, guarded := la.guarded[field]
	if !guarded {
		return
	}
	base := sel.X
	if la.isFresh(base) {
		return
	}
	key := la.render(base) + "." + mutex
	if held[key] {
		return
	}
	la.rep.reportf(sel.Sel.Pos(),
		"field %s is //guardedby:%s but accessed in %s without %s.%s held; acquire the lock or move the access into a *Locked method",
		field.Name(), mutex, la.fnName, types.ExprString(base), mutex)
}

// checkLockedCall verifies that calls to *Locked methods of guarded structs
// happen with the guarding mutex held.
func (la *lockAnalysis) checkLockedCall(call *ast.CallExpr, held lockSet) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasSuffix(fun.Sel.Name, "Locked") {
		return
	}
	s, ok := la.pkg.Info.Selections[fun]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	recv := s.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return
	}
	mutexes := la.structs[named.Obj()]
	if len(mutexes) != 1 {
		return // zero or ambiguous guards: nothing checkable
	}
	if la.isFresh(fun.X) {
		return
	}
	var mutex string
	for m := range mutexes {
		mutex = m
	}
	key := la.render(fun.X) + "." + mutex
	if !held[key] {
		la.rep.reportf(fun.Sel.Pos(),
			"%s assumes %s.%s is held (the Locked suffix) but %s calls it without acquiring the lock",
			fun.Sel.Name, types.ExprString(fun.X), mutex, la.fnName)
	}
}

// isFresh reports whether the base expression is rooted at a local freshly
// built from a composite literal in this function.
func (la *lockAnalysis) isFresh(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := la.pkg.Info.ObjectOf(x)
			return obj != nil && la.fresh[obj]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return false
		}
	}
}

// render produces a stable per-function key for a base expression, resolving
// identifiers by object identity so shadowing cannot alias two bases.
func (la *lockAnalysis) render(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := la.pkg.Info.ObjectOf(x); obj != nil {
			return fmt.Sprintf("%s@%p", x.Name, obj)
		}
		return x.Name
	case *ast.SelectorExpr:
		return la.render(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return la.render(x.X) + "[" + types.ExprString(x.Index) + "]"
	case *ast.StarExpr:
		return la.render(x.X)
	case *ast.UnaryExpr:
		return la.render(x.X)
	default:
		return types.ExprString(e)
	}
}

// lockOp classifies X.Lock()/X.RLock() ("lock") and X.Unlock()/X.RUnlock()
// ("unlock") calls on sync mutex values, returning the held-set key.
func lockOp(pkg *Package, e ast.Expr) (key, op string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return "", ""
	}
	if !isMutexType(pkg.Info.TypeOf(sel.X)) {
		return "", ""
	}
	la := &lockAnalysis{pkg: pkg}
	return la.render(sel.X), op
}
