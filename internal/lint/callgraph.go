package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Module is one analysis unit: every loaded package, the index of its
// declared functions, the atoms of every file and the conservative
// intra-module call graph over them, all built by one walk in newModule. All
// packages of one Module must come from a single Load/LoadDir call (they
// share a FileSet).
type Module struct {
	// Pkgs are the loaded packages, sorted by import path.
	Pkgs []*Package

	// funcs indexes every declared function or method with a body, in
	// package, file and declaration order. wire-taint and lock-discipline
	// walk these bodies; they are also the call graph's declared nodes.
	funcs []*fnNode
	// roots are the handler-shaped functions: declared ones in funcs order,
	// then handler literals in walk order.
	roots []*fnNode
	byObj map[*types.Func]*fnNode
	// methodsByName indexes module methods for interface-call resolution.
	methodsByName map[string][]*fnNode
	// atoms are every file's atoms in walk order, inside function
	// bodies or not.
	atoms []atom
}

// atomKind classifies the atoms the scope rules and handler-purity filter.
type atomKind int

const (
	atomWallclock  atomKind = iota // time.Now / time.Since / timers
	atomGlobalRand                 // package-level math/rand call
	atomCryptoRand                 // crypto/rand entropy
	atomGo                         // go statement
	atomSelect                     // select statement
	atomSend                       // channel send
	atomRecv                       // channel receive
	atomChanType                   // channel type
	atomSync                       // sync or sync/atomic identifier
	atomMapOrder                   // map range with an order-sensitive body
	atomFloatEq                    // ==/!= between two non-constant floats
)

// atom is one occurrence of a classified construct.
type atom struct {
	kind atomKind
	pos  token.Pos
	// text names the offending construct for diagnostics ("time.Now"), or
	// for atomMapOrder the body's order-sensitive effect.
	text string
	pkg  *Package
}

// wallclockFuncs are the time functions that read or observe the wall clock
// (or create wall-clock-driven timers). Pure-value helpers such as
// time.Duration arithmetic, time.Unix and the formatting API stay legal.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the package-level math/rand functions backed by the
// shared global source. Constructors (New, NewSource, NewZipf) remain legal:
// seeded *rand.Rand streams are exactly what internal/xrand threads through
// the simulation.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions, should the module ever migrate.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

// atomOf is the analyzer's one syntax classifier: it decides whether a node
// reads the wall clock, draws global or hardware entropy, uses concurrency,
// ranges over a map with an order-sensitive body, or compares two floats
// exactly (reported at the operator).
func atomOf(pkg *Package, n ast.Node) (atom, bool) {
	a := atom{pos: n.Pos(), pkg: pkg}
	switch n := n.(type) {
	case *ast.GoStmt:
		a.kind, a.text = atomGo, "go statement"
	case *ast.SelectStmt:
		a.kind, a.text = atomSelect, "select statement"
	case *ast.SendStmt:
		a.kind, a.text = atomSend, "channel send"
	case *ast.UnaryExpr:
		if n.Op != token.ARROW {
			return a, false
		}
		a.kind, a.text = atomRecv, "channel receive"
	case *ast.ChanType:
		a.kind, a.text = atomChanType, "channel type"
	case *ast.RangeStmt:
		if a.text = mapOrderEffect(pkg, n); a.text == "" {
			return a, false
		}
		a.kind = atomMapOrder
	case *ast.BinaryExpr:
		if !isFloatEq(pkg, n) {
			return a, false
		}
		a.kind, a.text, a.pos = atomFloatEq, n.Op.String(), n.OpPos
	case *ast.SelectorExpr:
		switch p, name := pkgNameUse(pkg, n.X), n.Sel.Name; {
		case p == "time" && wallclockFuncs[name]:
			a.kind, a.text = atomWallclock, "time."+name
		case (p == "math/rand" || p == "math/rand/v2") && globalRandFuncs[name]:
			a.kind, a.text = atomGlobalRand, "rand."+name
		case p == "crypto/rand":
			a.kind, a.text = atomCryptoRand, "crypto/rand."+name
		case p == "sync" || p == "sync/atomic":
			a.kind, a.text = atomSync, "sync."+name
		default:
			return a, false
		}
	default:
		return a, false
	}
	return a, true
}

// pkgNameUse resolves an expression to the import path of the package it
// names, or "" when the expression is not a package qualifier.
func pkgNameUse(pkg *Package, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// fnNode is one function in the call graph: a declared function or method,
// or a handler-shaped function literal (which gets its own node because it is
// a reachability root). Bodies of non-handler literals are attributed to their
// enclosing function — a closure is almost always called by its creator, and
// when it is instead stored and invoked elsewhere the attribution stays
// conservative (reachable-from-creator), never unsound for the creator chain.
type fnNode struct {
	pkg *Package
	// decl and obj are nil for handler literals.
	decl *ast.FuncDecl
	obj  *types.Func
	// name is the display name used in call-path diagnostics.
	name    string
	atoms   []atom
	calls   []*fnNode
	callSet map[*fnNode]bool
}

func (f *fnNode) addCall(callee *fnNode) {
	if callee == nil || callee == f || f.callSet[callee] {
		return
	}
	if f.callSet == nil {
		f.callSet = make(map[*fnNode]bool)
	}
	f.callSet[callee] = true
	f.calls = append(f.calls, callee)
}

// newModule indexes the declared functions, then walks every file once,
// recording atoms and call edges.
//
// Edges come from three resolutions:
//   - direct calls to module functions and methods (via Info.Uses);
//   - interface method calls, resolved to every module method with the same
//     name and an identical signature (supersets the true dynamic targets);
//   - calls through non-handler function literals, folded into the enclosing
//     function's node.
//
// Known false-negative edge: a function VALUE passed around and called via a
// plain identifier (f := pick(); f()) produces no edge — tracking value flow
// of function objects is out of scope. DESIGN.md §13 documents this.
func newModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:          pkgs,
		byObj:         make(map[*types.Func]*fnNode),
		methodsByName: make(map[string][]*fnNode),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.ObjectOf(fd.Name).(*types.Func)
				if !ok {
					continue
				}
				n := &fnNode{pkg: pkg, decl: fd, obj: obj, name: displayName(obj)}
				m.funcs = append(m.funcs, n)
				m.byObj[obj] = n
				if isHandlerSig(obj.Type()) {
					m.roots = append(m.roots, n)
				}
				if fd.Recv != nil {
					m.methodsByName[obj.Name()] = append(m.methodsByName[obj.Name()], n)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var owner *fnNode
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					obj, _ := pkg.Info.ObjectOf(fd.Name).(*types.Func)
					owner = m.byObj[obj]
				}
				m.walk(pkg, decl, owner)
			}
		}
	}
	return m
}

// walk records the atoms under root, attributing them and the calls made to
// owner (nil outside any function: package-level initializers, type
// declarations). A handler literal becomes a root owning its own body.
func (m *Module) walk(pkg *Package, root ast.Node, owner *fnNode) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && isHandlerSig(pkg.Info.TypeOf(lit)) {
			h := &fnNode{pkg: pkg, name: fmt.Sprintf("handler literal at line %d", pkg.Fset.Position(lit.Pos()).Line)}
			m.roots = append(m.roots, h)
			m.walk(pkg, lit.Type, owner)
			m.walk(pkg, lit.Body, h)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && owner != nil {
			for _, callee := range m.resolveCall(pkg, call) {
				owner.addCall(callee)
			}
		}
		if a, ok := atomOf(pkg, n); ok {
			m.atoms = append(m.atoms, a)
			if owner != nil {
				owner.atoms = append(owner.atoms, a)
			}
		}
		return true
	})
}

// staticCallee resolves a call's static target, if any: a package-level
// function, a concrete method, or an interface method.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// resolveCall maps a call expression to its possible module-internal targets.
func (m *Module) resolveCall(pkg *Package, call *ast.CallExpr) []*fnNode {
	fn := staticCallee(pkg, call)
	if fn == nil {
		return nil
	}
	if n := m.byObj[fn]; n != nil {
		return []*fnNode{n}
	}
	// Interface method: any module method with the same name and an
	// identical signature could be the dynamic target.
	if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel, isSel := pkg.Info.Selections[fun]; isSel && sel.Kind() == types.MethodVal {
			return m.matchingMethods(fn)
		}
	}
	return nil
}

// matchingMethods returns module methods matching an interface method's name
// and signature (receiver excluded from the comparison).
func (m *Module) matchingMethods(iface *types.Func) []*fnNode {
	want, ok := iface.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*fnNode
	for _, cand := range m.methodsByName[iface.Name()] {
		sig, ok := cand.obj.Type().(*types.Signature)
		if !ok {
			continue
		}
		if types.Identical(sig.Params(), want.Params()) && types.Identical(sig.Results(), want.Results()) {
			out = append(out, cand)
		}
	}
	return out
}

// displayName renders a function for call-path diagnostics: Name for
// package-level functions, (*T).Name / T.Name for methods.
func displayName(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return obj.Name()
	}
	t := sig.Recv().Type()
	star := ""
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
		star = "*"
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return fmt.Sprintf("(%s%s).%s", star, named.Obj().Name(), obj.Name())
	}
	return obj.Name()
}
