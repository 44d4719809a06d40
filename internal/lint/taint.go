package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ruleWireTaint checks the decode→validate→use discipline for untrusted wire
// input, turning PR 4's validation vocabulary from a convention into a
// checked invariant.
//
// Sources: calls to Decode-prefixed functions of any package named "wire".
// The plain Decode flavor parses AND validates, so its result is trusted as
// soon as the paired error has been observed; Decode*Raw flavors parse only,
// so their results stay tainted until an explicit sanitizer runs.
//
// Sanitizers: observing the error of wire.Validate* applied to the value
// (err := wire.Validate(env); if err != nil {...}), a wire.Valid* boolean
// predicate guarding a branch (if !wire.ValidAddr(a) { return }), or — for
// the plain Decode flavor — observing its own decode error.
//
// Sinks: (1) stores through selectors, indexes or pointers in the packages
// holding protocol state (taintStatePackages); (2) arguments to functions of
// the protocol-decision packages (taintProtocolPackages);
// (3) map/slice index expressions and map deletes, module-wide — an
// attacker-chosen key is memory amplification and probe traffic no matter
// where it lands.
//
// The analysis is interprocedural two ways: a fixpoint over function
// summaries records (a) which functions return unvalidated wire data
// (derived sources) and which return their own parameters (passthrough), and
// (b) which parameters of which functions reach a sink (param sinks,
// transitively). A call passing a tainted value to a param-sink parameter is
// reported at the call site. Functions of the wire packages themselves are
// the trust boundary and get no summaries.
func ruleWireTaint() *Rule {
	return &Rule{
		Name: "wire-taint",
		Doc:  "track unvalidated wire-decode results into protocol state, protocol logic, and map/slice indexes",
		check: func(m *Module, rep *reporter) {
			a := &taintAnalysis{
				summaries: make(map[*types.Func]*taintSummary),
				derived:   make(map[*types.Func]string),
			}
			a.walk = flow[taintState]{clone: taintState.clone, scan: a.scanExpr, own: a.own}
			// Summary fixpoint: param sinks, passthrough and derived sources
			// propagate through call chains until stable. When callers are
			// declared before callees a round lifts a param sink only one
			// call level, so no fixed round count suffices; the loop ends
			// because summaries only ever add keys to finite maps.
			for a.changed = true; a.changed; {
				a.changed = false
				a.pass(m, true, nil)
			}
			a.pass(m, false, rep)
		},
	}
}

// taintVal is the provenance of one tainted value.
type taintVal struct {
	// desc names the origin for diagnostics.
	desc string
	// errObj, when set, is the decode error whose observation sanitizes the
	// value (the plain-Decode contract, or a bound wire.Validate result).
	errObj types.Object
	// paramIdx >= 0 marks summary-mode taint seeded from a parameter.
	paramIdx int
}

// taintState maps in-scope objects to their taint.
type taintState map[types.Object]*taintVal

func (st taintState) clone() taintState {
	out := make(taintState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// taintSummary is the interprocedural record for one function.
type taintSummary struct {
	// paramSinks maps a parameter index to a description of the sink that
	// parameter (transitively) reaches.
	paramSinks map[int]string
	// passthrough marks parameters returned (still tainted) to the caller.
	passthrough map[int]bool
}

type taintAnalysis struct {
	summaries map[*types.Func]*taintSummary
	derived   map[*types.Func]string
	changed   bool
	walk      flow[taintState]

	// Per-pass fields.
	summaryMode bool
	rep         *reporter
	pkg         *Package
	fn          *types.Func
	cur         *taintSummary
}

// pass runs one sweep over every declared function body in the module.
func (a *taintAnalysis) pass(m *Module, summaryMode bool, rep *reporter) {
	a.summaryMode, a.rep = summaryMode, rep
	for _, fn := range m.funcs {
		a.pkg, a.fn = fn.pkg, fn.obj
		st := make(taintState)
		if summaryMode {
			if isWireFunc(fn.obj) {
				continue // the trust boundary itself
			}
			a.cur = &taintSummary{paramSinks: make(map[int]string), passthrough: make(map[int]bool)}
			sig := fn.obj.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				st[p] = &taintVal{desc: "parameter " + p.Name(), paramIdx: i}
			}
		}
		a.walk.block(fn.decl.Body.List, st)
		if summaryMode {
			a.mergeSummary(fn.obj)
		}
	}
}

func (a *taintAnalysis) mergeSummary(fn *types.Func) {
	old := a.summaries[fn]
	if old == nil {
		if len(a.cur.paramSinks) > 0 || len(a.cur.passthrough) > 0 {
			a.summaries[fn] = a.cur
			a.changed = true
		}
		return
	}
	for i, d := range a.cur.paramSinks {
		if _, ok := old.paramSinks[i]; !ok {
			old.paramSinks[i] = d
			a.changed = true
		}
	}
	for i := range a.cur.passthrough {
		if !old.passthrough[i] {
			old.passthrough[i] = true
			a.changed = true
		}
	}
}

// isWireFunc reports whether fn belongs to a package named "wire".
func isWireFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "wire"
}

// sourceCall classifies a call as a wire decode source. raw sources need an
// explicit sanitizer; non-raw (full Decode) sources are clean once their
// error result is observed.
func (a *taintAnalysis) sourceCall(call *ast.CallExpr) (desc string, raw, ok bool) {
	fn := staticCallee(a.pkg, call)
	if fn == nil {
		return "", false, false
	}
	if isWireFunc(fn) && strings.HasPrefix(fn.Name(), "Decode") {
		if strings.HasSuffix(fn.Name(), "Raw") {
			return fmt.Sprintf("wire.%s result, parse-only and never validated", fn.Name()), true, true
		}
		return fmt.Sprintf("wire.%s result used before its error is checked", fn.Name()), false, true
	}
	if d, isDerived := a.derived[fn]; isDerived {
		return d, true, true
	}
	return "", false, false
}

// decodeInto returns the variable a decode source fills through its first
// argument, &env, when the call returns nothing but its error; nil for a
// decode that returns what it parsed.
func (a *taintAnalysis) decodeInto(call *ast.CallExpr) types.Object {
	sig, ok := a.pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Results().Len() != 1 || len(call.Args) == 0 {
		return nil
	}
	u, ok := call.Args[0].(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	if id, ok := u.X.(*ast.Ident); ok {
		return a.pkg.Info.ObjectOf(id)
	}
	return nil
}

// sanitizerKind classifies wire.Valid* calls: "err" for Validate* returning
// error, "bool" for Valid* predicates returning bool.
func (a *taintAnalysis) sanitizerKind(call *ast.CallExpr) string {
	fn := staticCallee(a.pkg, call)
	if fn == nil || !isWireFunc(fn) || !strings.HasPrefix(fn.Name(), "Valid") {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return ""
	}
	switch t := sig.Results().At(0).Type(); {
	case types.Identical(t, types.Universe.Lookup("error").Type()):
		return "err"
	case types.Identical(t, types.Typ[types.Bool]):
		return "bool"
	}
	return ""
}

// taintedObjs returns the state objects referenced by expr (the tainted
// values flowing through it), skipping nested function literals.
func (a *taintAnalysis) taintedObjs(st taintState, expr ast.Expr) []types.Object {
	if expr == nil {
		return nil
	}
	var out []types.Object
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if id, isIdent := n.(*ast.Ident); isIdent {
			obj := a.pkg.Info.ObjectOf(id)
			if obj != nil {
				if _, tainted := st[obj]; tainted {
					out = append(out, obj)
				}
			}
		}
		return true
	})
	return out
}

func (a *taintAnalysis) taintOf(st taintState, expr ast.Expr) *taintVal {
	objs := a.taintedObjs(st, expr)
	if len(objs) == 0 {
		return nil
	}
	return st[objs[0]]
}

// sink reports (report mode) or records (summary mode, param-derived taint)
// one tainted flow into a sink.
func (a *taintAnalysis) sink(st taintState, pos token.Pos, v *taintVal, sinkDesc, advice string) {
	if v == nil {
		return
	}
	if a.summaryMode {
		if v.paramIdx >= 0 {
			if _, ok := a.cur.paramSinks[v.paramIdx]; !ok {
				a.cur.paramSinks[v.paramIdx] = sinkDesc
			}
		}
		return
	}
	if v.paramIdx >= 0 {
		return // param taint never seeds the report pass
	}
	a.rep.reportf(pos, "unvalidated wire input (%s) %s; %s", v.desc, sinkDesc, advice)
}

// scanExpr looks for sinks inside one syntax tree and walks nested function
// literals with a snapshot of the current state.
func (a *taintAnalysis) scanExpr(st taintState, root ast.Node) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			a.walk.block(n.Body.List, st.clone())
			return false
		case *ast.IndexExpr:
			if v := a.taintOf(st, n.Index); v != nil {
				a.sink(st, n.Index.Pos(), v, "used as a map/slice index",
					"an attacker chooses this key; validate the envelope first (wire.Validate or the decode error)")
			}
		case *ast.CallExpr:
			a.scanCallSinks(st, n)
		}
		return true
	})
}

// scanCallSinks checks one call expression's arguments against the sink
// vocabulary: map deletes, protocol-package calls, and param-sink summaries.
func (a *taintAnalysis) scanCallSinks(st taintState, call *ast.CallExpr) {
	if isBuiltin(a.pkg, call.Fun, "delete") && len(call.Args) == 2 {
		if v := a.taintOf(st, call.Args[1]); v != nil {
			a.sink(st, call.Args[1].Pos(), v, "used as a map delete key",
				"an attacker chooses this key; validate the envelope first")
		}
		return
	}
	fn := staticCallee(a.pkg, call)
	if fn == nil || isWireFunc(fn) {
		return // sanitizer/source calls are not sinks
	}
	if fn.Pkg() != nil && matchPackage(fn.Pkg().Path(), taintProtocolPackages) {
		for _, arg := range call.Args {
			if v := a.taintOf(st, arg); v != nil {
				a.sink(st, arg.Pos(), v,
					fmt.Sprintf("passed into protocol logic %s.%s", fn.Pkg().Name(), fn.Name()),
					"recovery and switching decisions must only see validated envelopes")
				return
			}
		}
		return
	}
	if sum := a.summaries[fn]; sum != nil {
		for i, arg := range call.Args {
			if i >= len(call.Args) {
				break
			}
			if desc, isSink := sum.paramSinks[i]; isSink {
				if v := a.taintOf(st, arg); v != nil {
					a.sink(st, arg.Pos(), v,
						fmt.Sprintf("passed to %s, where parameter %d is %s", fn.Name(), i, desc),
						"validate before the value crosses into state-touching helpers")
					return
				}
			}
		}
	}
}

// own interprets the statements whose effect on taint the shared walk cannot
// know: returns (summaries), assignments and declarations (bindings), ifs
// (sanitizing facts) and ranges (element taint).
func (a *taintAnalysis) own(s ast.Stmt, st taintState) (term, handled bool) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			a.scanExpr(st, r)
			if a.summaryMode {
				a.recordReturn(st, r)
			}
		}
		return true, true
	case *ast.AssignStmt:
		a.assign(st, s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						a.scanExpr(st, vs.Values[i])
						a.bindIdent(st, name, a.taintOf(st, vs.Values[i]))
					}
				}
			}
		}
	case *ast.IfStmt:
		return a.ifStmt(st, s), true
	case *ast.RangeStmt:
		a.scanExpr(st, s.X)
		body := st.clone()
		if v := a.taintOf(st, s.X); v != nil {
			// Ranging over tainted data taints the element bindings.
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok {
					a.bindIdent(body, id, v)
				}
			}
		}
		a.walk.block(s.Body.List, body)
	default:
		return false, false
	}
	return false, true
}

// recordReturn notes (summary mode) that a tainted value escapes to the
// caller: param passthrough or a derived source.
func (a *taintAnalysis) recordReturn(st taintState, r ast.Expr) {
	v := a.taintOf(st, r)
	if v == nil {
		return
	}
	if v.paramIdx >= 0 {
		a.cur.passthrough[v.paramIdx] = true
		return
	}
	if v.errObj != nil {
		// Re-returning a Decode result alongside its error is the
		// attribution contract (wire.Decode itself does it); the caller's
		// own error check sanitizes, so this is not a derived source.
		return
	}
	if _, ok := a.derived[a.fn]; !ok {
		a.derived[a.fn] = fmt.Sprintf("unvalidated wire value returned by %s", a.fn.Name())
		a.changed = true
	}
}

// assign scans both sides for sinks, then updates bindings.
func (a *taintAnalysis) assign(st taintState, s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		a.scanExpr(st, r)
	}
	for _, l := range s.Lhs {
		a.scanExpr(st, l)
	}
	// Store sinks: a tainted RHS written through a selector/index/pointer in
	// a protocol-state package.
	if matchPackage(a.pkg.Path, taintStatePackages) {
		for i, l := range s.Lhs {
			if !isNonLocalTarget(l) {
				continue
			}
			var v *taintVal
			if len(s.Rhs) == len(s.Lhs) {
				v = a.taintOf(st, s.Rhs[i])
			} else if len(s.Rhs) == 1 {
				v = a.taintOf(st, s.Rhs[0])
			}
			if v != nil {
				a.sink(st, l.Pos(), v, "stored into shared protocol state",
					"validate the envelope before any of it lands in node state")
			}
		}
	}
	a.bind(st, s.Lhs, s.Rhs)
}

// bind updates taint bindings for one assignment.
func (a *taintAnalysis) bind(st taintState, lhs, rhs []ast.Expr) {
	if len(rhs) == 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			a.bindCall(st, lhs, call)
			return
		}
		// Tuple-free or comma-ok forms: v, ok := m[k] / x.(T) — taint flows
		// into the first binding only (the ok/err slot is a clean boolean).
		v := a.taintOf(st, rhs[0])
		for i, l := range lhs {
			if id, ok := l.(*ast.Ident); ok {
				if i == 0 {
					a.bindIdent(st, id, v)
				} else {
					a.bindIdent(st, id, nil)
				}
			}
		}
		return
	}
	for i, l := range lhs {
		var v *taintVal
		if i < len(rhs) {
			v = a.taintOf(st, rhs[i])
		}
		if id, ok := l.(*ast.Ident); ok {
			a.bindIdent(st, id, v)
		}
	}
}

// bindCall handles the call-result binding forms: sources, sanitizers,
// passthrough summaries, and the append builtin; all other call results are
// treated as clean (a documented false-negative edge — taint does not
// launder through untracked calls, see DESIGN.md §13).
func (a *taintAnalysis) bindCall(st taintState, lhs []ast.Expr, call *ast.CallExpr) {
	if desc, raw, isSrc := a.sourceCall(call); isSrc {
		v := &taintVal{desc: desc, paramIdx: -1}
		// A decode into the caller's value, err := wire.DecodeX(&env, ...),
		// taints env and returns only the error.
		into := a.decodeInto(call)
		rest := lhs[1:]
		if into != nil {
			rest = lhs
		}
		if !raw && len(rest) == 1 {
			if errID, ok := rest[0].(*ast.Ident); ok {
				v.errObj = a.pkg.Info.ObjectOf(errID)
			}
		}
		if into != nil {
			st[into] = v
		} else if id, ok := lhs[0].(*ast.Ident); ok {
			a.bindIdent(st, id, v)
		}
		for _, l := range rest {
			if id, ok := l.(*ast.Ident); ok && a.pkg.Info.ObjectOf(id) != v.errObj {
				a.bindIdent(st, id, nil)
			}
		}
		return
	}
	if a.sanitizerKind(call) == "err" && len(lhs) == 1 {
		// err := wire.Validate(env): observing err sanitizes env.
		if errID, ok := lhs[0].(*ast.Ident); ok {
			errObj := a.pkg.Info.ObjectOf(errID)
			for _, obj := range a.argObjs(st, call) {
				st[obj] = &taintVal{desc: st[obj].desc, errObj: errObj, paramIdx: st[obj].paramIdx}
			}
			a.bindIdent(st, errID, nil)
		}
		return
	}
	var v *taintVal
	if isBuiltin(a.pkg, call.Fun, "append") {
		v = a.taintOf(st, call)
	} else if fn := staticCallee(a.pkg, call); fn != nil {
		if sum := a.summaries[fn]; sum != nil {
			for i, arg := range call.Args {
				if sum.passthrough[i] {
					if av := a.taintOf(st, arg); av != nil {
						v = av
						break
					}
				}
			}
		}
	}
	for i, l := range lhs {
		if id, ok := l.(*ast.Ident); ok {
			if i == 0 {
				a.bindIdent(st, id, v)
			} else {
				a.bindIdent(st, id, nil)
			}
		}
	}
}

// argObjs collects the tainted objects referenced by a call's arguments.
func (a *taintAnalysis) argObjs(st taintState, call *ast.CallExpr) []types.Object {
	var out []types.Object
	for _, arg := range call.Args {
		out = append(out, a.taintedObjs(st, arg)...)
	}
	return out
}

func (a *taintAnalysis) bindIdent(st taintState, id *ast.Ident, v *taintVal) {
	if id.Name == "_" {
		return
	}
	obj := a.pkg.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	if v == nil {
		delete(st, obj)
		return
	}
	st[obj] = v
}

// ifStmt handles branch-sensitive sanitization: error observations and
// wire.Valid* predicates clear taint on the branch where the check passed,
// and past the whole statement when the failing branch cannot fall through.
func (a *taintAnalysis) ifStmt(st taintState, s *ast.IfStmt) bool {
	a.walk.stmt(s.Init, st)
	a.scanExpr(st, s.Cond)
	trueClean, falseClean := a.condFacts(st, s.Cond)
	thenSt := st.clone()
	clearAll(thenSt, trueClean)
	thenTerm := a.walk.block(s.Body.List, thenSt)
	var elseTerm bool
	if s.Else != nil {
		elseSt := st.clone()
		clearAll(elseSt, falseClean)
		elseTerm = a.walk.stmt(s.Else, elseSt)
	}
	switch {
	case s.Else == nil:
		if thenTerm {
			// if bad { return }: fallthrough implies the cond was false.
			clearAll(st, falseClean)
		}
		return false
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		clearAll(st, falseClean)
		return false
	case elseTerm:
		clearAll(st, trueClean)
		return false
	default:
		return false
	}
}

func clearAll(st taintState, objs []types.Object) {
	for _, o := range objs {
		delete(st, o)
	}
}

// condFacts derives sanitization facts from a branch condition: the objects
// known clean when the condition is true, and when it is false.
func (a *taintAnalysis) condFacts(st taintState, cond ast.Expr) (trueClean, falseClean []types.Object) {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			fc, tc := a.condFacts(st, c.X)
			return tc, fc
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			// Both conjuncts held when true; nothing known when false.
			xt, _ := a.condFacts(st, c.X)
			yt, _ := a.condFacts(st, c.Y)
			return append(xt, yt...), nil
		case token.LOR:
			// Nothing known when true; both disjuncts failed when false.
			_, xf := a.condFacts(st, c.X)
			_, yf := a.condFacts(st, c.Y)
			return nil, append(xf, yf...)
		case token.EQL, token.NEQ:
			other, ok := nilComparand(c)
			if !ok {
				return nil, nil
			}
			var objs []types.Object
			switch o := ast.Unparen(other).(type) {
			case *ast.Ident:
				// err ==/!= nil where err sanitizes bound values.
				errObj := a.pkg.Info.ObjectOf(o)
				if errObj == nil {
					return nil, nil
				}
				for obj, v := range st {
					if v.errObj == errObj {
						objs = append(objs, obj)
					}
				}
			case *ast.CallExpr:
				// wire.Validate(env) ==/!= nil inline.
				if a.sanitizerKind(o) == "err" {
					objs = a.argObjs(st, o)
				}
			}
			if c.Op == token.EQL { // == nil: check passed on the true branch
				return objs, nil
			}
			return nil, objs // != nil: check passed on the false branch
		}
	case *ast.CallExpr:
		if a.sanitizerKind(c) == "bool" {
			return a.argObjs(st, c), nil
		}
	}
	return nil, nil
}

// nilComparand returns the non-nil side of a comparison against nil.
func nilComparand(c *ast.BinaryExpr) (ast.Expr, bool) {
	if isNilIdent(c.X) {
		return c.Y, true
	}
	if isNilIdent(c.Y) {
		return c.X, true
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isTerminalCall recognizes calls that never return (panic, os.Exit,
// log.Fatal*), treated as terminators for branch joins.
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return (x.Name == "os" && fun.Sel.Name == "Exit") ||
				(x.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"))
		}
	}
	return false
}
