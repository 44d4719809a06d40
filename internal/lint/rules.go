package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// inspect walks every file of the package.
func inspect(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}

// perPackage adapts a package-scoped syntactic check to the module-wide Rule
// shape: the check runs over every package matching the scope.
func perPackage(scope []string, check func(pkg *Package, rep *reporter)) func(*Module, *reporter) {
	return func(m *Module, rep *reporter) {
		for _, pkg := range m.Pkgs {
			if matchPackage(pkg.Path, scope) {
				check(pkg, rep)
			}
		}
	}
}

// ---- map-order ----

func ruleMapOrder() *Rule {
	return &Rule{
		Name:  "map-order",
		Doc:   "flag map iteration whose body feeds simulation results (schedules, appends, RNG draws, state writes)",
		check: perPackage(simPackages, checkMapOrder),
	}
}

func checkMapOrder(pkg *Package, rep *reporter) {
	inspect(pkg, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if isKeyCollection(pkg, rs) {
			return true
		}
		if why := orderSensitive(pkg, rs.Body); why != "" {
			rep.reportf(rs.Pos(),
				"map iteration order is nondeterministic and this body %s; iterate over sorted keys instead, or add //lint:ignore map-order reason: <why> if the effect is provably order-independent",
				why)
		}
		return true
	})
}

// isKeyCollection recognizes the one canonically safe shape, collecting keys
// for subsequent sorting:
//
//	for k := range m { keys = append(keys, k) }
//
// The body must be a single append of the range variables back onto the same
// slice.
func isKeyCollection(pkg *Package, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Tok != token.ASSIGN {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(pkg, call.Fun, "append") || len(call.Args) < 2 || call.Ellipsis != token.NoPos {
		return false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok || pkg.Info.ObjectOf(dst) == nil || pkg.Info.ObjectOf(dst) != pkg.Info.ObjectOf(lhs) {
		return false
	}
	for _, arg := range call.Args[1:] {
		if !isRangeVar(pkg, rs, arg) {
			return false
		}
	}
	return true
}

func isRangeVar(pkg *Package, rs *ast.RangeStmt, expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pkg.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if vid, ok := v.(*ast.Ident); ok && pkg.Info.ObjectOf(vid) == obj {
			return true
		}
	}
	return false
}

func isBuiltin(pkg *Package, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// schedulerMethods are method names that enqueue simulation events.
var schedulerMethods = map[string]bool{
	"Schedule": true, "ScheduleAfter": true, "ScheduleAt": true, "Burst": true,
}

// orderSensitive classifies a map-range body: it returns a short description
// of the first order-sensitive effect found, or "" when the body looks
// order-independent (pure reads, local counters).
func orderSensitive(pkg *Package, body *ast.BlockStmt) string {
	var why string
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltin(pkg, n.Fun, "append"):
				why = "appends to a slice (element order will vary run to run)"
			case isBuiltin(pkg, n.Fun, "delete"):
				why = "mutates a map mid-iteration"
			case isSchedulerCall(pkg, n):
				why = "schedules events (event sequence numbers will vary run to run)"
			case consumesRNG(pkg, n):
				why = "consumes random numbers (the stream advances in varying order)"
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isNonLocalTarget(lhs) {
					why = "writes through a selector or index (mutating shared state in varying order)"
				}
			}
		case *ast.IncDecStmt:
			if isNonLocalTarget(n.X) {
				why = "writes through a selector or index (mutating shared state in varying order)"
			}
		case *ast.SendStmt:
			why = "sends on a channel"
		case *ast.ReturnStmt:
			if len(n.Results) > 0 {
				why = "returns a value chosen by iteration order"
			}
		}
		return why == ""
	})
	return why
}

func isSchedulerCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !schedulerMethods[sel.Sel.Name] {
		return false
	}
	// Only method calls count (a package-level helper named Schedule in a
	// non-sim package would be caught when that package is linted).
	_, isMethod := pkg.Info.Selections[sel]
	return isMethod
}

// consumesRNG reports whether the call's receiver or any argument is a
// random stream (*xrand.Source or *rand.Rand).
func consumesRNG(pkg *Package, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if isRNGType(pkg.Info.TypeOf(sel.X)) {
			return true
		}
	}
	for _, arg := range call.Args {
		if isRNGType(pkg.Info.TypeOf(arg)) {
			return true
		}
	}
	return false
}

func isRNGType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkgName, typeName := named.Obj().Pkg().Name(), named.Obj().Name()
	return (pkgName == "xrand" && typeName == "Source") ||
		(pkgName == "rand" && typeName == "Rand")
}

// isNonLocalTarget reports whether an assignment target reaches beyond a
// plain local variable (field writes, map/slice element writes, pointer
// dereferences) — the shapes that can leak iteration order into shared state.
func isNonLocalTarget(expr ast.Expr) bool {
	switch expr.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// ---- float-accum ----

func ruleFloatAccum() *Rule {
	return &Rule{
		Name: "float-accum",
		Doc:  "flag ==/!= between floating-point expressions in metric/statistics code",
		check: perPackage(floatPackages,
			func(pkg *Package, rep *reporter) {
				inspect(pkg, func(n ast.Node) bool {
					be, ok := n.(*ast.BinaryExpr)
					if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
						return true
					}
					if !isFloatExpr(pkg, be.X) || !isFloatExpr(pkg, be.Y) {
						return true
					}
					// Comparing against an exact constant (0, 1, math.Inf) is the
					// conventional sentinel-check idiom and stays legal; only
					// variable-to-variable equality is flagged.
					if isConstExpr(pkg, be.X) || isConstExpr(pkg, be.Y) {
						return true
					}
					rep.reportf(be.OpPos,
						"%s between accumulated floating-point values rarely means exact equality; compare with a tolerance, or add //lint:ignore float-accum reason: <why> if exactness is intended",
						be.Op)
					return true
				})
			}),
	}
}

func isFloatExpr(pkg *Package, expr ast.Expr) bool {
	t := pkg.Info.TypeOf(expr)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConstExpr(pkg *Package, expr ast.Expr) bool {
	tv, ok := pkg.Info.Types[expr]
	return ok && tv.Value != nil
}
