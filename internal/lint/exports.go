package lint

import "go/types"

// ---- test-only-export ----

// ruleTestOnlyExport reports exported code that only tests keep alive. Load
// parses no _test.go file, so an exported function or method whose object no
// loaded file's Info.Uses names is read by tests or by nothing. A method that
// implements an interface is exempt: it may be reached through the interface,
// and Info.Uses then names the interface's method, not the concrete one.
func ruleTestOnlyExport() *Rule {
	return &Rule{
		Name:  "test-only-export",
		Doc:   "flag exported functions and methods of non-main packages that no non-test file references",
		check: checkTestOnlyExport,
	}
}

func checkTestOnlyExport(m *Module, rep *reporter) {
	used := make(map[*types.Func]bool)
	for _, pkg := range m.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	var ifaces []*types.Interface
	for _, n := range m.funcs {
		if !n.obj.Exported() || n.pkg.Types.Name() == "main" || used[n.obj] {
			continue
		}
		if recv := n.obj.Type().(*types.Signature).Recv(); recv != nil {
			if ifaces == nil {
				ifaces = declaredInterfaces(m)
			}
			if implementsAny(recv.Type(), n.obj.Name(), ifaces) {
				continue
			}
		}
		rep.reportf(n.decl.Name.Pos(),
			"%s.%s is exported but no non-test file references it; delete it with the tests that only check it, or add //lint:ignore test-only-export reason: <the test or planned reader that needs it>",
			n.pkg.Types.Name(), n.name)
	}
}

// declaredInterfaces returns error and every non-generic, non-empty method-set
// interface declared at package level in the module or in a package it
// imports.
func declaredInterfaces(m *Module) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	add := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, pkg := range m.Pkgs {
		add(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			add(imp)
		}
	}
	return ifaces
}

// implementsAny reports whether the receiver type (through a pointer, whose
// method set holds both receiver kinds) implements an interface that has a
// method of the given name.
func implementsAny(recv types.Type, method string, ifaces []*types.Interface) bool {
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && types.Implements(recv, it) {
				return true
			}
		}
	}
	return false
}
