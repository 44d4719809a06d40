package lint

import "go/ast"

// flow is the flow-sensitive statement walk wire-taint and lock-discipline
// share. It threads a rule's state S through a function body: each arm of a
// loop, switch or select runs on a clone, and a statement list stops at the
// first statement that cannot fall through. The rule supplies the clone,
// what scanning an expression does, and the statements it interprets itself.
type flow[S any] struct {
	clone func(S) S
	// scan visits one expression or declaration for the rule's findings.
	scan func(S, ast.Node)
	// own interprets the statements the rule handles itself; handled is
	// false for those it leaves to the walk.
	own func(ast.Stmt, S) (term, handled bool)
}

// block walks a statement list; it returns true when the list always
// terminates.
func (f *flow[S]) block(stmts []ast.Stmt, st S) bool {
	for _, s := range stmts {
		if f.stmt(s, st) {
			return true
		}
	}
	return false
}

// stmt walks one statement, which may be nil; it returns true when control
// cannot fall through (return, branch, panic-like call).
func (f *flow[S]) stmt(s ast.Stmt, st S) bool {
	if term, handled := f.own(s, st); handled {
		return term
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return f.block(s.List, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			f.scan(st, r)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		f.scan(st, s.X)
		return isTerminalCall(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			f.scan(st, e)
		}
		for _, e := range s.Lhs {
			f.scan(st, e)
		}
	case *ast.DeclStmt:
		f.scan(st, s.Decl)
	case *ast.DeferStmt:
		f.scan(st, s.Call)
	case *ast.GoStmt:
		f.scan(st, s.Call)
	case *ast.IncDecStmt:
		f.scan(st, s.X)
	case *ast.SendStmt:
		f.scan(st, s.Chan)
		f.scan(st, s.Value)
	case *ast.ForStmt:
		f.stmt(s.Init, st)
		f.scan(st, s.Cond)
		body := f.clone(st)
		f.block(s.Body.List, body)
		f.stmt(s.Post, body)
	case *ast.RangeStmt:
		f.scan(st, s.X)
		f.block(s.Body.List, f.clone(st))
	case *ast.SwitchStmt:
		f.stmt(s.Init, st)
		f.scan(st, s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				f.scan(st, e)
			}
			f.block(cc.Body, f.clone(st))
		}
	case *ast.TypeSwitchStmt:
		f.stmt(s.Init, st)
		for _, c := range s.Body.List {
			f.block(c.(*ast.CaseClause).Body, f.clone(st))
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			arm := f.clone(st)
			f.stmt(cc.Comm, arm)
			f.block(cc.Body, arm)
		}
	case *ast.LabeledStmt:
		return f.stmt(s.Stmt, st)
	}
	return false
}
