package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// ---- write-only-field ----

// ruleWriteOnlyField reports dead data: an unexported field of a named struct
// type that the module assigns, increments or appends to itself, but never
// reads. Tests count as readers. Load parses no _test.go file, so the rule
// parses each package's test files itself. It matches what they read by field
// name only, so a test that reads any field of that name keeps the field.
func ruleWriteOnlyField() *Rule {
	return &Rule{
		Name:  "write-only-field",
		Doc:   "flag unexported struct fields that the module, tests included, writes but never reads",
		check: checkWriteOnlyField,
	}
}

// field is one write-only-field candidate: where it is declared, and whether
// the module writes and reads it.
type field struct {
	pos           token.Pos
	dir           string // the declaring package's directory
	owner         string // pkg.Type
	name          string
	written, read bool
}

func checkWriteOnlyField(m *Module, rep *reporter) {
	fields := make(map[*types.Var]*field)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if v, ok := pkg.Info.Defs[id].(*types.Var); ok && !v.Exported() {
								fields[v] = &field{pos: id.Pos(), dir: pkg.Dir, owner: pkg.Types.Name() + "." + ts.Name.Name, name: id.Name}
							}
						}
					}
				}
				return true
			})
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			fieldRefs(f, func(id *ast.Ident, write bool) {
				v, ok := pkg.Info.Uses[id].(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				if fd := fields[v.Origin()]; fd != nil {
					fd.written = fd.written || write
					fd.read = fd.read || !write
				}
			})
		}
	}
	// Run sorts the findings, so the map's order does not reach the output.
	testReads := make(map[string]map[string]bool) // package dir -> field names its tests read
	for _, fd := range fields {
		if !fd.written || fd.read {
			continue
		}
		if testReads[fd.dir] == nil {
			testReads[fd.dir] = testFieldReads(fd.dir)
		}
		if !testReads[fd.dir][fd.name] {
			rep.reportf(fd.pos,
				"%s.%s is written but never read, tests included; delete it, or add //lint:ignore write-only-field reason: <its reader>",
				fd.owner, fd.name)
		}
	}
}

// fieldRefs calls ref with the selected identifier of every selector
// expression in f and the key of every keyed composite-literal element, and
// whether that reference only writes: the target of an assignment (x.f += v
// included) or an increment, a literal's key, or the x.f inside
// x.f = append(x.f, ...). Every other reference reads, x.f[i] = v included.
func fieldRefs(f *ast.File, ref func(id *ast.Ident, write bool)) {
	writes := make(map[ast.Expr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				writes[ast.Unparen(lhs)] = true
				if n.Tok != token.ASSIGN || len(n.Rhs) != len(n.Lhs) {
					continue
				}
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 {
					if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
						writes[ast.Unparen(call.Args[0])] = true
					}
				}
			}
		case *ast.IncDecStmt:
			writes[ast.Unparen(n.X)] = true
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				ref(id, true)
			}
		case *ast.SelectorExpr:
			ref(n.Sel, writes[n])
		}
		return true
	})
}

// testFieldReads returns the names of the fields the _test.go files in dir
// read, by selected name. Unparsable test files are skipped: the compiler
// reports them.
func testFieldReads(dir string) map[string]bool {
	reads := make(map[string]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return reads
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		fieldRefs(f, func(id *ast.Ident, write bool) {
			if !write {
				reads[id.Name] = true
			}
		})
	}
	return reads
}
