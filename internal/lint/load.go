package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("omcast/internal/rost").
	Path string
	// Dir is the absolute source directory.
	Dir string
	// Fset is shared across every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info carry the go/types results the rules consult.
	Types *types.Package
	// Info holds identifier uses and expression types.
	Info *types.Info
}

// loader resolves imports either from the module under analysis (recursively
// loading and type-checking the source directory) or from the standard
// library via go/importer's source-file importer. It implements
// types.Importer.
type loader struct {
	fset   *token.FileSet
	root   string // module root directory
	module string // module path from go.mod ("" for bare fixture trees)
	std    types.Importer
	pkgs   map[string]*Package // keyed by import path
	active map[string]bool     // import-cycle guard
}

func newLoader(root, module string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*Package),
		active: make(map[string]bool),
	}
}

// Import implements types.Importer: module-internal paths load from source,
// everything else falls through to the standard-library importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.moduleRel(path); ok {
		pkg, err := l.load(filepath.Join(l.root, rel), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// moduleRel maps an import path inside the module to a root-relative
// directory.
func (l *loader) moduleRel(path string) (string, bool) {
	if l.module == "" {
		return "", false
	}
	if path == l.module {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
		return filepath.FromSlash(rest), true
	}
	return "", false
}

// load parses and type-checks the package in dir under the given import
// path, memoizing the result.
func (l *loader) load(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		if !fileIncluded(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go sources in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// fileIncluded evaluates a file's build constraint against the analyzer's
// build context: the default build, where no custom tags (race, integration,
// ...) are set. Tag-gated twins like race_on.go are skipped and their
// //go:build !race counterparts linted — the same file set a plain `go build`
// compiles, so constrained pairs don't collide during type-checking.
func fileIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(func(string) bool { return false }) {
				return false
			}
		}
	}
	return true
}

// goSources lists the non-test Go files of dir in sorted order.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Load type-checks every package of the module rooted at root (the directory
// holding go.mod) and returns them sorted by import path. Directories named
// testdata, vendor, or starting with "." or "_" are skipped, matching the go
// tool's conventions.
func Load(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, module)
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// packageDirs walks the tree collecting directories that contain Go sources.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goSources(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			mod = strings.Trim(mod, `"`)
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod, and on through each enclosing module whose path places the inner one
// at its own directory (benchmark/ declares omcast/benchmark inside omcast).
// Load walks such a nested module as part of the outer one, so lint run from
// inside it sees the same module, call graph and suppressions as from the
// outer root.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	var root, rootModule string
	for d := dir; ; d = filepath.Dir(d) {
		if module, err := modulePath(d); err == nil {
			rel, _ := filepath.Rel(d, root)
			if root != "" && rootModule != module+"/"+filepath.ToSlash(rel) {
				break
			}
			root, rootModule = d, module
		}
		if filepath.Dir(d) == d {
			break
		}
	}
	if root == "" {
		return "", fmt.Errorf("lint: no go.mod found above %s", dir)
	}
	return root, nil
}
