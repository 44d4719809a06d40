package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"omcast/internal/lint"
)

// cmdLint enforces the repository's determinism, simulation-safety and
// input-hardening invariants (see internal/lint). It loads and type-checks
// every package in the module using only the standard library, runs every
// rule over the whole module — atom scope rules plus taint tracking,
// transitive handler purity and lock discipline — and prints the findings in
// the packages the patterns select.
//
//	omcast lint ./...              # lint the whole module
//	omcast lint ./internal/...     # print findings in a subtree only
//	omcast lint -list              # describe the rules
//	omcast lint -stats ./...       # also print per-rule counts and wall time
//
// Exit status: 0 when clean, 1 when findings were printed, 2 on load or
// usage errors. Findings are suppressed in source with
// //lint:ignore <rule> reason: <justification> on the offending line or the
// line above; the stale-suppression audit flags directives that no longer
// silence anything.
func cmdLint(args []string) int {
	fs := newFlags("lint")
	list := fs.Bool("list", false, "list the rules and exit")
	stats := fs.Bool("stats", false, "print per-rule finding counts and wall time to stderr")
	if fs.Parse(args) != nil {
		return 2
	}
	if *list {
		if fs.NArg() > 0 {
			return fail(2, "lint", "-list takes no package patterns (got %q)", fs.Arg(0))
		}
		for _, r := range lint.Rules() {
			fmt.Printf("%-20s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(2, "lint", "%v", err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return fail(2, "lint", "%v", err)
	}
	pkgs, err := lint.Load(root)
	if err != nil {
		return fail(2, "lint", "%v", err)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := selectDirs(pkgs, patterns, cwd)
	if err != nil {
		return fail(2, "lint", "%v", err)
	}

	res := lint.Run(pkgs)
	findings := 0
	for _, d := range res.Diags {
		if !dirs[filepath.Dir(d.Pos.Filename)] {
			continue
		}
		if rel, rerr := filepath.Rel(cwd, d.Pos.Filename); rerr == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
		findings++
	}
	if *stats {
		lint.WriteStats(os.Stderr, res)
	}
	if findings > 0 {
		return fail(1, "lint", "%d finding(s)", findings)
	}
	return 0
}

// selectDirs resolves go-tool-style patterns against the loaded packages —
// "./..." (everything below the pattern's directory), a relative directory,
// or a full import path — to the set of selected package directories.
func selectDirs(pkgs []*lint.Package, patterns []string, cwd string) (map[string]bool, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		matched := false
		for _, pkg := range pkgs {
			if matchPattern(pkg, pat, cwd) {
				matched = true
				dirs[pkg.Dir] = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return dirs, nil
}

func matchPattern(pkg *lint.Package, pat, cwd string) bool {
	recursive := false
	if strings.HasSuffix(pat, "/...") {
		recursive = true
		pat = strings.TrimSuffix(pat, "/...")
		if pat == "" {
			pat = "."
		}
	}
	// Filesystem-relative patterns resolve against the working directory;
	// anything else is treated as an import path (or import-path prefix).
	if pat == "." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../") || filepath.IsAbs(pat) {
		base := pat
		if !filepath.IsAbs(pat) {
			base = filepath.Join(cwd, pat)
		}
		if recursive {
			return pkg.Dir == base || strings.HasPrefix(pkg.Dir, base+string(filepath.Separator))
		}
		return pkg.Dir == base
	}
	if recursive {
		return pkg.Path == pat || strings.HasPrefix(pkg.Path, pat+"/")
	}
	return pkg.Path == pat
}
