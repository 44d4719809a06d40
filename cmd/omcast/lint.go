package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"omcast/internal/lint"
)

// cmdLint enforces the repository's determinism, simulation-safety and
// input-hardening invariants (see internal/lint). It loads and type-checks
// every package in the module using only the standard library, builds the
// module call graph, runs the typed rule set — syntactic scope rules plus
// taint tracking, transitive handler purity and lock discipline — and
// reports diagnostics.
//
//	omcast lint ./...              # lint the whole module
//	omcast lint ./internal/...     # lint a subtree
//	omcast lint -list              # describe the rules
//	omcast lint -enable wire-taint ./...
//	omcast lint -disable map-order ./...
//	omcast lint -format sarif -o lint.sarif ./...
//	omcast lint -stats ./...
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on load or
// usage errors. Findings are suppressed in source with
// //lint:ignore <rule> reason: <justification> on the offending line or the
// line above; the stale-suppression audit (full-rule-set runs only) flags
// directives that no longer silence anything.
func cmdLint(args []string) int {
	fs := newFlags("lint")
	list := fs.Bool("list", false, "list the rules and exit")
	enable := fs.String("enable", "", "comma-separated rule names to run exclusively")
	disable := fs.String("disable", "", "comma-separated rule names to skip")
	format := fs.String("format", "text", "output format: text, json, sarif")
	outPath := fs.String("o", "", "write findings to this file instead of stdout")
	stats := fs.Bool("stats", false, "print per-rule finding counts and wall time to stderr")
	statsJSON := fs.String("stats-json", "", "write per-rule statistics as JSON to this file")
	if fs.Parse(args) != nil {
		return 2
	}
	if *list {
		for _, r := range lint.Rules() {
			fmt.Printf("%-20s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	cfg := lint.DefaultConfig()
	var err error
	if cfg.Enabled, err = splitRules(*enable, "-enable"); err != nil {
		return fail(2, "lint", "%v", err)
	}
	if cfg.Disabled, err = splitRules(*disable, "-disable"); err != nil {
		return fail(2, "lint", "%v", err)
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		return fail(2, "lint", "unknown -format %q (want text, json or sarif)", *format)
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
	selected, err := selectPackages(pkgs, patterns, cwd)
	if err != nil {
		return fail(2, "lint", "%v", err)
	}

	res := lint.RunAnalysis(selected, cfg)

	if *outPath == "" {
		*outPath = "-"
	}
	err = writeTo(*outPath, func(out io.Writer) error {
		switch *format {
		case "json":
			return lint.WriteJSON(out, res.Diags, root)
		case "sarif":
			return lint.WriteSARIF(out, res.Diags, root)
		}
		for _, d := range res.Diags {
			file := d.Pos.Filename
			if rel, rerr := filepath.Rel(cwd, file); rerr == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
			fmt.Fprintf(out, "%s:%d: %s: %s\n", file, d.Pos.Line, d.Rule, d.Message)
		}
		return nil
	})
	if err != nil {
		return fail(2, "lint", "%v", err)
	}

	if *stats {
		lint.WriteStats(os.Stderr, res)
	}
	if *statsJSON != "" {
		err := writeTo(*statsJSON, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(struct {
				TotalMillis float64         `json:"total_ms"`
				Rules       []lint.RuleStat `json:"rules"`
			}{res.TotalMillis, res.Stats})
		})
		if err != nil {
			return fail(2, "lint", "%v", err)
		}
	}
	if len(res.Diags) > 0 {
		return fail(1, "lint", "%d finding(s)", len(res.Diags))
	}
	return 0
}

// splitRules parses a comma-separated rule list, rejecting unknown names.
func splitRules(s, flagName string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	known := make(map[string]bool)
	for _, name := range lint.RuleNames() {
		known[name] = true
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			if !known[name] {
				return nil, fmt.Errorf("unknown rule %q in %s (see -list)", name, flagName)
			}
			out = append(out, name)
		}
	}
	return out, nil
}

// selectPackages filters loaded packages by go-tool-style patterns: "./..."
// (everything below the pattern's directory), a relative directory, or a full
// import path.
func selectPackages(pkgs []*lint.Package, patterns []string, cwd string) ([]*lint.Package, error) {
	var out []*lint.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		matched := false
		for _, pkg := range pkgs {
			if !matchPattern(pkg, pat, cwd) {
				continue
			}
			matched = true
			if !seen[pkg.Path] {
				seen[pkg.Path] = true
				out = append(out, pkg)
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return out, nil
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
