package lint

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"omcast/internal/golden"
)

// LoadDir type-checks a single standalone package directory (the testdata
// fixtures, which import only the standard library). The directory base name
// becomes the import path.
func LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(dir, "")
	return l.load(dir, filepath.Base(dir))
}

// wantRx extracts the backtick-quoted expectation patterns of a
// // want `...` comment.
var wantRx = regexp.MustCompile("`([^`]+)`")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants parses the // want `regex` expectation comments of a fixture
// package.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// The marker may trail other comment text (for example a
				// //lint:ignore directive that itself expects a diagnostic).
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				rest := c.Text[idx+len("// want "):]
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRx.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: rx})
				}
			}
		}
	}
	return wants
}

// checkExpectations matches reported diagnostics against the fixtures' // want
// comments: each want must be matched on its line, and no unexpected
// diagnostic may appear.
func checkExpectations(t *testing.T, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
nextDiag:
	for _, d := range diags {
		text := d.Rule + ": " + d.Message
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(text) {
				w.matched = true
				continue nextDiag
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// fixture is one testdata fixture after its one load and analysis: a package
// under testdata/src, or a multi-package module testdata/mod_* with its own
// go.mod.
type fixture struct {
	dir   string // relative to testdata: src/<name> or mod_<name>
	pkgs  []*Package
	diags []Diagnostic
	err   error // the load's
}

// fixtures loads and analyses every fixture once per test binary.
// TestFixtures and TestModuleFixtures check the fixtures' // want
// expectations and TestFixtureDiagnosticsGolden pins their diagnostics, all
// three from this one pass of about two seconds, which loading per test
// paid twice.
var fixtures = sync.OnceValues(func() ([]fixture, error) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		return nil, err
	}
	srcs, _ := filepath.Glob(filepath.Join(testdata, "src", "*"))
	mods, _ := filepath.Glob(filepath.Join(testdata, "mod_*"))
	if len(srcs) == 0 || len(mods) == 0 {
		return nil, fmt.Errorf("found %d fixture packages and %d fixture modules", len(srcs), len(mods))
	}
	var fs []fixture
	for _, dir := range append(srcs, mods...) {
		rel, _ := filepath.Rel(testdata, dir)
		f := fixture{dir: filepath.ToSlash(rel)}
		if strings.HasPrefix(f.dir, "mod_") {
			f.pkgs, f.err = Load(dir)
		} else {
			var pkg *Package
			if pkg, f.err = LoadDir(dir); f.err == nil {
				f.pkgs = []*Package{pkg}
			}
		}
		if f.err == nil {
			f.diags = Run(f.pkgs).Diags
		}
		fs = append(fs, f)
	}
	return fs, nil
})

// checkFixtures runs one subtest per fixture whose directory matches glob
// (relative to testdata), checking its // want expectations.
func checkFixtures(t *testing.T, glob string) {
	fs, err := fixtures()
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	for _, f := range fs {
		if ok, _ := path.Match(glob, f.dir); !ok {
			continue
		}
		ran = true
		t.Run(path.Base(f.dir), func(t *testing.T) {
			if f.err != nil {
				t.Fatalf("loading fixture: %v", f.err)
			}
			checkExpectations(t, f.pkgs, f.diags)
		})
	}
	if !ran {
		t.Fatalf("no fixtures match testdata/%s", glob)
	}
}

// TestFixtures checks the analyzer over every standalone fixture package
// under testdata/src.
func TestFixtures(t *testing.T) { checkFixtures(t, "src/*") }

// TestModuleFixtures checks the analyzer over every multi-package fixture
// MODULE under testdata (directories named mod_*, each with its own go.mod).
// These exercise the interprocedural rules across package boundaries:
// cross-package taint flow, derived sources, and protocol-package sinks.
func TestModuleFixtures(t *testing.T) { checkFixtures(t, "mod_*") }

// TestFixtureDiagnosticsGolden pins the diagnostics of every testdata/src
// package and testdata/mod_* module in testdata/diagnostics.golden, one
// file:line:col: rule: message line each (paths relative to testdata, lines
// sorted): each message byte and each position, including atoms outside
// function bodies. The chain.go finding is left out: it exists only once the
// summary fixpoint runs to convergence. `go test -run
// TestFixtureDiagnosticsGolden -update` rewrites the file.
func TestFixtureDiagnosticsGolden(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fixtures()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range fs {
		if f.err != nil {
			t.Fatal(f.err)
		}
		for _, d := range f.diags {
			rel, err := filepath.Rel(testdata, d.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			if rel = filepath.ToSlash(rel); rel == "mod_taint/node/chain.go" {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s:%d:%d: %s: %s", rel, d.Pos.Line, d.Pos.Column, d.Rule, d.Message))
		}
	}
	sort.Strings(lines)
	golden.Check(t, filepath.Join("testdata", "diagnostics.golden"), strings.Join(lines, "\n")+"\n", nil)
}

// writeFixture materializes a one-file package in a temp dir and loads it.
func writeFixture(t *testing.T, name, src string) *Package {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", name, err)
	}
	return pkg
}

// TestMalformedDirective checks that a //lint:ignore without a reason is
// itself reported and does not suppress anything.
func TestMalformedDirective(t *testing.T) {
	pkg := writeFixture(t, "eventsim", `package eventsim

import "time"

func bad() time.Time {
	//lint:ignore no-wallclock
	return time.Now()
}
`)
	diags := Run([]*Package{pkg}).Diags
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (bad-directive + unsuppressed finding): %v", len(diags), diags)
	}
	if diags[0].Rule != "bad-directive" {
		t.Errorf("first diagnostic rule = %q, want bad-directive", diags[0].Rule)
	}
	if diags[1].Rule != "no-wallclock" {
		t.Errorf("second diagnostic rule = %q, want no-wallclock (malformed directives must not suppress)", diags[1].Rule)
	}
}

// TestScopedRule checks that kernel-scoped rules ignore packages outside the
// scope.
func TestScopedRule(t *testing.T) {
	pkg := writeFixture(t, "liveutil", `package liveutil

import "time"

func fine() time.Time { return time.Now() }
`)
	if diags := Run([]*Package{pkg}).Diags; len(diags) != 0 {
		t.Fatalf("no-wallclock fired outside its scope: %v", diags)
	}
}

func TestMatchPackage(t *testing.T) {
	cases := []struct {
		path    string
		pattern string
		want    bool
	}{
		{"omcast/internal/rost", "rost", true},
		{"omcast/internal/rost", "omcast/internal/rost", true},
		{"omcast/internal/frost", "rost", false},
		{"omcast", "omcast", true},
		{"omcast/cmd/omcast", "omcast/cmd/...", true},
		{"omcast/cmd/omcast", "omcast", false},
		{"omcast/cmdx", "omcast/cmd/...", false},
		{"omcast/internal/lint", "rost", false},
		{"omcast/internal/node", "node", true},
		{"omcast/internal/faultnet/live", "omcast/internal/faultnet/live", true},
		{"omcast/internal/metrics/live", "omcast/internal/faultnet/live", false},
	}
	for _, c := range cases {
		if got := matchPackage(c.path, []string{c.pattern}); got != c.want {
			t.Errorf("matchPackage(%q, %q) = %v, want %v", c.path, c.pattern, got, c.want)
		}
	}
}

// TestModuleIsClean loads the real module and asserts the tree lints clean,
// the gate `omcast lint ./...` applies, so a finding fails `go test ./...`
// too; it also pins how many findings each rule's directives suppress.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module load in -short mode")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; the loader is missing module packages", len(pkgs))
	}
	var sb strings.Builder
	res := Run(pkgs)
	for _, d := range res.Diags {
		fmt.Fprintf(&sb, "  %s\n", d)
	}
	if len(res.Diags) > 0 {
		t.Errorf("module has %d lint finding(s):\n%s", len(res.Diags), sb.String())
	}
	// Every suppression in the tree, by rule: a new one is a decision to
	// review, and a lost one means a rule stopped seeing what it covered.
	want := map[string]int{"no-wallclock": 14, "handler-purity": 2, "float-accum": 1, "test-only-export": 6}
	for _, s := range res.Stats {
		if s.Suppressed != want[s.Rule] {
			t.Errorf("%s: %d suppressed findings, want %d", s.Rule, s.Suppressed, want[s.Rule])
		}
	}
}

// TestBuildConstraintFiltering: tag-gated twin files (the //go:build race /
// !race pattern) must not collide during type-checking — the loader keeps the
// default-build file and skips the tagged one.
func TestBuildConstraintFiltering(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "twins")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("twins.go", "package twins\n\nvar Flag = raceEnabled\n")
	write("race_on.go", "//go:build race\n\npackage twins\n\nconst raceEnabled = true\n")
	write("race_off.go", "//go:build !race\n\npackage twins\n\nconst raceEnabled = false\n")
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading tag-gated twins: %v", err)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("loaded %d files, want 2 (race_on.go skipped)", len(pkg.Files))
	}
}
