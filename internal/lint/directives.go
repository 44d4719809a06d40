package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A suppression directive has the form
//
//	//lint:ignore <rule> reason: <justification>
//
// and silences findings of <rule> on the directive's own line (trailing
// comment) or on the line immediately below it (leading comment). The
// "reason:" token and a non-empty justification are mandatory — a
// suppression without a recorded why is reported as a bad-directive finding
// instead, as is one naming a rule the analyzer doesn't have. Directives
// that silence nothing are reported by the stale-suppression audit at the
// end of every run.
type directive struct {
	pos  token.Position
	rule string
	// used counts how many diagnostics this directive silenced in the run.
	used int
}

type suppressions struct {
	directives []*directive
	malformed  []Diagnostic
}

const directivePrefix = "lint:ignore"

// collectDirectives scans every comment of every package for //lint:ignore
// directives. The index is module-global so module-wide rules and the
// staleness audit see one consistent picture.
func collectDirectives(pkgs []*Package) *suppressions {
	s := &suppressions{}
	known := make(map[string]bool)
	for _, r := range Rules() {
		known[r.Name] = true
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					s.add(pkg.Fset, c, known)
				}
			}
		}
	}
	return s
}

func (s *suppressions) add(fset *token.FileSet, c *ast.Comment, known map[string]bool) {
	text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
	if !ok {
		return
	}
	pos := fset.Position(c.Pos())
	bad := func(format string, args ...any) {
		s.malformed = append(s.malformed, Diagnostic{Pos: pos, Rule: RuleBadDirective,
			Message: fmt.Sprintf(format, args...)})
	}
	fields := strings.Fields(text)
	if len(fields) < 3 || fields[1] != "reason:" {
		bad("malformed suppression: want //lint:ignore <rule> reason: <justification>; " +
			"the reason: token and a non-empty justification are mandatory")
		return
	}
	if !known[fields[0]] {
		bad("suppression names unknown rule %q; run omcast lint -list for the rule set", fields[0])
		return
	}
	s.directives = append(s.directives, &directive{pos: pos, rule: fields[0]})
}

// suppresses reports whether a directive covers the diagnostic, marking the
// match for the staleness audit.
func (s *suppressions) suppresses(d Diagnostic) bool {
	for _, dir := range s.directives {
		if dir.pos.Filename != d.Pos.Filename || dir.rule != d.Rule {
			continue
		}
		if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
			dir.used++
			return true
		}
	}
	return false
}

// stale reports every directive that silenced nothing: either the underlying
// code was fixed (delete the directive) or the directive drifted away from
// the line it used to cover (it is now silently inert — worse than noise).
func (s *suppressions) stale() []Diagnostic {
	var out []Diagnostic
	for _, dir := range s.directives {
		if dir.used > 0 {
			continue
		}
		out = append(out, Diagnostic{
			Pos:  dir.pos,
			Rule: RuleStaleSuppression,
			Message: fmt.Sprintf("//lint:ignore %s suppressed nothing in this run; "+
				"the finding it covered is gone (or the directive drifted off its line) — delete it",
				dir.rule),
		})
	}
	return out
}
