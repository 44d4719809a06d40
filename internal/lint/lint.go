// Package lint is a from-scratch static analyzer enforcing the repo's
// determinism, simulation-safety and input-hardening invariants. The paper's
// evaluation rests on exactly reproducible event-driven runs: identical seeds
// must yield identical ROST switching decisions and CER recovery outcomes —
// and DSN 2006's whole premise is surviving misbehaving peers, so decoded
// wire input must not touch protocol state before validation. Unordered map
// iteration, wall-clock reads, stray global-RNG calls, hidden concurrency,
// unvalidated decode→use flows and unlocked access to mutex-guarded state all
// silently destroy one of those properties, so this package checks for them
// statically using only the standard library's go/ast, go/parser, go/token
// and go/types.
//
// The analyzer works in layers. Load parses and type-checks every package of
// the module. newModule indexes the declared functions and walks every file
// once, recording the atoms (wall clock, global or hardware entropy,
// concurrency, order-sensitive map ranges, exact float comparisons; atomOf
// is the one classifier) and a conservative intra-module call graph. Every
// rule then runs over the whole module:
//
//   - no-wallclock, no-global-rand, no-goroutine-in-sim, map-order and
//     float-accum filter the atoms by package scope;
//   - handler-purity filters them by reachability from an eventsim.Handler
//     through the call graph, not just the handler's own body;
//   - wire-taint tracks values produced by internal/wire decode functions
//     until validation, and forbids their flow into node state, cer/rost
//     protocol calls, or map/slice indexes (see taint.go);
//   - lock-discipline checks //guardedby:<mutex> annotations on struct
//     fields against a per-function lock-state analysis (see locks.go).
//
// wire-taint and lock-discipline thread their state through function bodies
// on one flow-sensitive statement walk (flow.go).
//
// //lint:ignore <rule> reason: <text> directives suppress findings and are
// audited for staleness. `omcast lint` prints one file:line: rule: message
// line per finding, choosing by package pattern which findings to print; CI
// runs it over ./... and fails on any finding.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the finding (filename, line, column).
	Pos token.Position
	// Rule names the rule that fired (or one of the reserved names
	// "bad-directive" / "stale-suppression" for directive hygiene findings).
	Rule string
	// Message explains the finding and how to fix or suppress it.
	Message string
}

// String renders the canonical file:line: rule: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Reserved diagnostic names that are not rules and cannot be suppressed.
const (
	// RuleBadDirective reports malformed //lint:ignore comments.
	RuleBadDirective = "bad-directive"
	// RuleStaleSuppression reports directives that suppressed nothing.
	RuleStaleSuppression = "stale-suppression"
)

// The rules' package scopes. A pattern matches an import path exactly, by
// final-elements suffix ("rost" matches "omcast/internal/rost"), or by prefix
// when it ends in "/..." ("omcast/cmd/..." matches every command).
var (
	// simPackages form the deterministic simulation kernel: all time must be
	// virtual, map iteration order must not leak into results, and no
	// concurrency primitives are allowed (the kernel is single-threaded).
	simPackages = []string{
		"omcast", // the root façade assembles and runs the simulation
		"eventsim", "overlay", "construct", "rost", "cer", "churn",
		"stream", "experiments", "xrand", "topology", "stats",
		// The deterministic metrics backend is sim-safe by contract; its
		// concurrent sibling internal/metrics/live (suffix "live") is
		// deliberately outside this scope.
		"metrics",
		// The fault-injection model (rules, schedules, decision streams)
		// follows the same split: internal/faultnet is pure and
		// deterministic, internal/faultnet/live owns the timers and locks.
		"faultnet",
		// The wire codec (envelope validation included) is pure parsing:
		// no clocks, no goroutines, no map-order leaks.
		"wire",
		// The causal span layer mints deterministic IDs inside traced
		// simulations; its flight-recorder sibling tracing/flight (the
		// mutex ring live nodes dump over HTTP) stays outside, mirroring
		// the metrics / metrics/live split.
		"tracing",
	}
	// wallclockExtra extends no-wallclock beyond simPackages to the CLI
	// drivers, where progress timers carry an explicit suppression, and to
	// the live node and its fault network, whose every timer and time
	// reading goes through a node.Clock: the wall-clock Clock is their one
	// suppressed site. The fault network is named exactly, so metrics/live
	// stays outside.
	wallclockExtra = []string{"omcast/cmd/...", "omcast/examples/...", "node", "omcast/internal/faultnet/live"}
	// mapOrderExtra extends map-order beyond simPackages to the live node,
	// which a virtual clock makes as replayable as the simulator.
	mapOrderExtra = []string{"node"}
	// floatPackages hold metric/statistics code checked by float-accum.
	floatPackages = []string{"stats", "experiments", "stream", "metrics"}
	// taintStatePackages hold long-lived protocol state: a tainted wire
	// value stored into a struct field, map or slice there is a wire-taint
	// finding. The live protocol runtime owns the state an adversarial
	// datagram is trying to poison.
	taintStatePackages = []string{"node"}
	// taintProtocolPackages hold protocol decision logic: passing a tainted
	// wire value into any of their functions is a wire-taint finding. cer
	// and rost own the recovery and switching decisions such a datagram is
	// trying to steer.
	taintProtocolPackages = []string{"cer", "rost"}
)

// matchPackage reports whether the import path matches any pattern. A
// command under cmd/ is named after its binary, not after a layer, so it
// never matches by suffix: cmd/omcast is not the root package "omcast".
func matchPackage(path string, patterns []string) bool {
	for _, p := range patterns {
		switch {
		case p == path:
			return true
		case strings.HasSuffix(p, "/..."):
			prefix := strings.TrimSuffix(p, "/...")
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
		case strings.HasSuffix(path, "/"+p) && !strings.Contains(path, "/cmd/"):
			return true
		}
	}
	return false
}

// Rule is one analysis pass. Every rule sees the whole module (the shared
// function index, atoms and call graph live on *Module); package-scoped
// rules apply their own scope.
type Rule struct {
	// Name is the identifier used in diagnostics and directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// check runs the pass over the module and reports findings.
	check func(m *Module, rep *reporter)
}

// Rules returns the full rule set in stable order.
func Rules() []*Rule {
	return []*Rule{
		ruleNoWallclock(),
		ruleNoGlobalRand(),
		ruleMapOrder(),
		ruleNoGoroutineInSim(),
		ruleHandlerPurity(),
		ruleFloatAccum(),
		ruleWireTaint(),
		ruleLockDiscipline(),
		ruleTestOnlyExport(),
		ruleWriteOnlyField(),
	}
}

// reporter accumulates diagnostics for one rule pass.
type reporter struct {
	fset  *token.FileSet
	rule  string
	diags []Diagnostic
}

func (r *reporter) reportf(pos token.Pos, format string, args ...any) {
	r.diags = append(r.diags, Diagnostic{
		Pos:     r.fset.Position(pos),
		Rule:    r.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// RuleStat is the per-rule cost/effect record of one analysis run.
type RuleStat struct {
	// Rule names the pass.
	Rule string
	// Findings counts surviving (non-suppressed) diagnostics.
	Findings int
	// Suppressed counts diagnostics silenced by directives.
	Suppressed int
	// Millis is the pass's wall time in milliseconds.
	Millis float64
}

// Result is the full outcome of one analysis run.
type Result struct {
	// Diags are the surviving diagnostics in position order.
	Diags []Diagnostic
	// Stats holds one entry per rule, in rule order, plus the directive
	// audit under the reserved stale-suppression name.
	Stats []RuleStat
	// TotalMillis is the whole run's wall time (index, rules and audit, not
	// loading).
	TotalMillis float64
}

// Run executes every rule over the given packages, which should be a whole
// module: handler-purity and wire-taint follow calls across packages, and the
// stale-suppression audit needs every rule's findings. Diagnostics come back
// sorted by position, with per-rule statistics. Malformed //lint:ignore
// directives are themselves reported and cannot be suppressed.
func Run(pkgs []*Package) Result {
	start := time.Now()
	m := newModule(pkgs)
	sup := collectDirectives(pkgs)
	res := Result{Diags: sup.malformed}
	fset := token.NewFileSet()
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	for _, rule := range Rules() {
		t0 := time.Now()
		rep := &reporter{fset: fset, rule: rule.Name}
		rule.check(m, rep)
		stat := RuleStat{Rule: rule.Name}
		for _, d := range rep.diags {
			if sup.suppresses(d) {
				stat.Suppressed++
			} else {
				res.Diags = append(res.Diags, d)
				stat.Findings++
			}
		}
		stat.Millis = float64(time.Since(t0).Microseconds()) / 1000
		res.Stats = append(res.Stats, stat)
	}
	stale := sup.stale()
	res.Diags = append(res.Diags, stale...)
	res.Stats = append(res.Stats, RuleStat{Rule: RuleStaleSuppression, Findings: len(stale)})
	sortDiagnostics(res.Diags)
	res.TotalMillis = float64(time.Since(start).Microseconds()) / 1000
	return res
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
