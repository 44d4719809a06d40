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
// The analyzer loads and type-checks every package in the module (see Load),
// builds a module-wide function index and a conservative intra-module call
// graph (see callgraph.go), runs a configurable set of analysis passes over
// the typed syntax trees, honors //lint:ignore <rule> reason: <text>
// suppression directives, audits those directives for staleness, and reports
// findings as file:line: rule: message diagnostics. `omcast lint` is the
// CLI front end (text, JSON and SARIF output); CI runs it over ./... and
// fails on any finding.
//
// Pass families:
//
//   - syntactic scope rules (no-wallclock, no-global-rand, map-order,
//     no-goroutine-in-sim, float-accum) — unchanged in spirit from the first
//     analyzer generation, now running over the shared module index;
//   - handler-purity — transitive: an impurity (wall clock, go statement,
//     global or crypto entropy) is flagged anywhere reachable from an
//     eventsim.Handler through the static call graph, not just in the
//     handler's literal body;
//   - wire-taint — dataflow: values produced by internal/wire decode
//     functions are tainted until validated, and may not flow into node
//     state, cer/rost protocol calls, or map/slice indexes (see taint.go for
//     the source/sanitizer/sink model);
//   - lock-discipline — //guardedby:<mutex> annotations on struct fields are
//     checked against a per-function lock-state analysis (see locks.go).
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

// Reserved diagnostic names that are not rules and can be neither enabled,
// disabled, nor suppressed.
const (
	// RuleBadDirective reports malformed //lint:ignore comments.
	RuleBadDirective = "bad-directive"
	// RuleStaleSuppression reports directives that suppressed nothing.
	RuleStaleSuppression = "stale-suppression"
)

// Config scopes the rules to package sets and toggles rules on or off.
// Package patterns match an import path exactly, by final-elements suffix
// ("rost" matches "omcast/internal/rost"), or by prefix when they end in
// "/..." ("omcast/cmd/..." matches every command).
type Config struct {
	// SimPackages form the deterministic simulation kernel: all time must be
	// virtual, map iteration order must not leak into results, and no
	// concurrency primitives are allowed (the kernel is single-threaded).
	SimPackages []string
	// WallclockExtra extends the no-wallclock rule beyond SimPackages —
	// typically the CLI drivers, where progress timers are expected to carry
	// an explicit suppression directive.
	WallclockExtra []string
	// FloatPackages hold metric/statistics code checked by float-accum.
	FloatPackages []string
	// TaintStatePackages hold long-lived protocol state: a tainted wire value
	// stored into a struct field, map or slice there is a wire-taint finding.
	TaintStatePackages []string
	// TaintProtocolPackages hold protocol decision logic: passing a tainted
	// wire value into any of their functions is a wire-taint finding.
	TaintProtocolPackages []string
	// Enabled, when non-empty, restricts the run to exactly these rules.
	Enabled []string
	// Disabled lists rule names to skip entirely.
	Disabled []string
	// NoAudit turns the stale-suppression audit off. Run disables the audit
	// automatically whenever the effective rule set is filtered (a skipped
	// rule's suppressions would all look stale).
	NoAudit bool
}

// DefaultConfig returns the repository's invariant scopes.
func DefaultConfig() *Config {
	return &Config{
		SimPackages: []string{
			"omcast", // the root façade assembles and runs the simulation
			"eventsim", "overlay", "construct", "rost", "cer", "churn",
			"stream", "experiments", "xrand", "topology", "stats", "multitree",
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
			// The federation control plane schedules everything on the shared
			// simulator; it is deterministic end to end.
			"fleet",
		},
		WallclockExtra: []string{"omcast/cmd/...", "omcast/examples/..."},
		FloatPackages:  []string{"stats", "experiments", "stream", "multitree", "metrics", "fleet"},
		// The live protocol runtime owns the state an adversarial datagram is
		// trying to poison; cer and rost own the recovery/switching decisions
		// such a datagram is trying to steer.
		TaintStatePackages:    []string{"node"},
		TaintProtocolPackages: []string{"cer", "rost"},
	}
}

// ruleEnabled applies the Enabled allow-list and the Disabled deny-list.
func (c *Config) ruleEnabled(rule string) bool {
	if len(c.Enabled) > 0 {
		ok := false
		for _, e := range c.Enabled {
			if e == rule {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, d := range c.Disabled {
		if d == rule {
			return false
		}
	}
	return true
}

// filtered reports whether the effective rule set differs from the full set.
func (c *Config) filtered() bool {
	return len(c.Enabled) > 0 || len(c.Disabled) > 0
}

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
// function index and call graph live on *Module); package-scoped rules
// iterate m.Pkgs and apply their own scope predicate.
type Rule struct {
	// Name is the identifier used in diagnostics and directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// check runs the pass over the module and reports findings.
	check func(m *Module, cfg *Config, rep *reporter)
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
	}
}

// RuleNames returns the rule identifiers in the same order as Rules.
func RuleNames() []string {
	rules := Rules()
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name
	}
	return names
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
	Rule string `json:"rule"`
	// Findings counts surviving (non-suppressed) diagnostics.
	Findings int `json:"findings"`
	// Suppressed counts diagnostics silenced by directives.
	Suppressed int `json:"suppressed"`
	// Millis is the pass's wall time in milliseconds.
	Millis float64 `json:"wall_ms"`
}

// Result is the full outcome of one analysis run.
type Result struct {
	// Diags are the surviving diagnostics in position order.
	Diags []Diagnostic
	// Stats holds one entry per executed rule, in rule order, plus the
	// directive audit under the reserved stale-suppression name.
	Stats []RuleStat
	// TotalMillis is the whole run's wall time (rules + audit, not loading).
	TotalMillis float64
}

// Run executes every enabled rule over the given packages and returns the
// surviving (non-suppressed) diagnostics sorted by position. Malformed
// //lint:ignore directives are themselves reported and cannot be suppressed.
func Run(pkgs []*Package, cfg *Config) []Diagnostic {
	return RunAnalysis(pkgs, cfg).Diags
}

// RunAnalysis is Run plus per-rule statistics (finding counts, suppression
// counts, wall time) for the -stats and -stats-json surfaces.
func RunAnalysis(pkgs []*Package, cfg *Config) Result {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	start := time.Now()
	m := newModule(pkgs)
	sup := collectDirectives(pkgs)
	var res Result
	res.Diags = append(res.Diags, sup.malformed...)
	for _, rule := range Rules() {
		if !cfg.ruleEnabled(rule.Name) {
			continue
		}
		t0 := time.Now()
		rep := &reporter{fset: m.fset(), rule: rule.Name}
		rule.check(m, cfg, rep)
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
	// The staleness audit only means something when every rule had its
	// chance to consume directives.
	if !cfg.NoAudit && !cfg.filtered() {
		stale := sup.stale()
		res.Diags = append(res.Diags, stale...)
		res.Stats = append(res.Stats, RuleStat{Rule: RuleStaleSuppression, Findings: len(stale)})
	}
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
