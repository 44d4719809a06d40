package lint

import (
	"go/types"
	"strings"
)

// The four impurity rules filter the one set of atoms newModule records (see
// atomOf): no-wallclock, no-global-rand and no-goroutine-in-sim by package
// scope, handler-purity by reachability from an eventsim.Handler.

// scopeRule reports every atom whose kind has a message format (taking the
// atom's text) in a package the scope admits.
func scopeRule(name, doc string, scope func(path string) bool, formats map[atomKind]string) *Rule {
	return &Rule{
		Name: name,
		Doc:  doc,
		check: func(m *Module, rep *reporter) {
			for _, a := range m.atoms {
				if format, ok := formats[a.kind]; ok && scope(a.pkg.Path) {
					rep.reportf(a.pos, format, a.text)
				}
			}
		},
	}
}

func ruleNoWallclock() *Rule {
	return scopeRule("no-wallclock",
		"forbid wall-clock reads (time.Now, time.Since, timers) in deterministic simulation code",
		func(path string) bool {
			return matchPackage(path, simPackages) || matchPackage(path, wallclockExtra)
		},
		map[atomKind]string{
			atomWallclock: "%s reads the wall clock; deterministic code must take time from the virtual clock (eventsim.Simulator.Now)",
		})
}

func ruleNoGlobalRand() *Rule {
	return scopeRule("no-global-rand",
		"forbid package-level math/rand calls; thread seeded *rand.Rand streams from internal/xrand",
		func(string) bool { return true }, // the whole module must stay replay-safe
		map[atomKind]string{
			atomGlobalRand: "%s draws from the process-global source and breaks seed replay; use a seeded stream from internal/xrand",
		})
}

func ruleNoGoroutineInSim() *Rule {
	const (
		single   = "%s in the simulation kernel; the kernel is single-threaded by design"
		confined = single + " (concurrency belongs in internal/node and cmd)"
	)
	return scopeRule("no-goroutine-in-sim",
		"forbid goroutines, channels and sync primitives inside the single-threaded simulation kernel",
		func(path string) bool { return matchPackage(path, simPackages) },
		map[atomKind]string{
			atomGo: confined, atomSync: confined,
			atomSelect: single, atomSend: single, atomRecv: single, atomChanType: single,
		})
}

// handlerAdvice holds the atom kinds handler-purity reports, with the fix
// for each.
var handlerAdvice = map[atomKind]string{
	atomWallclock:  "handlers run on the virtual timeline and must take time from the Simulator argument",
	atomGo:         "handlers must complete synchronously on the simulation thread — schedule a follow-up event instead",
	atomGlobalRand: "the process-global source breaks seed replay; thread a seeded stream from internal/xrand",
	atomCryptoRand: "hardware entropy is unreproducible; thread a seeded stream from internal/xrand",
}

// ruleHandlerPurity enforces purity of eventsim.Handler callbacks
// transitively: handlers execute on the virtual timeline inside the
// single-threaded kernel, so a wall-clock read, goroutine spawn, or
// non-seeded entropy draw breaks determinism no matter how many calls deep
// it hides. The rule walks the module call graph from every handler root
// (declared functions and function literals whose signature is
// func(*eventsim.Simulator)) and reports each impurity atom reachable from
// one, with the call path that reaches it. Atoms in a root itself get the
// direct message.
//
// Approximations (see DESIGN.md §13): non-handler function literals fold
// into their enclosing function; interface method calls fan out to every
// module method with a matching name and signature; calls through plain
// function values produce no edge (false negative, caught for sim packages
// by the scope rules).
func ruleHandlerPurity() *Rule {
	return &Rule{
		Name: "handler-purity",
		Doc:  "forbid wall-clock reads, goroutine spawns and global entropy anywhere reachable from an eventsim.Handler",
		check: func(m *Module, rep *reporter) {
			// BFS from all handler roots at once; pred reconstructs one
			// shortest call path per reached function for the diagnostic.
			// Each atom belongs to one node, so each is reported once.
			pred := make(map[*fnNode]*fnNode)
			seen := make(map[*fnNode]bool)
			queue := append([]*fnNode(nil), m.roots...)
			for _, n := range queue {
				seen[n] = true
			}
			for len(queue) > 0 {
				n := queue[0]
				queue = queue[1:]
				for _, a := range n.atoms {
					advice, ok := handlerAdvice[a.kind]
					if !ok {
						continue
					}
					if pred[n] == nil {
						rep.reportf(a.pos, "%s inside an eventsim.Handler; %s", a.text, advice)
						continue
					}
					rep.reportf(a.pos, "%s is reachable from an eventsim.Handler (via %s); %s",
						a.text, callPath(n, pred), advice)
				}
				for _, callee := range n.calls {
					if !seen[callee] {
						seen[callee] = true
						pred[callee] = n
						queue = append(queue, callee)
					}
				}
			}
		},
	}
}

// callPath renders root → ... → fn for the diagnostic.
func callPath(fn *fnNode, pred map[*fnNode]*fnNode) string {
	var chain []string
	for n := fn; n != nil; n = pred[n] {
		chain = append(chain, n.name)
	}
	// Reverse into root-first order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " -> ")
}

// isHandlerSig reports whether t is the eventsim.Handler shape:
// func(*eventsim.Simulator) with no results. Matching is by package name so
// the rule holds for any kernel named eventsim (including test fixtures).
func isHandlerSig(t types.Type) bool {
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Variadic() || sig.Results().Len() != 0 || sig.Params().Len() != 1 {
		return false
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Simulator" && named.Obj().Pkg().Name() == "eventsim"
}
