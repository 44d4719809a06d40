// handler.go exercises the handler-purity rule. The fixture mirrors the real
// kernel's Simulator/Handler shapes locally (the rule matches structurally:
// any func(*eventsim.Simulator, int64) body is a handler). Because this fixture
// directory is also inside the sim-kernel scope, each violation draws both
// the handler-purity finding and the corresponding scope-wide finding.
package eventsim

import "time"

// Simulator mirrors the kernel type the rule keys on.
type Simulator struct{}

// Handler mirrors the kernel callback type.
type Handler func(*Simulator, int64)

// Schedule mirrors the kernel's registration surface.
func (s *Simulator) Schedule(at time.Duration, h Handler, arg int64) {}

func register(s *Simulator) {
	s.Schedule(time.Second, func(sim *Simulator, _ int64) {
		_ = time.Now() // want `handler-purity: time\.Now inside an eventsim\.Handler` `no-wallclock: time\.Now reads the wall clock`
	}, 0)
	s.Schedule(2*time.Second, func(sim *Simulator, _ int64) {
		go leak() // want `handler-purity: go statement inside an eventsim\.Handler` `no-goroutine-in-sim: go statement in the simulation kernel`
	}, 0)
	s.Schedule(3*time.Second, func(sim *Simulator, _ int64) {
		// Rescheduling through the simulator is the legal idiom.
		sim.Schedule(4*time.Second, nil, 0)
	}, 0)
}

// Assigned handlers count too: the rule keys on the signature, not the
// registration site.
var deferred Handler = func(sim *Simulator, _ int64) {
	time.Sleep(time.Second) // want `handler-purity: time\.Sleep inside an eventsim\.Handler` `no-wallclock: time\.Sleep reads the wall clock`
}

// namedHandler shows that declared functions with the handler signature are
// held to the same standard as literals.
func namedHandler(sim *Simulator, _ int64) {
	_ = time.Since(time.Unix(0, 0)) // want `handler-purity: time\.Since inside an eventsim\.Handler` `no-wallclock: time\.Since reads the wall clock`
}

// nestedHandlers: the inner literal is a handler in its own right and must be
// reported exactly once (the outer body walk skips it; the outer inspect
// visits it directly).
func nestedHandlers(sim *Simulator, _ int64) {
	inner := Handler(func(s2 *Simulator, _ int64) {
		_ = time.Now() // want `handler-purity: time\.Now inside an eventsim\.Handler` `no-wallclock: time\.Now reads the wall clock`
	})
	inner(sim, 0)
}

// okNonHandler has a different signature, so handler-purity leaves it to the
// scope-wide rules alone.
func okNonHandler(sim *Simulator, extra int) {
	_ = time.Now() // want `no-wallclock: time\.Now reads the wall clock`
}

func leak() {}
