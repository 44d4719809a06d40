// Package eventsim (fixture directory "purity") exercises the TRANSITIVE arm
// of the handler-purity rule: impurity atoms hidden one or two calls below a
// handler must be reported with the call path that reaches them. The
// directory name keeps this fixture OUTSIDE the sim-kernel scope of the
// analyzer, so the scope-wide rules (no-wallclock, no-global-rand,
// no-goroutine-in-sim) stay silent and every diagnostic here comes from the
// call-graph walk alone.
package eventsim

import (
	"math/rand"
	"time"
)

// Simulator mirrors the kernel type the rule keys on (by package name).
type Simulator struct{}

// Handler mirrors the kernel callback type.
type Handler func(*Simulator)

// Schedule mirrors the kernel's registration surface.
func (s *Simulator) Schedule(at time.Duration, h Handler) {}

// onTick is a handler root: everything reachable from it must be pure.
func onTick(sim *Simulator) {
	relayDepthOne()
	sim.Schedule(time.Second, nil)
}

// relayDepthOne is one call below the handler; its own violation and the
// deeper one through stampDepthTwo are both attributed to the onTick root.
func relayDepthOne() {
	go fanout() // want `handler-purity: go statement is reachable from an eventsim\.Handler \(via onTick -> relayDepthOne\); handlers must complete synchronously`
	stampDepthTwo()
}

// stampDepthTwo is two calls below the handler — the case a syntactic
// body-only check cannot see.
func stampDepthTwo() {
	_ = time.Now() // want `handler-purity: time\.Now is reachable from an eventsim\.Handler \(via onTick -> relayDepthOne -> stampDepthTwo\); handlers run on the virtual timeline`
}

func fanout() {}

// onJitter reaches global entropy through a method call: the edge resolves
// through the concrete receiver.
func onJitter(sim *Simulator) {
	var p picker
	_ = p.pick()
}

type picker struct{}

func (p picker) pick() int {
	return rand.Intn(4) // want `handler-purity: rand\.Intn is reachable from an eventsim\.Handler \(via onJitter -> \(picker\)\.pick\); the process-global source breaks seed replay` `no-global-rand: rand\.Intn draws from the process-global source`
}

// onQuiet shows the negative: helpers that only touch pure computation are
// reachable and clean.
func onQuiet(sim *Simulator) {
	_ = sum(1, 2)
}

func sum(a, b int) int { return a + b }

// offPath holds a violation that is NOT reachable from any handler; the
// purity rule must leave it alone (and this fixture is outside the
// no-wallclock scope, so nothing else flags it either).
func offPath() time.Time {
	return time.Now()
}

// onSuppressed shows a justified suppression of a transitive finding at the
// atom site.
func onSuppressed(sim *Simulator) {
	relaySuppressed()
}

func relaySuppressed() {
	//lint:ignore handler-purity reason: fixture: measured value is discarded, timing cannot leak into the timeline
	_ = time.Now()
}
