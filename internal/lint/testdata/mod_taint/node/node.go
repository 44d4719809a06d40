// Package node is the protocol-state package of the taint fixture module
// (its import path suffix matches taintStatePackages): stores of
// unvalidated wire data into non-local state are sinks here, on top of the
// module-wide index/delete and protocol-call sinks.
package node

import (
	"taintmod/cer"
	"taintmod/decode"
	"taintmod/wire"
)

// Node mirrors the real protocol state shape.
type Node struct {
	parent     wire.Addr // want `write-only-field: node\.Node\.parent is written but never read, tests included`
	membership map[wire.Addr]bool
	seen       map[wire.Addr]int
}

// badStore writes a parse-only result straight into protocol state.
func (n *Node) badStore(data []byte) {
	env, _ := wire.DecodeRaw(data)
	n.parent = env.From // want `wire-taint: unvalidated wire input \(wire\.DecodeRaw result, parse-only and never validated\) stored into shared protocol state`
}

// badIndex keys a map with an attacker-controlled address.
func (n *Node) badIndex(data []byte) bool {
	env, _ := wire.DecodeRaw(data)
	return n.membership[env.From] // want `wire-taint: unvalidated wire input \(wire\.DecodeRaw result, parse-only and never validated\) used as a map/slice index`
}

// badDelete removes a membership entry chosen by the sender.
func (n *Node) badDelete(data []byte) {
	env, _ := wire.DecodeRaw(data)
	delete(n.membership, env.From) // want `wire-taint: unvalidated wire input \(wire\.DecodeRaw result, parse-only and never validated\) used as a map delete key`
}

// badUnchecked uses the full Decode but never observes its error: the result
// stays tainted.
func (n *Node) badUnchecked(data []byte) {
	env, err := wire.Decode(data)
	_ = err
	n.parent = env.From // want `wire-taint: unvalidated wire input \(wire\.Decode result used before its error is checked\) stored into shared protocol state`
}

// badProtocol feeds unvalidated data into a protocol decision.
func (n *Node) badProtocol(data []byte) int {
	env, _ := wire.DecodeRaw(data)
	return cer.Plan(env.Kind) // want `wire-taint: unvalidated wire input \(wire\.DecodeRaw result, parse-only and never validated\) passed into protocol logic cer\.Plan`
}

// recordPeer is a state-touching helper: the summary fixpoint must mark its
// parameter as a (transitive) sink.
func (n *Node) recordPeer(addr wire.Addr) {
	n.membership[addr] = true
}

// badParamFlow reaches the sink one call deep — the cross-function flow a
// purely local check cannot see.
func (n *Node) badParamFlow(data []byte) {
	env, _ := wire.DecodeRaw(data)
	n.recordPeer(env.From) // want `wire-taint: unvalidated wire input \(wire\.DecodeRaw result, parse-only and never validated\) passed to recordPeer, where parameter 0 is used as a map/slice index`
}

// badDerived consumes a cross-package derived source: decode.Loose returns
// raw decode results, so its callers inherit the taint.
func (n *Node) badDerived(data []byte) {
	env := decode.Loose(data)
	if env == nil {
		return
	}
	n.parent = env.From // want `wire-taint: unvalidated wire input \(unvalidated wire value returned by Loose\) stored into shared protocol state`
}

// okChecked observes the Decode error: the result is trusted afterwards.
func (n *Node) okChecked(data []byte) {
	env, err := wire.Decode(data)
	if err != nil {
		return
	}
	n.parent = env.From
}

// okPredicate sanitizes raw data with the boolean predicate; the || shape
// with a terminating then-branch must clear the taint on fallthrough.
func (n *Node) okPredicate(data []byte) {
	env, _ := wire.DecodeRaw(data)
	if env == nil || !wire.ValidAddr(env.From) {
		return
	}
	n.membership[env.From] = true
}

// okValidated sanitizes raw data by binding wire.Validate's error and
// branching on it.
func (n *Node) okValidated(data []byte) {
	env, _ := wire.DecodeRaw(data)
	err := wire.Validate(env)
	if err != nil {
		return
	}
	n.parent = env.From
}

// okLocal keeps the tainted value in locals: no sink, no finding.
func (n *Node) okLocal(data []byte) wire.Addr {
	env, _ := wire.DecodeRaw(data)
	from := env.From
	return from
}

// okSuppressed documents a justified exception at the sink site.
func (n *Node) okSuppressed(data []byte) {
	env, _ := wire.DecodeRaw(data)
	//lint:ignore wire-taint reason: fixture: counter is bounded and evicted by the guard elsewhere
	n.seen[env.From]++
}
