package node

import "taintmod/wire"

// badChain reaches the sink twelve calls deep. Every hop is declared after
// its caller, so each summary round lifts the parameter sink by one hop: a
// fixpoint stopped after a fixed number of rounds below twelve misses it.
func (n *Node) badChain(data []byte) {
	env, _ := wire.DecodeRaw(data)
	n.hop1(env.From) // want `wire-taint: unvalidated wire input \(wire\.DecodeRaw result, parse-only and never validated\) passed to hop1, where parameter 0 is passed to hop2, .* where parameter 0 is used as a map/slice index`
}

func (n *Node) hop1(a wire.Addr)  { n.hop2(a) }
func (n *Node) hop2(a wire.Addr)  { n.hop3(a) }
func (n *Node) hop3(a wire.Addr)  { n.hop4(a) }
func (n *Node) hop4(a wire.Addr)  { n.hop5(a) }
func (n *Node) hop5(a wire.Addr)  { n.hop6(a) }
func (n *Node) hop6(a wire.Addr)  { n.hop7(a) }
func (n *Node) hop7(a wire.Addr)  { n.hop8(a) }
func (n *Node) hop8(a wire.Addr)  { n.hop9(a) }
func (n *Node) hop9(a wire.Addr)  { n.hop10(a) }
func (n *Node) hop10(a wire.Addr) { n.hop11(a) }
func (n *Node) hop11(a wire.Addr) { n.hop12(a) }
func (n *Node) hop12(a wire.Addr) { n.membership[a] = true }
