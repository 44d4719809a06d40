package node

import "taintmod/wire"

// The methods below pin how taint and sanitizing facts flow through if
// joins, select arms and labels.

// okThenReturnsWithElse: the failing then-arm returns, so falling through
// the if means the decode error was nil.
func (n *Node) okThenReturnsWithElse(data []byte, fast bool) {
	env, err := wire.Decode(data)
	if err != nil {
		return
	} else if fast {
		n.membership = nil
	}
	n.parent = env.From
}

// okElseReturns: the failing else-arm returns, so falling through the if
// means the decode error was nil.
func (n *Node) okElseReturns(data []byte) {
	env, err := wire.Decode(data)
	if err == nil {
		n.membership = nil
	} else {
		return
	}
	n.parent = env.From
}

// okBothArmsReturn: the else-arm is where the check passed; neither arm
// falls through.
func (n *Node) okBothArmsReturn(data []byte) {
	env, err := wire.Decode(data)
	if err != nil {
		return
	} else {
		n.parent = env.From
		return
	}
}

// badAfterIfElse: neither arm observes the error, so the value is still
// tainted after the join.
func (n *Node) badAfterIfElse(data []byte, fast bool) {
	env, err := wire.Decode(data)
	if fast {
		n.membership = nil
	} else {
		_ = err
	}
	n.parent = env.From // want `wire-taint: unvalidated wire input \(wire\.Decode result used before its error is checked\) stored into shared protocol state`
}

// badSelectArm: a value decoded in a select arm is tainted in that arm; the
// label around the loop changes nothing.
func (n *Node) badSelectArm(in chan []byte) {
loop:
	for {
		select {
		case data := <-in:
			env, _ := wire.DecodeRaw(data)
			n.parent = env.From // want `wire-taint: unvalidated wire input \(wire\.DecodeRaw result, parse-only and never validated\) stored into shared protocol state`
		default:
			break loop
		}
	}
}
